//! Process figures read from `/proc` (Linux only, like the rest of the run).

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// `VmHWM`, the peak resident set of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = read("/proc/self/status");
    let kb = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// User plus system CPU seconds of every thread of this process so far.
/// The kernel counts in clock ticks; Linux fixes `USER_HZ` at 100.
pub fn cpu_seconds() -> f64 {
    let stat = read("/proc/self/stat");
    // The command name may hold spaces; fields are counted after its ')'.
    let after = &stat[stat.rfind(')').expect("')' in /proc/self/stat") + 1..];
    let mut fields = after.split_ascii_whitespace().skip(11);
    let mut ticks = || fields.next().and_then(|f| f.parse::<f64>().ok()).expect("utime/stime");
    (ticks() + ticks()) / 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figures_are_positive_and_cpu_time_grows() {
        assert!(peak_rss_mib() > 0.5);
        let before = cpu_seconds();
        let mut x = 0u64;
        let start = std::time::Instant::now();
        while start.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(cpu_seconds() >= before + 0.02, "60 ms of spinning adds CPU time");
    }
}
