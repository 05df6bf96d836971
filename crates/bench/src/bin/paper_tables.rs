//! Regenerates the paper's tables and figures (see the `gj_bench` crate docs):
//!
//! ```sh
//! cargo run --release -p gj-bench --bin paper_tables -- --table 5 --scale 0.02 --dataset wiki-Vote
//! cargo run --release -p gj-bench --bin paper_tables -- --all --scale 0.25
//! ```

fn main() {
    let opts = gj_bench::Options::parse(std::env::args().skip(1))
        .map_err(|err| format!("{err}\n{}", gj_bench::USAGE));
    if let Err(err) = opts.and_then(|opts| gj_bench::run(&opts)) {
        eprintln!("{err}");
        std::process::exit(1)
    }
}
