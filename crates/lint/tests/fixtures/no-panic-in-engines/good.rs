//! Fixture: typed-error style and reviewed waivers stay clean.

fn typed_errors(x: Option<u32>) -> Result<u32, String> {
    let a = x.ok_or_else(|| "missing".to_string())?;
    Ok(a.saturating_add(1))
}

fn waived(x: Option<u32>) -> u32 {
    // gj-lint: allow(no-panic-in-engines) — fixture: reviewed exception, input validated upstream
    x.unwrap()
}

fn non_panicking_cousins(x: Option<u32>, unwrap: u32) -> u32 {
    // `unwrap_or_*` is fine, and a plain identifier named `unwrap` is not a call.
    x.unwrap_or_default() + x.unwrap_or(unwrap)
}

fn debug_only_checks(a: usize, b: usize) {
    // Compiled out of release builds, so never a production panic.
    debug_assert!(a <= b);
    debug_assert_eq!(a % 2, 0);
    debug_assert_ne!(b, 0);
}
