//! Fixture: every panicking construct fires in production engine code, and
//! test regions are exempt (the `#[cfg(test)]` module below must stay silent).

fn production(x: Option<u32>, y: Option<u32>) -> u32 {
    let a = x.unwrap(); //~ ERROR no-panic-in-engines
    let b = y.expect("present"); //~ ERROR no-panic-in-engines
    if a + b > 10 {
        panic!("too big"); //~ ERROR no-panic-in-engines
    }
    todo!() //~ ERROR no-panic-in-engines
}

fn more_macros(kind: u8) {
    match kind {
        0 => unimplemented!(), //~ ERROR no-panic-in-engines
        _ => unreachable!(), //~ ERROR no-panic-in-engines
    }
}

fn asserts(a: usize, b: usize) {
    assert!(a > 0, "need atoms"); //~ ERROR no-panic-in-engines
    assert_eq!(a, b); //~ ERROR no-panic-in-engines
    assert_ne!(a, 17); //~ ERROR no-panic-in-engines
}

#[cfg(test)]
mod tests {
    // Test code may unwrap and assert freely: none of these fire.
    fn in_tests(x: Option<u32>) -> u32 {
        assert_eq!(x, Some(1));
        x.unwrap() + x.expect("still fine")
    }
}
