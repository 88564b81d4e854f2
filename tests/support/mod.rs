//! Helpers shared by the integration tests (each test file that uses them
//! declares `mod support;`).

use proptest::prelude::ProptestConfig;

/// `n` cases by default; a long run sets `PROPTEST_CASES`, which
/// `ProptestConfig::default()` reads.
pub fn cases(n: u32) -> u32 {
    match std::env::var_os("PROPTEST_CASES") {
        Some(_) => ProptestConfig::default().cases,
        None => n,
    }
}
