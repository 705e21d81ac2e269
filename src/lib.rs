//! Branch Vanguard facade crate.

/// The README, whose two `rust` library-tour blocks compile (without
/// running) as doctests of this crate, so they keep building against the
/// current API.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;
