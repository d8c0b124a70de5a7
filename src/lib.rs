//! Umbrella crate for the `turbulence` workspace: hosts the cross-crate
//! integration tests. See the individual `turb-*` crates and the
//! `turbulence` core crate for the library API.

pub use turbulence as core;
