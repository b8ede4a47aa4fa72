//! From-scratch cryptographic primitives for the Obladi reproduction.
//!
//! The original system uses BouncyCastle for randomized encryption of ORAM
//! blocks and (in the malicious-server extension of Appendix A) MACs bound
//! to a trusted epoch counter for freshness.  This crate provides the same
//! functionality with self-contained implementations:
//!
//! * [`chacha20`] — the ChaCha20 stream cipher (RFC 8439 core);
//! * [`sha256`] — SHA-256;
//! * [`hmac`] — HMAC-SHA-256;
//! * [`kernels`] — the CPU-specific block functions (SHA extensions, AVX2)
//!   and the rule that selects them;
//! * [`envelope`] — an encrypt-then-MAC envelope that binds ciphertexts to a
//!   storage location and a freshness counter, plus fixed-size padding so
//!   every sealed ORAM block is indistinguishable from every other.
//!
//! The implementations follow the published algorithms and pass the standard
//! test vectors, but they have not been audited or hardened against side
//! channels; they exist so the reproduction exercises realistic CPU costs
//! (the `ParallelCrypto` series of Figure 10a) without pulling in
//! dependencies outside the allowed crate set.

#![warn(missing_docs)]
// Only `kernels` is exempt; CI greps every other file in the workspace for
// the keyword itself.
#![deny(unsafe_code)]

pub mod chacha20;
pub mod envelope;
pub mod hmac;
#[allow(unsafe_code)]
pub mod kernels;
pub mod keys;
mod random;
pub mod sha256;
#[cfg(test)]
mod test_util;

pub use chacha20::ChaCha20;
pub use envelope::{Envelope, SealedBlock};
pub use hmac::HmacSha256;
pub use keys::KeyMaterial;
pub use sha256::Sha256;
