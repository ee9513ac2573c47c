//! Error-correcting codes and the CIM fault-protection scheme of §6.
//!
//! Memory ECCs are not homomorphic over AND/OR, but Hamming, BCH and
//! friends *are* homomorphic over XOR (they are linear codes over GF(2)).
//! Count2Multiply exploits this by embedding every CIM masking operation
//! into a short sequence that also produces the XOR of its operands; the
//! XOR's parity can then be checked by ordinary row-level ECC hardware,
//! detecting faults in any of the intermediate results (§6.1, Fig. 12).
//!
//! Modules:
//!
//! * [`code`] — the [`code::LinearCode`] trait (encode / syndrome /
//!   correct) shared by all codes.
//! * [`parity`] — single-parity check code.
//! * [`hamming`] — Hamming SEC and SECDED (extended Hamming) codes,
//!   including the (72,64) configuration used on DDR ECC ranks.
//! * [`gf`] + [`bch`] — GF(2^m) arithmetic and binary BCH codes with
//!   Berlekamp–Massey decoding (t ≥ 1).
//! * [`rs`] — Reed–Solomon over GF(2^8): symbol-level burst correction
//!   with Berlekamp–Massey / Chien / Forney decoding, plus a bit-level
//!   [`LinearCode`] adapter.
//! * [`tmr`] — triple-modular-redundancy baseline (§3: ~4× op overhead,
//!   worse error rate than single-error-correcting schemes).
//! * [`protect`] — the XOR-embedding protection scheme: protected AND/OR
//!   (Fig. 12a, Fig. 13a), configurable FR re-checks, De Morgan fusing
//!   (§6.3), detect-and-recompute execution, and the closed-form Table 1
//!   error/detect-rate model.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bch;
pub mod code;
pub mod gf;
pub mod hamming;
pub mod parity;
pub mod protect;
pub mod rs;
pub mod tmr;

pub use code::LinearCode;
pub use hamming::{Hamming, Secded};
pub use parity::ParityCode;
pub use protect::{EccProtection, ProtectionAnalysis, ProtectionKind};
pub use rs::{ReedSolomon, RsLinear};
pub use tmr::TmrVoter;
