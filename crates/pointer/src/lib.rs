//! # vc-pointer — field-sensitive Andersen's pointer analysis
//!
//! The SVF substitute of the ValueCheck reproduction. Provides:
//!
//! - [`andersen::PointsTo`] — inclusion-based, field-sensitive points-to
//!   analysis with on-the-fly call-graph construction (function pointers
//!   resolve during solving, as the paper's indirect-call handling requires);
//! - [`demand::DemandPointer`] — the same solve run on demand, one
//!   pointer-closed component at a time, to resolve indirect callees.
//!
//! Aliased definitions (§4.1, "Pointer and Alias") need no pointer query:
//! a local enters a points-to set only through `&x`, so detection's
//! address-taken escape set already covers every local a pointer can read.

pub mod andersen;
pub mod demand;
pub mod fasthash;
pub mod node;

pub use andersen::{
    Config,
    PointsTo, //
};
pub use demand::DemandPointer;
pub use node::MemObj;
