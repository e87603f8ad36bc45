//! # vc-ir — MiniC frontend and load/store IR
//!
//! The compilation substrate for the ValueCheck reproduction. The paper
//! analyses LLVM bitcode compiled with `-O0 -fno-inline`; this crate provides
//! the equivalent: a C-like language (MiniC) lowered to a load/store IR where
//!
//! - every named local occupies a stack slot,
//! - reads are [`ir::Inst::Load`]s and writes are [`ir::Inst::Store`]s,
//! - struct fields of local aggregates are separately addressable
//!   ([`ir::Place::Field`], the paper's `v#n` naming),
//! - parameters are spilled to slots at entry so overwritten arguments are
//!   visible as dead stores,
//! - ignored call results become stores to synthetic slots
//!   (`[tmp] = printf(...)`).
//!
//! The pipeline is [`parser::parse_recovering`] →
//! [`program::Program::build_recovering`] → per-function [`ir::Function`]s
//! with [`cfg::Cfg`]s. Recovery is the only mode: a corrupted region costs
//! only its statement or item, and every diagnostic is collected.

pub mod ast;
pub mod cfg;
pub mod ir;
pub mod lexer;
pub mod lower;
pub mod parser;
pub mod pretty;
pub mod program;
pub mod span;
pub mod testing;
pub mod token;
pub mod types;
pub mod validate;

pub use ir::{
    BlockId,
    FuncId,
    Function,
    LocalId,
    Place,
    StoreInfo,
    TempId,
    VarKey, //
};
pub use program::Program;
pub use span::{
    FileId,
    LineCol,
    Span, //
};
