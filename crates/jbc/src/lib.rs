//! `jbc` — a Java-like stack bytecode.
//!
//! This crate defines the instruction set, class model, and tooling for the
//! bytecode that the Sanity VM executes. It plays the role of JVM bytecode in
//! the OSDI'14 paper *Detecting Covert Timing Channels with
//! Time-Deterministic Replay*: a simple, interrupt-free, stack-based ISA in
//! which a single global instruction counter identifies any point in an
//! execution (paper §3.2).
//!
//! The crate is deliberately self-contained and side-effect free: it knows
//! nothing about timing, replay, or the platform. It provides:
//!
//! * [`Op`] — the instruction set (113 opcodes mirroring the JVM's
//!   structure: constants, locals, operand-stack manipulation, arithmetic,
//!   control flow, objects, arrays, calls, exceptions, monitors), each
//!   described by one row of the instruction table in [`op`];
//! * [`Program`], [`Class`], [`Method`], [`Field`] — the linked program
//!   model (the equivalent of a loaded set of class files);
//! * [`ProgramBuilder`] / [`MethodAsm`] — a label-based assembler API;
//! * [`mod@verify`] — a structural verifier (branch targets, local indices,
//!   operand-stack discipline), and [`Verified`], the handle that proves a
//!   program passed it;
//! * [`hll`] — a miniature structured front-end (expressions, statements,
//!   functions) that compiles to bytecode, used to author the paper's
//!   workloads (SciMark2, the NFS server) without hand-writing stack code.
//!
//! # Simplifications relative to real JVM bytecode
//!
//! * `long`/`double` occupy a single operand-stack slot (no category-2
//!   values), so `pop2`/`dup2` variants are omitted.
//! * There is one flat constant pool per [`Program`] rather than one per
//!   class.
//! * Method resolution is by name along the superclass chain, with vtables
//!   computed at link time.
//!
//! None of these simplifications affect the properties TDR relies on: the
//! ISA remains deterministic, interrupt-free, and indexable by a global
//! instruction counter.
//!
//! Since the reference-registry work, programs also have a wire form:
//! [`container`] defines **TDRP**, the sealed, hash-addressed container
//! (`docs/FORMATS.md` §7) in which a program travels to an audit daemon.
//! A program's [`ReferenceId`] is the SHA-256 digest of its canonical
//! encoding, so registry ids are self-certifying. [`crc`] holds the one
//! CRC-32 implementation every wire format shares, and [`wire`] the one
//! set of varint, zigzag, delta and slice-cursor primitives.

#![warn(missing_docs)]

pub mod builder;
pub mod container;
pub mod crc;
pub mod disasm;
pub mod hll;
pub mod op;
pub mod program;
pub mod verify;
pub mod wire;

pub use builder::{Label, MethodAsm, ProgramBuilder};
pub use container::{ContainerError, ReferenceId};
pub use op::{ElemTy, Op, OpClass};
pub use program::{
    Class, ClassId, Field, FieldId, Handler, Method, MethodId, NativeDecl, NativeId, Program, Ty,
};
pub use verify::{verify, Verified, VerifyError};
