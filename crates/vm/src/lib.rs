//! `vm` — the Sanity virtual machine: a deterministic JVM-like interpreter.
//!
//! This is the reproduction of the paper's from-scratch JVM (§4.1): an
//! interpreter for the `jbc` bytecode with dynamic memory management
//! (mark-sweep GC), class loading, exception handling, monitors, and a
//! native interface — executing against the simulated platform of the
//! `machine` crate so that every instruction, heap access, and buffer
//! operation produces faithful timing.
//!
//! TDR-relevant properties, mapped to the paper:
//!
//! * **Global instruction counter** (§3.2): [`Vm::icount`] identifies any
//!   point in the execution; every logged event carries it.
//! * **Deterministic multithreading** (§3.2): threads are scheduled
//!   round-robin with a fixed instruction budget; context switches recur at
//!   the same instruction counts in every execution and are not logged.
//! * **Deterministic GC** (§3.6): allocation and collection order depend
//!   only on the execution, never on host state.
//! * **Symmetric event capture** (§3.5): `nano_time` and packet polls go
//!   through the machine's ring buffers, which charge identical memory
//!   traffic during play and replay.
//!
//! The interpreter knows nothing about logs: recording and replay policy
//! live in the `replay` crate, which drives the VM through
//! [`ReplayStyle`] and the machine's phase.

#![warn(missing_docs)]

#[cfg(test)]
mod differential;
pub mod error;
pub mod heap;
pub mod natives;
mod ops;
pub mod value;
mod vmcore;

pub use error::VmError;
pub use heap::{GcStats, Heap, HeapObj};
pub use natives::{DelayModel, NativeKind, ScheduledDelays, TargetSendTimes};
pub use value::{Handle, Value, NULL};
pub use vmcore::{ExitKind, ReplayStyle, RunOutcome, Vm, VmConfig};
