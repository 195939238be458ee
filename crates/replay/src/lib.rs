//! `replay` — recording and replaying executions.
//!
//! Implements the deterministic-replay layer of the paper (§3.2) and the
//! three ways an execution can be reproduced:
//!
//! * [`replay_tdr`] — **time-deterministic replay**: events are injected at
//!   their recorded instruction counts, waits reproduce the logged arrival
//!   cycles, and the machine's symmetric-access discipline keeps the TC's
//!   control flow and memory traffic identical to play. Timing should match
//!   play to within the bus-jitter noise floor.
//! * [`replay_functional`] — the **XenTT-style baseline**: functionally
//!   correct replay that skips idle waits and pays asymmetric record/inject
//!   costs, on an ordinary (noisy, unflushed) host. This is the Fig. 3
//!   strawman.
//! * [`audit_replay`] — the covert-channel detector's mode (§5.3): the
//!   *inputs* from the log are re-delivered at their recorded wire-arrival
//!   cycles to a **known-good binary** on a reference machine; the output
//!   timing is what the timing of the suspect machine *ought to have been*.
//!
//! [`EventLog`] is the serializable log; [`LogStats`] reproduces the §6.5
//! accounting (log growth rate, share of incoming packets). The [`codec`]
//! module adds the compact binary encoding the audit pipeline ingests
//! ([`EventLog::encode`] / [`EventLog::decode`]), and [`stream`] reads
//! length-prefixed frames from any `io::Read` source in bounded memory.
//! The wire formats are specified in `docs/FORMATS.md` at the repository
//! root.

#![warn(missing_docs)]

pub mod codec;
pub mod log;
pub mod session;
pub mod stream;

pub use codec::CodecError;
pub use log::{EventLog, LogStats, PacketRecord};
pub use session::{audit_replay, record, replay_functional, replay_tdr, Recorded, SessionError};
pub use stream::StreamError;
