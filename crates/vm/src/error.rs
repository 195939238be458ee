//! VM-level errors (as opposed to in-program exceptions).

use std::fmt;

/// A terminal VM failure.
///
/// In-program exceptions (`athrow`, divide-by-zero, …) unwind through the
/// program's handler tables; only an exception that escapes `main`, or a
/// resource/structural failure, surfaces as a `VmError`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VmError {
    /// An exception reached the top of a thread's stack uncaught.
    UncaughtException {
        /// Class name of the thrown object.
        class: String,
    },
    /// The heap could not satisfy an allocation even after collection.
    OutOfMemory,
    /// Call depth exceeded the configured limit.
    StackOverflow,
    /// The configured instruction limit was reached (runaway guard).
    InstrLimit,
    /// All threads are blocked on monitors.
    Deadlock,
    /// The program referenced a native not provided by this VM.
    UnknownNative(String),
    /// Structural problem detected at load time.
    Load(String),
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::UncaughtException { class } => write!(f, "uncaught exception: {class}"),
            VmError::OutOfMemory => write!(f, "out of memory"),
            VmError::StackOverflow => write!(f, "stack overflow"),
            VmError::InstrLimit => write!(f, "instruction limit reached"),
            VmError::Deadlock => write!(f, "all threads blocked"),
            VmError::UnknownNative(n) => write!(f, "unknown native: {n}"),
            VmError::Load(s) => write!(f, "load error: {s}"),
        }
    }
}

impl std::error::Error for VmError {}

impl From<jbc::VerifyError> for VmError {
    fn from(e: jbc::VerifyError) -> Self {
        VmError::Load(e.to_string())
    }
}
