//! Categorized opcode handlers — the bodies of the interpreter's dispatch
//! loop, split by operational category (the raya-style layout).
//!
//! [`crate::vmcore::Vm::step`] stays the single decode point: it matches
//! the opcode once and delegates to a handler here, so classic dispatch
//! pays no extra indirection. The [`fused`] module adds the inlined fast
//! path for the hot arithmetic/local/control opcodes and for array loads
//! and stores that cannot throw: one borrow of the current frame per run
//! of hot instructions instead of one per operand access, with anything
//! complex (object fields, allocation, calls, natives, potential throws)
//! bailing to the classic handlers *before* any state is mutated.
//!
//! Every handler charges the machine exactly like the pre-split dispatch
//! loop did — same cost class, same memory references, same branch
//! outcome — so cycle counts are bit-identical by construction (pinned by
//! `tests/determinism_goldens.rs`).

pub(crate) mod arith;
pub(crate) mod control;
pub(crate) mod fused;
pub(crate) mod heap;
pub(crate) mod invoke;
pub(crate) mod locals;

use jbc::OpClass;
use machine::Machine;
use sim_core::{CostModel, Cycles};

/// Base cycle cost of one instruction of `class` (dispatch + class cost).
#[inline]
pub(crate) fn op_cost(c: &CostModel, class: OpClass) -> Cycles {
    c.dispatch
        + match class {
            OpClass::Const => c.const_op,
            OpClass::Local => c.local,
            OpClass::Stack => c.stack,
            OpClass::AluInt => c.alu_int,
            OpClass::MulInt => c.mul_int,
            OpClass::DivInt => c.div_int,
            OpClass::AluFp => c.alu_fp,
            OpClass::MulFp => c.mul_fp,
            OpClass::DivFp => c.div_fp,
            OpClass::Conv => c.conv,
            OpClass::Branch => c.branch,
            OpClass::HeapLoad => c.heap_load,
            OpClass::HeapStore => c.heap_store,
            OpClass::Alloc => c.alloc,
            OpClass::Call => c.call,
            OpClass::Native => c.native,
            OpClass::Throw => c.throw,
            OpClass::Monitor => c.monitor,
        }
}

/// Charge one instruction to the machine: timing-identical to the classic
/// `Vm::charge`, callable while the VM's fields are disjointly borrowed.
#[inline]
pub(crate) fn charge(
    machine: &mut Machine,
    cost: &CostModel,
    class: OpClass,
    pc_vaddr: u64,
    refs: &[(u64, bool)],
    branch: Option<(bool, u64)>,
) {
    machine.step_instr(op_cost(cost, class), pc_vaddr, refs, branch);
}
