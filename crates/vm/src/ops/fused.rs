//! The inlined fast path: fused dispatch for the hot opcodes.
//!
//! [`step_fused`] runs a micro-loop over the current thread's quantum. Each
//! iteration peeks the next opcode; the hot set — constants, local access,
//! stack shuffles, non-trapping arithmetic, conversions, comparisons,
//! branches/switches, and static field access — executes inline while the
//! current frame is borrowed exactly once, instead of re-borrowed for every
//! operand push/pop as in classic dispatch. Everything else (heap traffic,
//! calls, natives, division, monitors — anything that can allocate, throw,
//! block, or switch threads) bails to the classic [`Vm::step`] *before any
//! state is touched*, so the cold path re-decodes from a clean slate.
//!
//! Timing identity: hot arms run the same prologue (icount/budget/limit
//! checks), evaluate values through the same `ops::arith`/`ops::control`
//! helpers, and charge the machine with the same cost class, memory
//! references, and branch outcome as classic dispatch. The two loops are
//! cross-checked by the `differential` test (record and TDR replay) and
//! the determinism goldens.

use jbc::{Op, Program};
use machine::machine::map;

use super::{arith, charge, control};
use crate::error::VmError;
use crate::value::{Value, NULL};
use crate::vmcore::Vm;

/// Is `op` in the fused hot set (executable without allocation, throw,
/// block, or thread switch)?
#[inline]
fn is_hot(op: &Op) -> bool {
    use Op::*;
    matches!(
        op,
        Nop | IConst(_)
            | LConst(_)
            | DConst(_)
            | AConstNull
            | LdcStr(_)
            | ILoad(_)
            | LLoad(_)
            | DLoad(_)
            | ALoad(_)
            | IStore(_)
            | LStore(_)
            | DStore(_)
            | AStore(_)
            | IInc(_, _)
            | Pop
            | Dup
            | DupX1
            | Swap
            | IAdd
            | ISub
            | IMul
            | IAnd
            | IOr
            | IXor
            | IShl
            | IShr
            | IUShr
            | INeg
            | LAdd
            | LSub
            | LMul
            | LAnd
            | LOr
            | LXor
            | LShl
            | LShr
            | LUShr
            | LNeg
            | DAdd
            | DSub
            | DMul
            | DDiv
            | DRem
            | DNeg
            | I2L
            | I2D
            | L2I
            | L2D
            | D2I
            | D2L
            | I2B
            | I2C
            | I2S
            | LCmp
            | DCmpL
            | DCmpG
            | Goto(_)
            | IfEq(_)
            | IfNe(_)
            | IfLt(_)
            | IfGe(_)
            | IfGt(_)
            | IfLe(_)
            | IfICmpEq(_)
            | IfICmpNe(_)
            | IfICmpLt(_)
            | IfICmpGe(_)
            | IfICmpGt(_)
            | IfICmpLe(_)
            | IfACmpEq(_)
            | IfACmpNe(_)
            | IfNull(_)
            | IfNonNull(_)
            | TableSwitch { .. }
            | LookupSwitch { .. }
            | GetStatic(_)
            | PutStatic(_)
    )
}

/// Execute instructions of the current thread until its quantum expires or
/// a cold opcode is reached (which executes once via classic dispatch,
/// then returns to the outer scheduling loop).
pub(crate) fn step_fused(vm: &mut Vm, program: &Program) -> Result<(), VmError> {
    use Op::*;
    loop {
        if vm.budget == 0 {
            return Ok(());
        }
        let cur = vm.cur;
        let (method, ip) = {
            let f = vm.threads[cur]
                .frames
                .last()
                .expect("runnable thread has a frame");
            (program.method(f.method), f.ip)
        };
        let op = &method.code[ip as usize];
        if !is_hot(op) {
            // Cold: nothing has been mutated yet; classic dispatch redoes
            // the decode and owns the whole instruction.
            return vm.step(program);
        }

        // Prologue — identical to the classic step.
        vm.icount += 1;
        vm.budget -= 1;
        if vm.icount > vm.cfg.instr_limit {
            return Err(VmError::InstrLimit);
        }
        if vm.machine.now_cycles() > vm.cfg.cycle_limit {
            return Err(VmError::InstrLimit);
        }

        // One disjoint borrow of everything a hot opcode can touch.
        let Vm {
            threads,
            machine,
            cost,
            string_refs,
            statics,
            ..
        } = vm;
        let f = threads[cur]
            .frames
            .last_mut()
            .expect("runnable thread has a frame");
        let pc = method.code_base + 4 * ip as u64;
        let cls = op.class();
        let base = f.base_vaddr;
        // Pre-advance, exactly like classic dispatch (branch arms overwrite).
        f.ip = ip + 1;
        let stack = &mut f.stack;

        macro_rules! pop {
            () => {
                stack.pop().expect("verified stack depth")
            };
        }

        match op {
            Nop => charge(machine, cost, cls, pc, &[], None),
            IConst(v) => {
                stack.push(Value::I32(*v));
                charge(machine, cost, cls, pc, &[], None);
            }
            LConst(v) => {
                stack.push(Value::I64(*v));
                charge(machine, cost, cls, pc, &[], None);
            }
            DConst(v) => {
                stack.push(Value::F64(*v));
                charge(machine, cost, cls, pc, &[], None);
            }
            AConstNull => {
                stack.push(Value::Ref(NULL));
                charge(machine, cost, cls, pc, &[], None);
            }
            LdcStr(i) => {
                stack.push(Value::Ref(string_refs[*i as usize]));
                charge(machine, cost, cls, pc, &[], None);
            }

            ILoad(n) | LLoad(n) | DLoad(n) | ALoad(n) => {
                stack.push(f.locals[*n as usize]);
                charge(
                    machine,
                    cost,
                    cls,
                    pc,
                    &[(base + 8 * *n as u64, false)],
                    None,
                );
            }
            IStore(n) | LStore(n) | DStore(n) | AStore(n) => {
                let v = pop!();
                f.locals[*n as usize] = v;
                charge(
                    machine,
                    cost,
                    cls,
                    pc,
                    &[(base + 8 * *n as u64, true)],
                    None,
                );
            }
            IInc(n, d) => {
                let idx = *n as usize;
                let old = f.locals[idx].as_i32();
                f.locals[idx] = Value::I32(old.wrapping_add(*d as i32));
                let a = base + 8 * *n as u64;
                charge(machine, cost, cls, pc, &[(a, false), (a, true)], None);
            }

            Pop => {
                pop!();
                charge(machine, cost, cls, pc, &[], None);
            }
            Dup => {
                let v = *stack.last().expect("verified");
                stack.push(v);
                charge(machine, cost, cls, pc, &[], None);
            }
            DupX1 => {
                let a = pop!();
                let b = pop!();
                stack.push(a);
                stack.push(b);
                stack.push(a);
                charge(machine, cost, cls, pc, &[], None);
            }
            Swap => {
                let a = pop!();
                let b = pop!();
                stack.push(a);
                stack.push(b);
                charge(machine, cost, cls, pc, &[], None);
            }

            IAdd | ISub | IMul | IAnd | IOr | IXor | IShl | IShr | IUShr => {
                let b = pop!().as_i32();
                let a = pop!().as_i32();
                stack.push(Value::I32(arith::int_binop_val(op, a, b)));
                charge(machine, cost, cls, pc, &[], None);
            }
            INeg => {
                let a = pop!().as_i32();
                stack.push(Value::I32(a.wrapping_neg()));
                charge(machine, cost, cls, pc, &[], None);
            }
            LAdd | LSub | LMul | LAnd | LOr | LXor => {
                let b = pop!().as_i64();
                let a = pop!().as_i64();
                stack.push(Value::I64(arith::long_binop_val(op, a, b)));
                charge(machine, cost, cls, pc, &[], None);
            }
            LShl | LShr | LUShr => {
                let b = pop!().as_i32();
                let a = pop!().as_i64();
                stack.push(Value::I64(arith::long_shift_val(op, a, b)));
                charge(machine, cost, cls, pc, &[], None);
            }
            LNeg => {
                let a = pop!().as_i64();
                stack.push(Value::I64(a.wrapping_neg()));
                charge(machine, cost, cls, pc, &[], None);
            }
            DAdd | DSub | DMul | DDiv | DRem => {
                let b = pop!().as_f64();
                let a = pop!().as_f64();
                stack.push(Value::F64(arith::dbl_binop_val(op, a, b)));
                charge(machine, cost, cls, pc, &[], None);
            }
            DNeg => {
                let a = pop!().as_f64();
                stack.push(Value::F64(-a));
                charge(machine, cost, cls, pc, &[], None);
            }

            I2L | I2D | L2I | L2D | D2I | D2L | I2B | I2C | I2S => {
                let v = pop!();
                stack.push(arith::conv_val(op, v));
                charge(machine, cost, cls, pc, &[], None);
            }

            LCmp => {
                let b = pop!().as_i64();
                let a = pop!().as_i64();
                stack.push(Value::I32(arith::lcmp_val(a, b)));
                charge(machine, cost, cls, pc, &[], None);
            }
            DCmpL | DCmpG => {
                let b = pop!().as_f64();
                let a = pop!().as_f64();
                let nan = if matches!(op, DCmpL) { -1 } else { 1 };
                stack.push(Value::I32(arith::dcmp_val(a, b, nan)));
                charge(machine, cost, cls, pc, &[], None);
            }

            Goto(t) => {
                charge(
                    machine,
                    cost,
                    cls,
                    pc,
                    &[],
                    Some((true, method.code_base + 4 * *t as u64)),
                );
                f.ip = *t;
            }
            IfEq(t) | IfNe(t) | IfLt(t) | IfGe(t) | IfGt(t) | IfLe(t) => {
                let a = pop!().as_i32();
                let taken = control::if_zero_taken(op, a);
                charge(
                    machine,
                    cost,
                    cls,
                    pc,
                    &[],
                    Some((taken, method.code_base + 4 * *t as u64)),
                );
                if taken {
                    f.ip = *t;
                }
            }
            IfICmpEq(t) | IfICmpNe(t) | IfICmpLt(t) | IfICmpGe(t) | IfICmpGt(t) | IfICmpLe(t) => {
                let b = pop!().as_i32();
                let a = pop!().as_i32();
                let taken = control::if_icmp_taken(op, a, b);
                charge(
                    machine,
                    cost,
                    cls,
                    pc,
                    &[],
                    Some((taken, method.code_base + 4 * *t as u64)),
                );
                if taken {
                    f.ip = *t;
                }
            }
            IfACmpEq(t) | IfACmpNe(t) => {
                let b = pop!().as_ref();
                let a = pop!().as_ref();
                let taken = if matches!(op, IfACmpEq(_)) {
                    a == b
                } else {
                    a != b
                };
                charge(
                    machine,
                    cost,
                    cls,
                    pc,
                    &[],
                    Some((taken, method.code_base + 4 * *t as u64)),
                );
                if taken {
                    f.ip = *t;
                }
            }
            IfNull(t) | IfNonNull(t) => {
                let a = pop!().as_ref();
                let taken = (a == NULL) == matches!(op, IfNull(_));
                charge(
                    machine,
                    cost,
                    cls,
                    pc,
                    &[],
                    Some((taken, method.code_base + 4 * *t as u64)),
                );
                if taken {
                    f.ip = *t;
                }
            }
            TableSwitch {
                low,
                targets,
                default,
            } => {
                let k = pop!().as_i32();
                let t = control::table_switch_target(*low, targets, *default, k);
                charge(
                    machine,
                    cost,
                    cls,
                    pc,
                    &[],
                    Some((true, method.code_base + 4 * t as u64)),
                );
                f.ip = t;
            }
            LookupSwitch { pairs, default } => {
                let k = pop!().as_i32();
                let t = control::lookup_switch_target(pairs, *default, k);
                charge(
                    machine,
                    cost,
                    cls,
                    pc,
                    &[],
                    Some((true, method.code_base + 4 * t as u64)),
                );
                f.ip = t;
            }

            GetStatic(fid) => {
                let slot = program.field(*fid).slot as usize;
                stack.push(statics[slot]);
                charge(
                    machine,
                    cost,
                    cls,
                    pc,
                    &[(map::STATICS + 8 * slot as u64, false)],
                    None,
                );
            }
            PutStatic(fid) => {
                let v = pop!();
                let slot = program.field(*fid).slot as usize;
                statics[slot] = v;
                charge(
                    machine,
                    cost,
                    cls,
                    pc,
                    &[(map::STATICS + 8 * slot as u64, true)],
                    None,
                );
            }

            _ => unreachable!("cold opcode in fused hot path"),
        }
    }
}
