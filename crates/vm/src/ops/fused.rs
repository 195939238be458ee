//! The inlined fast path: fused dispatch for the hot opcodes.
//!
//! [`step_fused`] runs a micro-loop over the current thread's quantum. It
//! looks up the current frame and its method once per call, not once per
//! instruction: no hot opcode changes the frame or the thread. Each
//! iteration peeks the next opcode; the hot set — constants, local access,
//! stack shuffles, non-trapping arithmetic, conversions, comparisons,
//! branches/switches, static field access, and array loads and stores
//! (`IALoad` … `CAStore`) — executes inline on that one borrow of the
//! frame, instead of re-borrowing it for every operand push/pop as in
//! classic dispatch. An array access is hot only once its operands, read in
//! place, show a non-null array of the opcode's kind and an index in
//! bounds; a null array or a bad index throws, so it goes to classic
//! dispatch, which charges and counts the throw exactly as it always has.
//! Everything else (object fields, allocation, calls, natives, division,
//! monitors — anything that can allocate, throw, block, or switch threads)
//! bails to the classic [`Vm::step`] *before any state is touched*, so the
//! cold path re-decodes from a clean slate.
//!
//! Timing identity: hot arms run the same prologue (icount/budget/limit
//! checks), evaluate values through the same `ops::arith`/`ops::control`
//! helpers, and charge the machine with the same cost class, memory
//! references, and branch outcome as classic dispatch. The two loops are
//! cross-checked by the `differential` test (record and TDR replay) and
//! the determinism goldens.

use jbc::{Op, Program};
use machine::machine::map;

use super::heap::ArrayKind;
use super::{arith, charge, control};
use crate::error::VmError;
use crate::heap::{Heap, HeapObj};
use crate::value::{Value, NULL};
use crate::vmcore::Vm;

/// Is `op` in the fused hot set (executable without allocation, throw,
/// block, or thread switch)? Array loads and stores are not listed: they
/// are hot only when their operands rule out a throw ([`array_elem`]).
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
    if run_hot(vm, program)? {
        // Cold: nothing has been mutated yet; classic dispatch redoes the
        // decode and owns the whole instruction.
        vm.step(program)
    } else {
        Ok(())
    }
}

/// The index and simulated address of the element that an array load or
/// store of `kind` at the top of `stack` reaches, or `None` if classic
/// dispatch must run it: a null array, an index out of bounds (both
/// throw) or an array of another kind. `depth` is the number of operands:
/// 2 for a load (`arr, idx`), 3 for a store (`arr, idx, val`). Reads only.
#[inline]
fn array_elem(heap: &Heap, stack: &[Value], depth: usize, kind: ArrayKind) -> Option<(usize, u64)> {
    let at = stack.len() - depth;
    let arr = stack[at].as_ref();
    let idx = stack[at + 1].as_i32();
    if arr == NULL {
        return None;
    }
    let obj = heap.get(arr);
    if ArrayKind::of_obj(obj) != Some(kind) || idx < 0 || idx as usize >= obj.array_len()? {
        return None;
    }
    Some((
        idx as usize,
        heap.payload_addr(arr) + kind.size() * idx as u64,
    ))
}

/// Run hot instructions of the current frame until the quantum expires
/// (`Ok(false)`) or the next instruction must go through classic dispatch
/// (`Ok(true)`).
fn run_hot(vm: &mut Vm, program: &Program) -> Result<bool, VmError> {
    use Op::*;
    // One disjoint borrow of everything a hot opcode can touch, and one
    // frame and method lookup for the whole run: no hot opcode changes the
    // frame or the thread.
    let Vm {
        threads,
        machine,
        cost,
        cfg,
        heap,
        string_refs,
        statics,
        cur,
        budget,
        icount,
        ..
    } = vm;
    let f = threads[*cur]
        .frames
        .last_mut()
        .expect("runnable thread has a frame");
    let method = program.method(f.method);
    let base = f.base_vaddr;
    loop {
        if *budget == 0 {
            return Ok(false);
        }
        let ip = f.ip;
        let op = &method.code[ip as usize];
        // Array access is hot only when it cannot throw: the check reads
        // the operands in place, so a throwing access reaches classic
        // dispatch untouched and charges and counts exactly as there.
        let elem = match op {
            IALoad | LALoad | DALoad | AALoad | BALoad | CALoad => {
                array_elem(heap, &f.stack, 2, ArrayKind::of(op))
            }
            IAStore | LAStore | DAStore | AAStore | BAStore | CAStore => {
                array_elem(heap, &f.stack, 3, ArrayKind::of(op))
            }
            _ if is_hot(op) => Some((0, 0)),
            _ => None,
        };
        let Some((elem_index, elem_addr)) = elem else {
            return Ok(true);
        };

        // Prologue — identical to the classic step.
        *icount += 1;
        *budget -= 1;
        if *icount > cfg.instr_limit {
            return Err(VmError::InstrLimit);
        }
        if machine.now_cycles() > cfg.cycle_limit {
            return Err(VmError::InstrLimit);
        }

        let pc = method.code_base + 4 * ip as u64;
        let cls = op.class();
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

            IALoad | LALoad | DALoad | AALoad | BALoad | CALoad => {
                let i = elem_index;
                pop!();
                let arr = pop!().as_ref();
                stack.push(match heap.get(arr) {
                    HeapObj::ArrI32(a) => Value::I32(a[i]),
                    HeapObj::ArrI64(a) => Value::I64(a[i]),
                    HeapObj::ArrF64(a) => Value::F64(a[i]),
                    HeapObj::ArrRef(a) => Value::Ref(a[i]),
                    HeapObj::ArrI8(a) => Value::I32(a[i] as i32),
                    HeapObj::ArrU16(a) => Value::I32(a[i] as i32),
                    other => unreachable!("checked array kind: {other:?}"),
                });
                charge(machine, cost, cls, pc, &[(elem_addr, false)], None);
            }
            IAStore | LAStore | DAStore | AAStore | BAStore | CAStore => {
                let i = elem_index;
                let val = pop!();
                pop!();
                let arr = pop!().as_ref();
                match heap.get_mut(arr) {
                    HeapObj::ArrI32(a) => a[i] = val.as_i32(),
                    HeapObj::ArrI64(a) => a[i] = val.as_i64(),
                    HeapObj::ArrF64(a) => a[i] = val.as_f64(),
                    HeapObj::ArrRef(a) => a[i] = val.as_ref(),
                    HeapObj::ArrI8(a) => a[i] = val.as_i32() as i8,
                    HeapObj::ArrU16(a) => a[i] = val.as_i32() as u16,
                    other => unreachable!("checked array kind: {other:?}"),
                }
                charge(machine, cost, cls, pc, &[(elem_addr, true)], None);
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
