//! Structural bytecode verifier.
//!
//! Runs a worklist dataflow over each method to check that:
//!
//! * every branch target and handler target is a valid instruction index;
//! * every local-variable index is within `max_locals`;
//! * the operand stack has a consistent depth at every instruction (the same
//!   join point is always reached with the same depth) and never underflows;
//! * control cannot fall off the end of the code array;
//! * call sites reference methods whose ids exist, with argument counts that
//!   fit the declared signature;
//! * id references (classes, fields, strings, natives) are in range.
//!
//! This is the analogue of JVM class-file verification, scoped to the checks
//! the interpreter relies on for panic-freedom. The VM still performs dynamic
//! checks (null dereference, bounds, cast, divide-by-zero) and raises
//! in-program exceptions for those.

use std::fmt;
use std::sync::Arc;

use crate::op::Op;
use crate::program::{MethodId, Program};

/// A verification failure, with the offending method and instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// The method that failed verification.
    pub method: MethodId,
    /// Instruction index within the method, if applicable.
    pub at: Option<u32>,
    /// Human-readable description.
    pub what: String,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.at {
            Some(i) => write!(f, "method #{} at {}: {}", self.method.0, i, self.what),
            None => write!(f, "method #{}: {}", self.method.0, self.what),
        }
    }
}

impl std::error::Error for VerifyError {}

/// Verify every method of `program`.
pub fn verify(program: &Program) -> Result<(), VerifyError> {
    for (i, _) in program.methods.iter().enumerate() {
        verify_method(program, MethodId(i as u16))?;
    }
    Ok(())
}

/// A program that passed [`verify`].
///
/// Only [`Verified::new`] makes one, and it runs the verifier, so holding
/// a `Verified` proves that this program object (immutable behind its
/// `Arc`) was checked. A consumer that loads the same program many times,
/// such as a worker replaying session after session against one
/// reference, verifies once and hands the handle on instead of
/// re-verifying per load.
#[derive(Debug, Clone)]
pub struct Verified(Arc<Program>);

impl Verified {
    /// Verify `program` and wrap it.
    pub fn new(program: Arc<Program>) -> Result<Verified, VerifyError> {
        verify(&program)?;
        Ok(Verified(program))
    }

    /// The verified program.
    pub fn program(&self) -> &Arc<Program> {
        &self.0
    }
}

fn err(method: MethodId, at: Option<u32>, what: impl Into<String>) -> VerifyError {
    VerifyError {
        method,
        at,
        what: what.into(),
    }
}

/// Verify a single method.
pub fn verify_method(program: &Program, mid: MethodId) -> Result<(), VerifyError> {
    let m = program.method(mid);
    let n = m.code.len();
    if n == 0 {
        return Err(err(mid, None, "empty code array"));
    }
    if m.max_locals < m.arg_slots() {
        return Err(err(mid, None, "max_locals smaller than argument slots"));
    }
    // Static structural checks per instruction.
    for (i, op) in m.code.iter().enumerate() {
        let at = Some(i as u32);
        for t in op.branch_targets() {
            if t as usize >= n {
                return Err(err(mid, at, format!("branch target {t} out of range")));
            }
        }
        check_ids(program, mid, i as u32, op)?;
        if let Some(l) = local_index(op) {
            if l >= m.max_locals {
                return Err(err(mid, at, format!("local {l} out of range")));
            }
        }
    }
    for h in &m.handlers {
        if h.start >= h.end || h.end as usize > n || h.target as usize >= n {
            return Err(err(mid, None, "malformed exception handler range"));
        }
        if let Some(c) = h.class {
            if c.0 as usize >= program.classes.len() {
                return Err(err(mid, None, "handler class id out of range"));
            }
        }
    }

    // Worklist dataflow on operand-stack depth.
    let mut depth_at: Vec<Option<i32>> = vec![None; n];
    let mut work: Vec<(u32, i32)> = vec![(0, 0)];
    for h in &m.handlers {
        // A handler is entered with exactly the thrown reference on stack.
        work.push((h.target, 1));
    }
    while let Some((pc, depth)) = work.pop() {
        let i = pc as usize;
        match depth_at[i] {
            Some(d) if d == depth => continue,
            Some(d) => {
                return Err(err(
                    mid,
                    Some(pc),
                    format!("inconsistent stack depth: {d} vs {depth}"),
                ));
            }
            None => depth_at[i] = Some(depth),
        }
        let op = &m.code[i];
        let (pops, pushes) = stack_effect(program, op);
        if depth < pops {
            return Err(err(
                mid,
                Some(pc),
                format!("stack underflow: depth {depth}, pops {pops}"),
            ));
        }
        let next = depth - pops + pushes;
        match op {
            Op::Return | Op::IReturn | Op::LReturn | Op::DReturn | Op::AReturn | Op::AThrow => {
                let want_ret =
                    matches!(op, Op::Return) == m.ret.is_none() || matches!(op, Op::AThrow);
                if !want_ret {
                    // A typed return in a void method (or vice versa) is only
                    // detectable when we know the signature.
                    let typed = !matches!(op, Op::Return | Op::AThrow);
                    if typed && m.ret.is_none() {
                        return Err(err(mid, Some(pc), "typed return in void method"));
                    }
                    if !typed && m.ret.is_some() {
                        return Err(err(mid, Some(pc), "void return in typed method"));
                    }
                }
                continue; // No fallthrough.
            }
            Op::Goto(t) => {
                work.push((*t, next));
                continue;
            }
            Op::TableSwitch { .. } | Op::LookupSwitch { .. } => {
                for t in op.branch_targets() {
                    work.push((t, next));
                }
                continue;
            }
            _ => {}
        }
        for t in op.branch_targets() {
            work.push((t, next));
        }
        if i + 1 >= n {
            return Err(err(mid, Some(pc), "control falls off end of code"));
        }
        work.push((pc + 1, next));
    }
    Ok(())
}

/// The slots `op` pops and then pushes: its row of the instruction table,
/// or for an invoke, the callee's signature.
fn stack_effect(program: &Program, op: &Op) -> (i32, i32) {
    if let Some(effect) = op.stack_effect() {
        return effect;
    }
    let (pops, ret) = match op {
        Op::InvokeStatic(m) => {
            let c = program.method(*m);
            (c.params.len() as i32, c.ret.is_some())
        }
        Op::InvokeVirtual(m) | Op::InvokeSpecial(m) => {
            let c = program.method(*m);
            (c.params.len() as i32 + 1, c.ret.is_some())
        }
        Op::InvokeNative(n) => {
            let d = &program.natives[n.0 as usize];
            (d.args as i32, d.ret)
        }
        _ => unreachable!("only an invoke's stack effect is the callee's"),
    };
    (pops, ret as i32)
}

fn local_index(op: &Op) -> Option<u16> {
    use Op::*;
    match op {
        ILoad(n)
        | LLoad(n)
        | DLoad(n)
        | ALoad(n)
        | IStore(n)
        | LStore(n)
        | DStore(n)
        | AStore(n)
        | IInc(n, _) => Some(*n),
        _ => None,
    }
}

fn check_ids(program: &Program, mid: MethodId, at: u32, op: &Op) -> Result<(), VerifyError> {
    use Op::*;
    let at = Some(at);
    match op {
        LdcStr(i) if *i as usize >= program.strings.len() => {
            return Err(err(mid, at, "string constant out of range"));
        }
        New(c) | InstanceOf(c) | CheckCast(c) if c.0 as usize >= program.classes.len() => {
            return Err(err(mid, at, "class id out of range"));
        }
        GetField(f) | PutField(f) => {
            let fi = f.0 as usize;
            if fi >= program.fields.len() {
                return Err(err(mid, at, "field id out of range"));
            }
            if program.fields[fi].is_static {
                return Err(err(mid, at, "instance access to static field"));
            }
        }
        GetStatic(f) | PutStatic(f) => {
            let fi = f.0 as usize;
            if fi >= program.fields.len() {
                return Err(err(mid, at, "field id out of range"));
            }
            if !program.fields[fi].is_static {
                return Err(err(mid, at, "static access to instance field"));
            }
        }
        InvokeStatic(m) | InvokeVirtual(m) | InvokeSpecial(m) => {
            if m.0 as usize >= program.methods.len() {
                return Err(err(mid, at, "method id out of range"));
            }
            let callee = program.method(*m);
            if matches!(op, InvokeStatic(_)) != callee.is_static {
                return Err(err(mid, at, "static/instance call mismatch"));
            }
        }
        InvokeNative(n) if n.0 as usize >= program.natives.len() => {
            return Err(err(mid, at, "native id out of range"));
        }
        _ => {}
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::program::Ty;

    fn build_single(
        code: impl FnOnce(&mut crate::builder::MethodAsm<'_>),
    ) -> Result<(), VerifyError> {
        let mut b = ProgramBuilder::new();
        let main = {
            let mut m = b.static_method("Main", "main", &[], None);
            code(&mut m);
            m.finish()
        };
        b.set_entry(main);
        let p = b.link().unwrap();
        verify(&p)
    }

    #[test]
    fn accepts_trivial_method() {
        assert!(build_single(|m| {
            m.op(Op::Return);
        })
        .is_ok());
    }

    #[test]
    fn rejects_fallthrough_off_end() {
        let e = build_single(|m| {
            m.op(Op::Nop);
        })
        .unwrap_err();
        assert!(e.what.contains("falls off end"), "{e}");
    }

    #[test]
    fn rejects_stack_underflow() {
        let e = build_single(|m| {
            m.op(Op::IAdd);
            m.op(Op::Return);
        })
        .unwrap_err();
        assert!(e.what.contains("underflow"), "{e}");
    }

    /// Every op with a fixed stack effect is refused with a stack
    /// underflow one operand short of its pops, and not with exactly its
    /// pops. Operands are the table's smallest, so every local, id and
    /// target is in range; field 0 is static only for the static ops.
    #[test]
    fn every_fixed_effect_op_underflows_one_operand_short() {
        let mut b = ProgramBuilder::new();
        let c = b.class("C", None);
        b.field(c, "f", Ty::I32);
        let main = {
            let mut m = b.static_method("Main", "main", &[], None);
            m.op(Op::Return);
            m.finish()
        };
        b.set_entry(main);
        let mut p = b.link().unwrap();
        p.strings.push("s".into());
        p.methods[main.0 as usize].max_locals = 1;
        let mut wrong = Vec::new();
        for op in crate::op::every_op(false) {
            let Some((pops, _)) = op.stack_effect() else {
                continue;
            };
            p.fields[0].is_static = matches!(op, Op::GetStatic(_) | Op::PutStatic(_));
            for pushed in pops.max(1) - 1..=pops {
                let code = &mut p.methods[main.0 as usize].code;
                *code = vec![Op::IConst(0); pushed as usize];
                code.extend([op.clone(), Op::Return]);
                let underflow =
                    matches!(verify(&p), Err(e) if e.what.starts_with("stack underflow"));
                if underflow != (pushed < pops) {
                    wrong.push(format!("{} after {pushed}", op.mnemonic()));
                }
            }
        }
        assert!(wrong.is_empty(), "{} wrong: {wrong:?}", wrong.len());
    }

    #[test]
    fn rejects_inconsistent_join_depth() {
        let e = build_single(|m| {
            let join = m.label();
            let end = m.label();
            m.op(Op::IConst(0));
            m.br(Op::IfEq, join); // Depth 0 at join via this edge.
            m.op(Op::IConst(1)); // Depth 1 falls into join.
            m.bind(join);
            m.op(Op::Nop);
            m.br(Op::Goto, end);
            m.bind(end);
            m.op(Op::Return);
        })
        .unwrap_err();
        assert!(e.what.contains("inconsistent"), "{e}");
    }

    #[test]
    fn rejects_typed_return_in_void_method() {
        let e = build_single(|m| {
            m.op(Op::IConst(3));
            m.op(Op::IReturn);
        })
        .unwrap_err();
        assert!(e.what.contains("typed return"), "{e}");
    }

    #[test]
    fn rejects_local_out_of_range() {
        let mut b = ProgramBuilder::new();
        let main = {
            let mut m = b.static_method("Main", "main", &[], None);
            m.op(Op::IConst(0));
            m.op(Op::IStore(3));
            m.op(Op::Return);
            m.finish()
        };
        b.set_entry(main);
        let mut p = b.link().unwrap();
        // Corrupt max_locals below what the code needs.
        p.methods[main.0 as usize].max_locals = 2;
        let e = verify(&p).unwrap_err();
        assert!(e.what.contains("local"), "{e}");
    }

    #[test]
    fn checks_call_arity_against_signature() {
        let mut b = ProgramBuilder::new();
        let callee = {
            let mut m = b.static_method("Main", "f", &[Ty::I32, Ty::I32], Some(Ty::I32));
            m.op(Op::ILoad(0));
            m.op(Op::IReturn);
            m.finish()
        };
        let main = {
            let mut m = b.static_method("Main", "main", &[], None);
            m.op(Op::IConst(1)); // Only one arg pushed; callee wants two.
            m.op(Op::InvokeStatic(callee));
            m.op(Op::Pop);
            m.op(Op::Return);
            m.finish()
        };
        b.set_entry(main);
        let p = b.link().unwrap();
        let e = verify(&p).unwrap_err();
        assert!(e.what.contains("underflow"), "{e}");
    }

    #[test]
    fn rejects_static_call_to_instance_method() {
        let mut b = ProgramBuilder::new();
        let c = b.class("C", None);
        let inst = {
            let mut m = b.instance_method(c, "f", &[], None);
            m.op(Op::Return);
            m.finish()
        };
        let main = {
            let mut m = b.static_method("Main", "main", &[], None);
            m.op(Op::InvokeStatic(inst));
            m.op(Op::Return);
            m.finish()
        };
        b.set_entry(main);
        let p = b.link().unwrap();
        let e = verify(&p).unwrap_err();
        assert!(e.what.contains("mismatch"), "{e}");
    }

    #[test]
    fn handler_entered_with_depth_one() {
        assert!(build_single(|m| {
            let h = m.label();
            let end = m.label();
            m.op(Op::IConst(1)); // 0
            m.op(Op::Pop); // 1
            m.br(Op::Goto, end); // 2
            m.bind(h);
            m.op(Op::Pop); // Exception ref on stack.
            m.bind(end);
            m.op(Op::Return);
            m.handler(0, 2, h, None);
        })
        .is_ok());
    }

    #[test]
    fn rejects_malformed_handler() {
        let e = build_single(|m| {
            let h = m.label();
            m.bind(h);
            m.op(Op::Return);
            m.handler(5, 2, h, None);
        })
        .unwrap_err();
        assert!(e.what.contains("handler"), "{e}");
    }
}
