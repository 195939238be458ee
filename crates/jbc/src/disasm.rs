//! Disassembler: human-readable listings of methods and programs.

use std::fmt::Write as _;

use crate::op::Op;
use crate::program::{MethodId, Program};

/// Render one instruction, resolving ids against `program` when possible.
/// Every op without ids lists as the instruction table shows it.
pub fn format_op(program: &Program, op: &Op) -> String {
    use Op::*;
    match op {
        LdcStr(i) => format!("ldc_str {:?}", program.strings[*i as usize]),
        New(c) => format!("new {}", program.class(*c).name),
        GetField(f) => format!("getfield {}", qualified_field(program, *f)),
        PutField(f) => format!("putfield {}", qualified_field(program, *f)),
        GetStatic(f) => format!("getstatic {}", qualified_field(program, *f)),
        PutStatic(f) => format!("putstatic {}", qualified_field(program, *f)),
        InstanceOf(c) => format!("instanceof {}", program.class(*c).name),
        CheckCast(c) => format!("checkcast {}", program.class(*c).name),
        InvokeStatic(m) => format!("invokestatic {}", qualified_method(program, *m)),
        InvokeVirtual(m) => format!("invokevirtual {}", qualified_method(program, *m)),
        InvokeSpecial(m) => format!("invokespecial {}", qualified_method(program, *m)),
        InvokeNative(n) => format!("invokenative {}", program.natives[n.0 as usize].name),
        other => other.listing(),
    }
}

fn qualified_method(program: &Program, m: MethodId) -> String {
    let mm = program.method(m);
    format!("{}.{}", program.class(mm.owner).name, mm.name)
}

fn qualified_field(program: &Program, f: crate::program::FieldId) -> String {
    let ff = program.field(f);
    format!("{}.{}", program.class(ff.owner).name, ff.name)
}

/// Render a full listing of one method.
pub fn disassemble_method(program: &Program, mid: MethodId) -> String {
    let m = program.method(mid);
    let mut out = String::new();
    let kind = if m.is_static { "static " } else { "" };
    let _ = writeln!(
        out,
        "{}{}.{}({:?}) -> {:?}  [locals={}, base={:#x}]",
        kind,
        program.class(m.owner).name,
        m.name,
        m.params,
        m.ret,
        m.max_locals,
        m.code_base
    );
    for (i, op) in m.code.iter().enumerate() {
        let _ = writeln!(out, "  {i:4}: {}", format_op(program, op));
    }
    for h in &m.handlers {
        let _ = writeln!(
            out,
            "  handler [{}, {}) -> {} class={:?}",
            h.start, h.end, h.target, h.class
        );
    }
    out
}

/// Render a full listing of every method in the program.
pub fn disassemble(program: &Program) -> String {
    let mut out = String::new();
    for i in 0..program.methods.len() {
        out.push_str(&disassemble_method(program, MethodId(i as u16)));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;

    #[test]
    fn listing_contains_mnemonics_and_targets() {
        let mut b = ProgramBuilder::new();
        let main = {
            let mut m = b.static_method("Main", "main", &[], None);
            let end = m.label();
            m.op(Op::IConst(42));
            m.br(Op::IfEq, end);
            m.bind(end);
            m.op(Op::Return);
            m.finish()
        };
        b.set_entry(main);
        let p = b.link().unwrap();
        let text = disassemble(&p);
        assert!(text.contains("iconst 42"));
        assert!(text.contains("ifeq -> 2"));
        assert!(text.contains("Main.main"));
    }

    #[test]
    fn listing_resolves_names() {
        let mut b = ProgramBuilder::new();
        let c = b.class("Point", None);
        let fx = b.field(c, "x", crate::Ty::I32);
        let main = {
            let mut m = b.static_method("Main", "main", &[], None);
            m.op(Op::New(c));
            m.op(Op::Dup);
            m.op(Op::IConst(1));
            m.op(Op::PutField(fx));
            m.op(Op::Pop);
            m.op(Op::Return);
            m.finish()
        };
        b.set_entry(main);
        let p = b.link().unwrap();
        let text = disassemble(&p);
        assert!(text.contains("new Point"));
        assert!(text.contains("putfield Point.x"));
    }
}
