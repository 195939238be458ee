//! Heap traffic: object fields, statics, allocation, and typed arrays.

use jbc::{ElemTy, Op, OpClass, Program};
use machine::machine::map;

use crate::error::VmError;
use crate::heap::HeapObj;
use crate::value::{Handle, Value, NULL};
use crate::vmcore::Vm;

/// Which typed array op is executing (internal to the dispatcher).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ArrayKind {
    /// `byte[]`.
    I8,
    /// `char[]`.
    U16,
    /// `int[]`.
    I32,
    /// `long[]`.
    I64,
    /// `double[]`.
    F64,
    /// Reference arrays.
    Ref,
}

impl ArrayKind {
    /// The kind a typed array load or store opcode operates on.
    #[inline]
    pub(crate) fn of(op: &Op) -> ArrayKind {
        match op {
            Op::IALoad | Op::IAStore => ArrayKind::I32,
            Op::LALoad | Op::LAStore => ArrayKind::I64,
            Op::DALoad | Op::DAStore => ArrayKind::F64,
            Op::AALoad | Op::AAStore => ArrayKind::Ref,
            Op::BALoad | Op::BAStore => ArrayKind::I8,
            _ => ArrayKind::U16,
        }
    }

    /// The kind of array `obj` is, if it is one.
    #[inline]
    pub(crate) fn of_obj(obj: &HeapObj) -> Option<ArrayKind> {
        Some(match obj {
            HeapObj::ArrI8(_) => ArrayKind::I8,
            HeapObj::ArrU16(_) => ArrayKind::U16,
            HeapObj::ArrI32(_) => ArrayKind::I32,
            HeapObj::ArrI64(_) => ArrayKind::I64,
            HeapObj::ArrF64(_) => ArrayKind::F64,
            HeapObj::ArrRef(_) => ArrayKind::Ref,
            _ => return None,
        })
    }

    /// Element size in simulated bytes.
    #[inline]
    pub(crate) fn size(self) -> u64 {
        match self {
            ArrayKind::I8 => 1,
            ArrayKind::U16 => 2,
            ArrayKind::I32 => 4,
            ArrayKind::I64 | ArrayKind::F64 | ArrayKind::Ref => 8,
        }
    }
}

/// `New` — allocate an object (may GC, may throw OOM).
pub(crate) fn new_obj(
    vm: &mut Vm,
    program: &Program,
    c: jbc::ClassId,
    pc: u64,
    cls: OpClass,
) -> Result<(), VmError> {
    let nfields = program.class(c).layout.len();
    let h = vm.alloc_retry(|| HeapObj::Obj {
        class: c,
        fields: vec![Value::I32(0); nfields],
    })?;
    let header = vm.heap.header_addr(h);
    vm.push(Value::Ref(h));
    vm.charge(cls, pc, &[(header, true)], None);
    Ok(())
}

/// `GetField`.
pub(crate) fn get_field(
    vm: &mut Vm,
    program: &Program,
    fid: jbc::FieldId,
    pc: u64,
    cls: OpClass,
) -> Result<(), VmError> {
    let obj = vm.pop().as_ref();
    if obj == NULL {
        vm.charge(cls, pc, &[], None);
        return vm.throw_builtin(program, "NullPointerException");
    }
    let slot = program.field(fid).slot as usize;
    let v = match vm.heap.get(obj) {
        HeapObj::Obj { fields, .. } => fields[slot],
        _ => panic!("getfield on non-object"),
    };
    let addr = vm.heap.payload_addr(obj) + 8 * slot as u64;
    vm.push(v);
    vm.charge(cls, pc, &[(addr, false)], None);
    Ok(())
}

/// `PutField`.
pub(crate) fn put_field(
    vm: &mut Vm,
    program: &Program,
    fid: jbc::FieldId,
    pc: u64,
    cls: OpClass,
) -> Result<(), VmError> {
    let v = vm.pop();
    let obj = vm.pop().as_ref();
    if obj == NULL {
        vm.charge(cls, pc, &[], None);
        return vm.throw_builtin(program, "NullPointerException");
    }
    let slot = program.field(fid).slot as usize;
    match vm.heap.get_mut(obj) {
        HeapObj::Obj { fields, .. } => fields[slot] = v,
        _ => panic!("putfield on non-object"),
    }
    let addr = vm.heap.payload_addr(obj) + 8 * slot as u64;
    vm.charge(cls, pc, &[(addr, true)], None);
    Ok(())
}

/// `GetStatic`.
#[inline]
pub(crate) fn get_static(vm: &mut Vm, program: &Program, fid: jbc::FieldId, pc: u64, cls: OpClass) {
    let slot = program.field(fid).slot as usize;
    let v = vm.statics[slot];
    vm.push(v);
    vm.charge(cls, pc, &[(map::STATICS + 8 * slot as u64, false)], None);
}

/// `PutStatic`.
#[inline]
pub(crate) fn put_static(vm: &mut Vm, program: &Program, fid: jbc::FieldId, pc: u64, cls: OpClass) {
    let v = vm.pop();
    let slot = program.field(fid).slot as usize;
    vm.statics[slot] = v;
    vm.charge(cls, pc, &[(map::STATICS + 8 * slot as u64, true)], None);
}

/// `InstanceOf`.
pub(crate) fn instance_of(vm: &mut Vm, program: &Program, c: jbc::ClassId, pc: u64, cls: OpClass) {
    let obj = vm.pop().as_ref();
    let yes = obj != NULL
        && match vm.heap.get(obj) {
            HeapObj::Obj { class, .. } => program.is_subclass(*class, c),
            _ => false,
        };
    let header = if obj != NULL {
        vm.heap.header_addr(obj)
    } else {
        map::VMM
    };
    vm.push(Value::I32(yes as i32));
    vm.charge(cls, pc, &[(header, false)], None);
}

/// `CheckCast` — may throw `ClassCastException`.
pub(crate) fn check_cast(
    vm: &mut Vm,
    program: &Program,
    c: jbc::ClassId,
    pc: u64,
    cls: OpClass,
) -> Result<(), VmError> {
    let obj = vm.frame().stack.last().expect("verified").as_ref();
    let ok = obj == NULL
        || match vm.heap.get(obj) {
            HeapObj::Obj { class, .. } => program.is_subclass(*class, c),
            _ => false,
        };
    let header = if obj != NULL {
        vm.heap.header_addr(obj)
    } else {
        map::VMM
    };
    vm.charge(cls, pc, &[(header, false)], None);
    if !ok {
        vm.pop();
        return vm.throw_builtin(program, "ClassCastException");
    }
    Ok(())
}

/// `NewArray` — may GC, may throw.
pub(crate) fn new_array(
    vm: &mut Vm,
    program: &Program,
    et: ElemTy,
    pc: u64,
    cls: OpClass,
) -> Result<(), VmError> {
    let len = vm.pop().as_i32();
    vm.charge(cls, pc, &[], None);
    if len < 0 {
        return vm.throw_builtin(program, "NegativeArraySizeException");
    }
    let h = vm.alloc_retry(|| match et {
        ElemTy::I8 => HeapObj::ArrI8(vec![0; len as usize]),
        ElemTy::U16 => HeapObj::ArrU16(vec![0; len as usize]),
        ElemTy::I32 => HeapObj::ArrI32(vec![0; len as usize]),
        ElemTy::I64 => HeapObj::ArrI64(vec![0; len as usize]),
        ElemTy::F64 => HeapObj::ArrF64(vec![0.0; len as usize]),
        ElemTy::Ref => HeapObj::ArrRef(vec![NULL; len as usize]),
    })?;
    // Zeroing touches the payload like a streaming store.
    let bytes = vm.heap.get(h).byte_size();
    let payload = vm.heap.payload_addr(h);
    if bytes > 0 {
        vm.machine.bulk_touch(payload, bytes, true);
    }
    vm.push(Value::Ref(h));
    Ok(())
}

/// `ArrayLength`.
pub(crate) fn array_length(
    vm: &mut Vm,
    program: &Program,
    pc: u64,
    cls: OpClass,
) -> Result<(), VmError> {
    let arr = vm.pop().as_ref();
    if arr == NULL {
        vm.charge(cls, pc, &[], None);
        return vm.throw_builtin(program, "NullPointerException");
    }
    let len = vm.heap.get(arr).array_len().expect("array") as i32;
    let header = vm.heap.header_addr(arr);
    vm.push(Value::I32(len));
    vm.charge(cls, pc, &[(header, false)], None);
    Ok(())
}

/// Typed array load (`IALoad`..`CALoad`), after operands are popped.
pub(crate) fn array_load(
    vm: &mut Vm,
    program: &Program,
    kind: ArrayKind,
    arr: Handle,
    idx: i32,
    pc: u64,
    cls: OpClass,
) -> Result<(), VmError> {
    if arr == NULL {
        vm.charge(cls, pc, &[], None);
        return vm.throw_builtin(program, "NullPointerException");
    }
    let len = vm.heap.get(arr).array_len().expect("array");
    if idx < 0 || idx as usize >= len {
        vm.charge(cls, pc, &[], None);
        return vm.throw_builtin(program, "ArrayIndexOutOfBoundsException");
    }
    let i = idx as usize;
    let (v, esz) = match (kind, vm.heap.get(arr)) {
        (ArrayKind::I32, HeapObj::ArrI32(a)) => (Value::I32(a[i]), 4),
        (ArrayKind::I64, HeapObj::ArrI64(a)) => (Value::I64(a[i]), 8),
        (ArrayKind::F64, HeapObj::ArrF64(a)) => (Value::F64(a[i]), 8),
        (ArrayKind::Ref, HeapObj::ArrRef(a)) => (Value::Ref(a[i]), 8),
        (ArrayKind::I8, HeapObj::ArrI8(a)) => (Value::I32(a[i] as i32), 1),
        (ArrayKind::U16, HeapObj::ArrU16(a)) => (Value::I32(a[i] as i32), 2),
        other => panic!("array kind mismatch: {other:?}"),
    };
    let addr = vm.heap.payload_addr(arr) + esz * idx as u64;
    vm.push(v);
    vm.charge(cls, pc, &[(addr, false)], None);
    Ok(())
}

/// Typed array store (`IAStore`..`CAStore`), after operands are popped.
pub(crate) fn array_store(
    vm: &mut Vm,
    program: &Program,
    arr: Handle,
    idx: i32,
    val: Value,
    pc: u64,
    cls: OpClass,
) -> Result<(), VmError> {
    if arr == NULL {
        vm.charge(cls, pc, &[], None);
        return vm.throw_builtin(program, "NullPointerException");
    }
    let len = vm.heap.get(arr).array_len().expect("array");
    if idx < 0 || idx as usize >= len {
        vm.charge(cls, pc, &[], None);
        return vm.throw_builtin(program, "ArrayIndexOutOfBoundsException");
    }
    let i = idx as usize;
    let esz = match vm.heap.get_mut(arr) {
        HeapObj::ArrI32(a) => {
            a[i] = val.as_i32();
            4
        }
        HeapObj::ArrI64(a) => {
            a[i] = val.as_i64();
            8
        }
        HeapObj::ArrF64(a) => {
            a[i] = val.as_f64();
            8
        }
        HeapObj::ArrRef(a) => {
            a[i] = val.as_ref();
            8
        }
        HeapObj::ArrI8(a) => {
            a[i] = val.as_i32() as i8;
            1
        }
        HeapObj::ArrU16(a) => {
            a[i] = val.as_i32() as u16;
            2
        }
        other => panic!("array store on {other:?}"),
    };
    let addr = vm.heap.payload_addr(arr) + esz * idx as u64;
    vm.charge(cls, pc, &[(addr, true)], None);
    Ok(())
}
