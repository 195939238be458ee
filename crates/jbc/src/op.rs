//! The instruction set.
//!
//! Each variant of [`Op`] is one bytecode instruction. Branch targets are
//! absolute indices into the owning method's code array (the builder resolves
//! labels to indices). For timing purposes every instruction is considered to
//! occupy four bytes of the simulated instruction stream, so the fetch
//! address of instruction `i` in a method with code base `b` is `b + 4 * i`.
//!
//! What else there is to know about an opcode — its TDRP byte and operand
//! layout, its mnemonic, its [`OpClass`] and its stack effect — is one
//! row of the instruction table (`instructions!` below), from which every
//! per-opcode match in this crate is generated.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::container::{ContainerError, Wire};
use crate::program::{ClassId, FieldId, MethodId, NativeId};
use crate::wire::Cursor;

/// Element type of a primitive or reference array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ElemTy {
    /// 8-bit signed integers (`byte[]`).
    I8,
    /// 16-bit unsigned integers (`char[]`).
    U16,
    /// 32-bit signed integers (`int[]`).
    I32,
    /// 64-bit signed integers (`long[]`).
    I64,
    /// 64-bit IEEE-754 floats (`double[]`).
    F64,
    /// Object references.
    Ref,
}

impl ElemTy {
    /// Size in bytes of one element in the simulated heap.
    pub fn byte_size(self) -> u32 {
        match self {
            ElemTy::I8 => 1,
            ElemTy::U16 => 2,
            ElemTy::I32 => 4,
            ElemTy::I64 | ElemTy::F64 | ElemTy::Ref => 8,
        }
    }
}

/// A coarse classification of opcodes used by the timing model.
///
/// The in-order core model (crate `sim-core`) assigns a base cycle cost per
/// class; the memory hierarchy adds the data-dependent part.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpClass {
    /// No-ops and constants pushed from the instruction stream.
    Const,
    /// Local variable loads/stores (register-file-like accesses).
    Local,
    /// Pure operand-stack shuffling.
    Stack,
    /// Integer ALU operations.
    AluInt,
    /// Integer multiply.
    MulInt,
    /// Integer divide/remainder.
    DivInt,
    /// Floating-point add/sub/neg/compare.
    AluFp,
    /// Floating-point multiply.
    MulFp,
    /// Floating-point divide/remainder.
    DivFp,
    /// Conversions between numeric types.
    Conv,
    /// Control transfer (branches, switches, goto).
    Branch,
    /// Heap loads (fields, array elements).
    HeapLoad,
    /// Heap stores (fields, array elements).
    HeapStore,
    /// Object/array allocation.
    Alloc,
    /// Method invocation and return.
    Call,
    /// Exception throw.
    Throw,
    /// Monitor enter/exit.
    Monitor,
    /// Native call (cost modeled by the native itself).
    Native,
}

/// One bytecode instruction.
///
/// The set mirrors the JVM's structure: a stack machine with typed
/// arithmetic, local variables, field/array access, virtual dispatch, and
/// structured exception handling — and, like the JVM, no interrupts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Op {
    // --- Constants -----------------------------------------------------
    /// Do nothing.
    Nop,
    /// Push a 32-bit integer constant.
    IConst(i32),
    /// Push a 64-bit integer constant.
    LConst(i64),
    /// Push a 64-bit float constant.
    DConst(f64),
    /// Push the null reference.
    AConstNull,
    /// Push a reference to interned string constant `n` from the pool.
    LdcStr(u16),

    // --- Locals --------------------------------------------------------
    /// Push `int` local `n`.
    ILoad(u16),
    /// Push `long` local `n`.
    LLoad(u16),
    /// Push `double` local `n`.
    DLoad(u16),
    /// Push reference local `n`.
    ALoad(u16),
    /// Pop an `int` into local `n`.
    IStore(u16),
    /// Pop a `long` into local `n`.
    LStore(u16),
    /// Pop a `double` into local `n`.
    DStore(u16),
    /// Pop a reference into local `n`.
    AStore(u16),
    /// Add the immediate to `int` local `n` without touching the stack.
    IInc(u16, i16),

    // --- Operand stack -------------------------------------------------
    /// Discard the top of stack.
    Pop,
    /// Duplicate the top of stack.
    Dup,
    /// Duplicate the top of stack and insert it below the second slot.
    DupX1,
    /// Swap the two top slots.
    Swap,

    // --- Integer (i32) arithmetic ---------------------------------------
    /// `int` addition (wrapping).
    IAdd,
    /// `int` subtraction (wrapping).
    ISub,
    /// `int` multiplication (wrapping).
    IMul,
    /// `int` division; throws `ArithmeticException` on divide-by-zero.
    IDiv,
    /// `int` remainder; throws `ArithmeticException` on divide-by-zero.
    IRem,
    /// `int` negation.
    INeg,
    /// `int` shift left (count masked to 5 bits).
    IShl,
    /// `int` arithmetic shift right.
    IShr,
    /// `int` logical shift right.
    IUShr,
    /// `int` bitwise and.
    IAnd,
    /// `int` bitwise or.
    IOr,
    /// `int` bitwise xor.
    IXor,

    // --- Long (i64) arithmetic ------------------------------------------
    /// `long` addition (wrapping).
    LAdd,
    /// `long` subtraction (wrapping).
    LSub,
    /// `long` multiplication (wrapping).
    LMul,
    /// `long` division; throws on divide-by-zero.
    LDiv,
    /// `long` remainder; throws on divide-by-zero.
    LRem,
    /// `long` negation.
    LNeg,
    /// `long` shift left (count masked to 6 bits).
    LShl,
    /// `long` arithmetic shift right.
    LShr,
    /// `long` logical shift right.
    LUShr,
    /// `long` bitwise and.
    LAnd,
    /// `long` bitwise or.
    LOr,
    /// `long` bitwise xor.
    LXor,

    // --- Double (f64) arithmetic ------------------------------------------
    /// `double` addition.
    DAdd,
    /// `double` subtraction.
    DSub,
    /// `double` multiplication.
    DMul,
    /// `double` division.
    DDiv,
    /// `double` remainder.
    DRem,
    /// `double` negation.
    DNeg,

    // --- Conversions -----------------------------------------------------
    /// `int` to `long`.
    I2L,
    /// `int` to `double`.
    I2D,
    /// `long` to `int` (truncating).
    L2I,
    /// `long` to `double`.
    L2D,
    /// `double` to `int` (saturating, NaN maps to 0).
    D2I,
    /// `double` to `long` (saturating, NaN maps to 0).
    D2L,
    /// Truncate `int` to signed 8 bits and sign-extend.
    I2B,
    /// Truncate `int` to unsigned 16 bits and zero-extend.
    I2C,
    /// Truncate `int` to signed 16 bits and sign-extend.
    I2S,

    // --- Comparison -------------------------------------------------------
    /// Compare two `long`s, pushing -1/0/1.
    LCmp,
    /// Compare two `double`s, pushing -1/0/1; NaN compares as -1.
    DCmpL,
    /// Compare two `double`s, pushing -1/0/1; NaN compares as 1.
    DCmpG,

    // --- Control flow -----------------------------------------------------
    /// Unconditional jump to code index.
    Goto(u32),
    /// Jump if `int` top-of-stack == 0.
    IfEq(u32),
    /// Jump if `int` top-of-stack != 0.
    IfNe(u32),
    /// Jump if `int` top-of-stack < 0.
    IfLt(u32),
    /// Jump if `int` top-of-stack >= 0.
    IfGe(u32),
    /// Jump if `int` top-of-stack > 0.
    IfGt(u32),
    /// Jump if `int` top-of-stack <= 0.
    IfLe(u32),
    /// Jump if the two `int`s on top are equal.
    IfICmpEq(u32),
    /// Jump if the two `int`s on top are not equal.
    IfICmpNe(u32),
    /// Jump if second-from-top < top (`int`).
    IfICmpLt(u32),
    /// Jump if second-from-top >= top (`int`).
    IfICmpGe(u32),
    /// Jump if second-from-top > top (`int`).
    IfICmpGt(u32),
    /// Jump if second-from-top <= top (`int`).
    IfICmpLe(u32),
    /// Jump if the two references on top are identical.
    IfACmpEq(u32),
    /// Jump if the two references on top differ.
    IfACmpNe(u32),
    /// Jump if the reference on top is null.
    IfNull(u32),
    /// Jump if the reference on top is non-null.
    IfNonNull(u32),
    /// Dense jump table: index `low..low+targets.len()` selects a target.
    TableSwitch {
        /// Lowest matched key.
        low: i32,
        /// Targets for keys `low..low + targets.len()`.
        targets: Vec<u32>,
        /// Target when the key is out of range.
        default: u32,
    },
    /// Sparse jump table of `(key, target)` pairs, sorted by key.
    LookupSwitch {
        /// Sorted `(key, target)` pairs.
        pairs: Vec<(i32, u32)>,
        /// Target when no key matches.
        default: u32,
    },

    // --- Objects -----------------------------------------------------------
    /// Allocate an instance of the class, pushing the reference.
    New(ClassId),
    /// Pop a reference, push the value of the instance field.
    GetField(FieldId),
    /// Pop value then reference, store into the instance field.
    PutField(FieldId),
    /// Push the value of a static field.
    GetStatic(FieldId),
    /// Pop a value into a static field.
    PutStatic(FieldId),
    /// Pop a reference, push 1 if it is an instance of the class else 0.
    InstanceOf(ClassId),
    /// Throw `ClassCastException` unless top-of-stack is null or an instance.
    CheckCast(ClassId),

    // --- Arrays -------------------------------------------------------------
    /// Pop an `int` length, push a new array of the element type.
    NewArray(ElemTy),
    /// Pop an array reference, push its length.
    ArrayLength,
    /// Pop index and `int[]` ref, push the element.
    IALoad,
    /// Pop value, index, `int[]` ref; store the element.
    IAStore,
    /// Pop index and `long[]` ref, push the element.
    LALoad,
    /// Pop value, index, `long[]` ref; store the element.
    LAStore,
    /// Pop index and `double[]` ref, push the element.
    DALoad,
    /// Pop value, index, `double[]` ref; store the element.
    DAStore,
    /// Pop index and `ref[]` ref, push the element.
    AALoad,
    /// Pop value, index, `ref[]` ref; store the element.
    AAStore,
    /// Pop index and `byte[]` ref, push the sign-extended element.
    BALoad,
    /// Pop value, index, `byte[]` ref; store the truncated element.
    BAStore,
    /// Pop index and `char[]` ref, push the zero-extended element.
    CALoad,
    /// Pop value, index, `char[]` ref; store the truncated element.
    CAStore,

    // --- Calls ---------------------------------------------------------------
    /// Call a static method.
    InvokeStatic(MethodId),
    /// Call an instance method with virtual dispatch on the receiver.
    InvokeVirtual(MethodId),
    /// Call an instance method without dispatch (constructors, super calls).
    InvokeSpecial(MethodId),
    /// Call into the VM's native interface.
    InvokeNative(NativeId),
    /// Return `void`.
    Return,
    /// Return an `int`.
    IReturn,
    /// Return a `long`.
    LReturn,
    /// Return a `double`.
    DReturn,
    /// Return a reference.
    AReturn,

    // --- Exceptions -------------------------------------------------------------
    /// Pop a throwable reference and raise it.
    AThrow,

    // --- Monitors ---------------------------------------------------------------
    /// Acquire the monitor of the reference on top of stack.
    MonitorEnter,
    /// Release the monitor of the reference on top of stack.
    MonitorExit,
}

/// An instruction operand. Its TDRP encoding is its [`Wire`] impl; this
/// adds how a listing shows it and which branch targets it holds. Every
/// `u32` operand is a branch target, and no other operand type holds one.
pub(crate) trait Operand: Wire + fmt::Debug {
    /// The operand as the disassembler lists it.
    fn show(&self) -> String {
        format!("{self:?}")
    }

    /// Pass each branch target to `f`.
    fn targets(&self, _f: &mut impl FnMut(u32)) {}

    /// Rewrite each branch target through `f`.
    fn map_targets(&mut self, _f: &mut impl FnMut(u32) -> u32) {}
}

impl Operand for i32 {}
impl Operand for i64 {}
impl Operand for u16 {}
impl Operand for ElemTy {}
impl Operand for ClassId {}
impl Operand for FieldId {}
impl Operand for MethodId {}
impl Operand for NativeId {}

impl Operand for f64 {
    fn show(&self) -> String {
        self.to_string()
    }
}

/// `IInc`'s increment, signed even when positive.
impl Operand for i16 {
    fn show(&self) -> String {
        format!("{self:+}")
    }
}

impl Operand for u32 {
    fn show(&self) -> String {
        format!("-> {self}")
    }
    fn targets(&self, f: &mut impl FnMut(u32)) {
        f(*self)
    }
    fn map_targets(&mut self, f: &mut impl FnMut(u32) -> u32) {
        *self = f(*self)
    }
}

impl Operand for Vec<u32> {
    fn targets(&self, f: &mut impl FnMut(u32)) {
        self.iter().for_each(|t| f(*t))
    }
    fn map_targets(&mut self, f: &mut impl FnMut(u32) -> u32) {
        self.iter_mut().for_each(|t| *t = f(*t))
    }
}

impl Operand for Vec<(i32, u32)> {
    fn targets(&self, f: &mut impl FnMut(u32)) {
        self.iter().for_each(|(_, t)| f(*t))
    }
    fn map_targets(&mut self, f: &mut impl FnMut(u32) -> u32) {
        self.iter_mut().for_each(|(_, t)| *t = f(*t))
    }
}

/// A row's stack effect: `pops => pushes`, or `call` for an invoke.
macro_rules! effect {
    (call) => {
        None
    };
    ($pops:literal => $pushes:literal) => {
        Some(($pops, $pushes))
    };
}

/// The instruction table. Each row gives one opcode's wire byte, its
/// operands in wire order, its mnemonic, its [`OpClass`] and its stack
/// effect as `[pops => pushes]`; the four invokes take theirs from the
/// callee (`[call]`). Every match below is generated from it and
/// exhaustive over [`Op`], so an opcode without a row does not compile.
macro_rules! instructions {
    ($($byte:literal $name:ident $(($($a:ident: $at:ty),+))? $({$($f:ident: $ft:ty),+})?
        $mnemonic:literal $class:ident [$($effect:tt)+];)+) => {
        impl Op {
            /// The timing class of this opcode.
            // The VM asks once per replayed instruction, and a match this
            // long is past the size rustc inlines across crates unasked.
            #[inline]
            pub fn class(&self) -> OpClass {
                match self {
                    $(Op::$name { .. } => OpClass::$class,)+
                }
            }

            /// The canonical lower-case mnemonic, as used by the disassembler.
            pub fn mnemonic(&self) -> &'static str {
                match self {
                    $(Op::$name { .. } => $mnemonic,)+
                }
            }

            /// Operand-stack slots this opcode pops and then pushes; `None`
            /// for the invokes, whose effect is the callee's signature.
            pub(crate) fn stack_effect(&self) -> Option<(i32, i32)> {
                match self {
                    $(Op::$name { .. } => effect!($($effect)+),)+
                }
            }

            /// All branch targets encoded in the instruction (empty for
            /// non-branches).
            pub fn branch_targets(&self) -> Vec<u32> {
                let mut out = Vec::new();
                let mut push = |t| out.push(t);
                match self {
                    $(Op::$name $(($($a),+))? $({$($f),+})? => {
                        $($($a.targets(&mut push);)+)?
                        $($($f.targets(&mut push);)+)?
                    })+
                }
                out
            }

            /// Rewrite every branch target through `f` (used by the label
            /// resolver).
            pub fn map_targets(&mut self, mut f: impl FnMut(u32) -> u32) {
                match self {
                    $(Op::$name $(($($a),+))? $({$($f),+})? => {
                        $($($a.map_targets(&mut f);)+)?
                        $($($f.map_targets(&mut f);)+)?
                    })+
                }
            }

            /// The listing of this instruction with its operands as numbers;
            /// the disassembler resolves ids itself.
            pub(crate) fn listing(&self) -> String {
                match self {
                    $(Op::$name $(($($a),+))? $({$($f),+})? => [
                        $mnemonic.to_string(),
                        $($($a.show(),)+)?
                        $($(format!(concat!(stringify!($f), "={:?}"), $f),)+)?
                    ]
                    .join(" "),)+
                }
            }
        }

        /// The opcode byte, then the operands in row order.
        impl Wire for Op {
            const MIN: usize = 1;

            // Both halves are inlined into the loop over a method's code,
            // as the hand-written codec was: a call per instruction made
            // `container::open` about 15% slower.
            #[inline]
            fn put(&self, out: &mut Vec<u8>) {
                match self {
                    $(Op::$name $(($($a),+))? $({$($f),+})? => {
                        out.push($byte);
                        $($($a.put(out);)+)?
                        $($($f.put(out);)+)?
                    })+
                }
            }

            #[deny(unreachable_patterns)]
            #[inline]
            fn get(r: &mut Cursor<'_>, what: &'static str) -> Result<Self, ContainerError> {
                Ok(match r.byte()? {
                    $($byte => {
                        $($(let $a = <$at as Wire>::get(r, what)?;)+)?
                        $($(let $f = <$ft as Wire>::get(r, what)?;)+)?
                        Op::$name $(($($a),+))? $({$($f),+})?
                    })+
                    other => return Err(ContainerError::BadOpcode(other)),
                })
            }
        }

        /// One of every opcode in wire-byte order, each operand at its
        /// [`tests::Sample`] value.
        #[cfg(test)]
        pub(crate) fn every_op(extreme: bool) -> Vec<Op> {
            use tests::Sample;
            vec![$(Op::$name $(($(<$at>::sample(extreme)),+))? $({$($f: <$ft>::sample(extreme)),+})?,)+]
        }
    };
}

instructions! {
    0x00 Nop                            "nop"           Const       [0 => 0];
    0x01 IConst(v: i32)                 "iconst"        Const       [0 => 1];
    0x02 LConst(v: i64)                 "lconst"        Const       [0 => 1];
    0x03 DConst(v: f64)                 "dconst"        Const       [0 => 1];
    0x04 AConstNull                     "aconst_null"   Const       [0 => 1];
    0x05 LdcStr(string: u16)            "ldc_str"       Const       [0 => 1];
    0x06 ILoad(local: u16)              "iload"         Local       [0 => 1];
    0x07 LLoad(local: u16)              "lload"         Local       [0 => 1];
    0x08 DLoad(local: u16)              "dload"         Local       [0 => 1];
    0x09 ALoad(local: u16)              "aload"         Local       [0 => 1];
    0x0a IStore(local: u16)             "istore"        Local       [1 => 0];
    0x0b LStore(local: u16)             "lstore"        Local       [1 => 0];
    0x0c DStore(local: u16)             "dstore"        Local       [1 => 0];
    0x0d AStore(local: u16)             "astore"        Local       [1 => 0];
    0x0e IInc(local: u16, by: i16)      "iinc"          Local       [0 => 0];
    0x0f Pop                            "pop"           Stack       [1 => 0];
    0x10 Dup                            "dup"           Stack       [1 => 2];
    0x11 DupX1                          "dup_x1"        Stack       [2 => 3];
    0x12 Swap                           "swap"          Stack       [2 => 2];
    0x13 IAdd                           "iadd"          AluInt      [2 => 1];
    0x14 ISub                           "isub"          AluInt      [2 => 1];
    0x15 IMul                           "imul"          MulInt      [2 => 1];
    0x16 IDiv                           "idiv"          DivInt      [2 => 1];
    0x17 IRem                           "irem"          DivInt      [2 => 1];
    0x18 INeg                           "ineg"          AluInt      [1 => 1];
    0x19 IShl                           "ishl"          AluInt      [2 => 1];
    0x1a IShr                           "ishr"          AluInt      [2 => 1];
    0x1b IUShr                          "iushr"         AluInt      [2 => 1];
    0x1c IAnd                           "iand"          AluInt      [2 => 1];
    0x1d IOr                            "ior"           AluInt      [2 => 1];
    0x1e IXor                           "ixor"          AluInt      [2 => 1];
    0x1f LAdd                           "ladd"          AluInt      [2 => 1];
    0x20 LSub                           "lsub"          AluInt      [2 => 1];
    0x21 LMul                           "lmul"          MulInt      [2 => 1];
    0x22 LDiv                           "ldiv"          DivInt      [2 => 1];
    0x23 LRem                           "lrem"          DivInt      [2 => 1];
    0x24 LNeg                           "lneg"          AluInt      [1 => 1];
    0x25 LShl                           "lshl"          AluInt      [2 => 1];
    0x26 LShr                           "lshr"          AluInt      [2 => 1];
    0x27 LUShr                          "lushr"         AluInt      [2 => 1];
    0x28 LAnd                           "land"          AluInt      [2 => 1];
    0x29 LOr                            "lor"           AluInt      [2 => 1];
    0x2a LXor                           "lxor"          AluInt      [2 => 1];
    0x2b DAdd                           "dadd"          AluFp       [2 => 1];
    0x2c DSub                           "dsub"          AluFp       [2 => 1];
    0x2d DMul                           "dmul"          MulFp       [2 => 1];
    0x2e DDiv                           "ddiv"          DivFp       [2 => 1];
    0x2f DRem                           "drem"          DivFp       [2 => 1];
    0x30 DNeg                           "dneg"          AluFp       [1 => 1];
    0x31 I2L                            "i2l"           Conv        [1 => 1];
    0x32 I2D                            "i2d"           Conv        [1 => 1];
    0x33 L2I                            "l2i"           Conv        [1 => 1];
    0x34 L2D                            "l2d"           Conv        [1 => 1];
    0x35 D2I                            "d2i"           Conv        [1 => 1];
    0x36 D2L                            "d2l"           Conv        [1 => 1];
    0x37 I2B                            "i2b"           Conv        [1 => 1];
    0x38 I2C                            "i2c"           Conv        [1 => 1];
    0x39 I2S                            "i2s"           Conv        [1 => 1];
    0x3a LCmp                           "lcmp"          AluInt      [2 => 1];
    0x3b DCmpL                          "dcmpl"         AluFp       [2 => 1];
    0x3c DCmpG                          "dcmpg"         AluFp       [2 => 1];
    0x3d Goto(target: u32)              "goto"          Branch      [0 => 0];
    0x3e IfEq(target: u32)              "ifeq"          Branch      [1 => 0];
    0x3f IfNe(target: u32)              "ifne"          Branch      [1 => 0];
    0x40 IfLt(target: u32)              "iflt"          Branch      [1 => 0];
    0x41 IfGe(target: u32)              "ifge"          Branch      [1 => 0];
    0x42 IfGt(target: u32)              "ifgt"          Branch      [1 => 0];
    0x43 IfLe(target: u32)              "ifle"          Branch      [1 => 0];
    0x44 IfICmpEq(target: u32)          "if_icmpeq"     Branch      [2 => 0];
    0x45 IfICmpNe(target: u32)          "if_icmpne"     Branch      [2 => 0];
    0x46 IfICmpLt(target: u32)          "if_icmplt"     Branch      [2 => 0];
    0x47 IfICmpGe(target: u32)          "if_icmpge"     Branch      [2 => 0];
    0x48 IfICmpGt(target: u32)          "if_icmpgt"     Branch      [2 => 0];
    0x49 IfICmpLe(target: u32)          "if_icmple"     Branch      [2 => 0];
    0x4a IfACmpEq(target: u32)          "if_acmpeq"     Branch      [2 => 0];
    0x4b IfACmpNe(target: u32)          "if_acmpne"     Branch      [2 => 0];
    0x4c IfNull(target: u32)            "ifnull"        Branch      [1 => 0];
    0x4d IfNonNull(target: u32)         "ifnonnull"     Branch      [1 => 0];
    0x4e TableSwitch { low: i32, targets: Vec<u32>, default: u32 }
                                        "tableswitch"   Branch      [1 => 0];
    0x4f LookupSwitch { pairs: Vec<(i32, u32)>, default: u32 }
                                        "lookupswitch"  Branch      [1 => 0];
    0x50 New(class: ClassId)            "new"           Alloc       [0 => 1];
    0x51 GetField(field: FieldId)       "getfield"      HeapLoad    [1 => 1];
    0x52 PutField(field: FieldId)       "putfield"      HeapStore   [2 => 0];
    0x53 GetStatic(field: FieldId)      "getstatic"     HeapLoad    [0 => 1];
    0x54 PutStatic(field: FieldId)      "putstatic"     HeapStore   [1 => 0];
    0x55 InstanceOf(class: ClassId)     "instanceof"    HeapLoad    [1 => 1];
    0x56 CheckCast(class: ClassId)      "checkcast"     HeapLoad    [1 => 1];
    0x57 NewArray(elem: ElemTy)         "newarray"      Alloc       [1 => 1];
    0x58 ArrayLength                    "arraylength"   HeapLoad    [1 => 1];
    0x59 IALoad                         "iaload"        HeapLoad    [2 => 1];
    0x5a IAStore                        "iastore"       HeapStore   [3 => 0];
    0x5b LALoad                         "laload"        HeapLoad    [2 => 1];
    0x5c LAStore                        "lastore"       HeapStore   [3 => 0];
    0x5d DALoad                         "daload"        HeapLoad    [2 => 1];
    0x5e DAStore                        "dastore"       HeapStore   [3 => 0];
    0x5f AALoad                         "aaload"        HeapLoad    [2 => 1];
    0x60 AAStore                        "aastore"       HeapStore   [3 => 0];
    0x61 BALoad                         "baload"        HeapLoad    [2 => 1];
    0x62 BAStore                        "bastore"       HeapStore   [3 => 0];
    0x63 CALoad                         "caload"        HeapLoad    [2 => 1];
    0x64 CAStore                        "castore"       HeapStore   [3 => 0];
    0x65 InvokeStatic(method: MethodId) "invokestatic"  Call        [call];
    0x66 InvokeVirtual(method: MethodId) "invokevirtual" Call       [call];
    0x67 InvokeSpecial(method: MethodId) "invokespecial" Call       [call];
    0x68 InvokeNative(native: NativeId) "invokenative"  Native      [call];
    0x69 Return                         "return"        Call        [0 => 0];
    0x6a IReturn                        "ireturn"       Call        [1 => 0];
    0x6b LReturn                        "lreturn"       Call        [1 => 0];
    0x6c DReturn                        "dreturn"       Call        [1 => 0];
    0x6d AReturn                        "areturn"       Call        [1 => 0];
    0x6e AThrow                         "athrow"        Throw       [1 => 0];
    0x6f MonitorEnter                   "monitorenter"  Monitor     [1 => 0];
    0x70 MonitorExit                    "monitorexit"   Monitor     [1 => 0];
}

impl Op {
    /// True if this opcode may transfer control to a non-sequential index.
    pub fn is_branch(&self) -> bool {
        matches!(self.class(), OpClass::Branch)
    }

    /// Net change in operand-stack depth, if statically known.
    ///
    /// Call and native instructions return `None` because their effect
    /// depends on the callee signature; the verifier special-cases them.
    pub fn stack_delta(&self) -> Option<i32> {
        self.stack_effect().map(|(pops, pushes)| pushes - pops)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A value of an operand type for [`every_op`]: extreme, for byte
    /// pins, or the smallest, an index and id in range in any program
    /// and a target in range of any method.
    pub(crate) trait Sample {
        fn sample(extreme: bool) -> Self;
    }

    macro_rules! sample {
        ($($t:ty: $extreme:expr, $small:expr;)+) => {$(
            impl Sample for $t {
                fn sample(extreme: bool) -> Self {
                    if extreme {
                        $extreme
                    } else {
                        $small
                    }
                }
            }
        )+};
    }

    sample! {
        i32: i32::MIN, 0;
        i64: i64::MAX, 0;
        f64: -0.0, 0.0;
        u16: u16::MAX, 0;
        i16: i16::MIN, 0;
        u32: u32::MAX, 0;
        ClassId: ClassId(u16::MAX), ClassId(0);
        FieldId: FieldId(u16::MAX), FieldId(0);
        MethodId: MethodId(u16::MAX), MethodId(0);
        NativeId: NativeId(u16::MAX), NativeId(0);
        ElemTy: ElemTy::Ref, ElemTy::I32;
        Vec<u32>: vec![0, u32::MAX], vec![0];
        Vec<(i32, u32)>: vec![(i32::MIN, 0), (i32::MAX, u32::MAX)], vec![(0, 0)];
    }

    #[test]
    fn branch_targets_of_plain_ops_are_empty() {
        assert!(Op::IAdd.branch_targets().is_empty());
        assert!(Op::Nop.branch_targets().is_empty());
        assert!(Op::InvokeStatic(MethodId(3)).branch_targets().is_empty());
    }

    #[test]
    fn branch_targets_of_conditionals() {
        assert_eq!(Op::IfEq(7).branch_targets(), vec![7]);
        assert_eq!(Op::Goto(12).branch_targets(), vec![12]);
        let ts = Op::TableSwitch {
            low: 0,
            targets: vec![1, 2, 3],
            default: 9,
        };
        assert_eq!(ts.branch_targets(), vec![1, 2, 3, 9]);
        let ls = Op::LookupSwitch {
            pairs: vec![(5, 10), (9, 20)],
            default: 30,
        };
        assert_eq!(ls.branch_targets(), vec![10, 20, 30]);
    }

    #[test]
    fn map_targets_rewrites_all_targets() {
        let mut op = Op::TableSwitch {
            low: 0,
            targets: vec![1, 2],
            default: 3,
        };
        op.map_targets(|t| t + 100);
        assert_eq!(op.branch_targets(), vec![101, 102, 103]);

        let mut g = Op::Goto(4);
        g.map_targets(|t| t * 2);
        assert_eq!(g, Op::Goto(8));
    }

    #[test]
    fn stack_delta_consistency() {
        assert_eq!(Op::IConst(1).stack_delta(), Some(1));
        assert_eq!(Op::IAdd.stack_delta(), Some(-1));
        assert_eq!(Op::IAStore.stack_delta(), Some(-3));
        assert_eq!(Op::InvokeStatic(MethodId(0)).stack_delta(), None);
    }

    #[test]
    fn op_classes_are_sane() {
        assert_eq!(Op::IAdd.class(), OpClass::AluInt);
        assert_eq!(Op::DMul.class(), OpClass::MulFp);
        assert_eq!(Op::Goto(0).class(), OpClass::Branch);
        assert_eq!(Op::GetField(FieldId(0)).class(), OpClass::HeapLoad);
        assert_eq!(Op::PutField(FieldId(0)).class(), OpClass::HeapStore);
        assert_eq!(Op::InvokeNative(NativeId(0)).class(), OpClass::Native);
        assert!(Op::IfEq(0).is_branch());
        assert!(!Op::IAdd.is_branch());
    }

    #[test]
    fn elem_sizes() {
        assert_eq!(ElemTy::I8.byte_size(), 1);
        assert_eq!(ElemTy::U16.byte_size(), 2);
        assert_eq!(ElemTy::I32.byte_size(), 4);
        assert_eq!(ElemTy::F64.byte_size(), 8);
    }

    #[test]
    fn mnemonics_are_unique_for_distinct_ops() {
        let ops = every_op(false);
        let mut seen = std::collections::HashSet::new();
        for op in &ops {
            assert!(seen.insert(op.mnemonic()), "duplicate {}", op.mnemonic());
        }
    }
}
