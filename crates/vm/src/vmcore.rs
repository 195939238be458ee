//! The interpreter: threads, frames, dispatch, and the native interface.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use jbc::{MethodId, Op, OpClass, Program};
use machine::machine::map;
use machine::Machine;
use sim_core::{CostModel, Cycles};

use crate::error::VmError;
use crate::heap::{Heap, HeapObj};
use crate::natives::{DelayModel, NativeKind};
use crate::ops;
use crate::value::{Handle, Value, NULL};

/// How the VM treats the passage of idle time (see `wait_packet`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayStyle {
    /// Original execution: wait for real (simulated) device arrivals.
    Play,
    /// Time-deterministic replay: idle exactly until the logged arrival
    /// cycle, reproducing the wait (§2.5's "balance" requirement).
    Tdr,
    /// Functional replay (the XenTT-style baseline): skip waits entirely —
    /// the behavior that makes Fig. 3 diverge from the diagonal.
    Functional,
}

/// VM construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct VmConfig {
    /// Engine cost model (Sanity interpreter, Oracle interpreter, JIT).
    pub cost: CostModel,
    /// Instructions per scheduling quantum (§3.2).
    pub quantum: u32,
    /// Hard cap on executed instructions (runaway guard).
    pub instr_limit: u64,
    /// Hard cap on simulated cycles (hang guard for idle loops).
    pub cycle_limit: Cycles,
    /// Maximum call depth per thread.
    pub max_call_depth: usize,
    /// Heap size in simulated bytes.
    pub heap_size: u64,
    /// Wait/idle semantics.
    pub replay_style: ReplayStyle,
}

impl Default for VmConfig {
    fn default() -> Self {
        VmConfig {
            cost: CostModel::sanity_interpreter(),
            quantum: 10_000,
            instr_limit: 2_000_000_000,
            cycle_limit: 60_000_000_000, // 10 simulated minutes at 100 MHz.
            max_call_depth: 512,
            heap_size: 64 << 20,
            replay_style: ReplayStyle::Play,
        }
    }
}

/// Why the run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExitKind {
    /// Every thread finished.
    Completed,
}

/// Result of a completed run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// How the run ended.
    pub exit: ExitKind,
    /// Total instructions executed.
    pub icount: u64,
    /// Final TC cycle count.
    pub cycles: Cycles,
    /// Final wall-clock picoseconds.
    pub wall_ps: u128,
    /// Console output produced via the `println_*` natives.
    pub console: Vec<String>,
}

#[derive(Debug)]
pub(crate) struct Frame {
    pub(crate) method: MethodId,
    pub(crate) ip: u32,
    pub(crate) locals: Vec<Value>,
    pub(crate) stack: Vec<Value>,
    /// Simulated address of local slot 0.
    pub(crate) base_vaddr: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ThreadState {
    Runnable,
    Blocked(Handle),
    Done,
}

#[derive(Debug)]
pub(crate) struct VmThread {
    pub(crate) frames: Vec<Frame>,
    pub(crate) state: ThreadState,
    /// Stack pointer in slots within this thread's stack region.
    pub(crate) sp: u64,
}

#[derive(Debug)]
pub(crate) struct MonitorState {
    pub(crate) owner: usize,
    pub(crate) count: u32,
    pub(crate) waiting: VecDeque<usize>,
}

/// Per-thread stack region size in bytes.
const STACK_REGION: u64 = 0x40000;
/// Maximum number of threads (bounded by the stack area).
const MAX_THREADS: usize = 16;

/// The Sanity virtual machine. See the [crate docs](crate).
pub struct Vm {
    pub(crate) program: Arc<Program>,
    pub(crate) machine: Machine,
    pub(crate) cost: CostModel,
    pub(crate) cfg: VmConfig,
    pub(crate) heap: Heap,
    pub(crate) statics: Vec<Value>,
    pub(crate) string_refs: Vec<Handle>,
    pub(crate) natives: Vec<NativeKind>,
    pub(crate) threads: Vec<VmThread>,
    pub(crate) cur: usize,
    pub(crate) budget: u32,
    pub(crate) icount: u64,
    pub(crate) console: Vec<String>,
    pub(crate) files: Arc<Vec<Vec<u8>>>,
    pub(crate) delay: Option<Box<dyn DelayModel>>,
    pub(crate) send_count: u64,
    pub(crate) monitors: HashMap<Handle, MonitorState>,
    pub(crate) gc_runs: u64,
}

impl std::fmt::Debug for Vm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Vm")
            .field("icount", &self.icount)
            .field("threads", &self.threads.len())
            .finish_non_exhaustive()
    }
}

impl Vm {
    /// Load `program` onto `machine`.
    ///
    /// Verifies the program, resolves natives, interns string constants on
    /// the heap, and sets up the main thread at the entry point.
    pub fn new(program: Arc<Program>, machine: Machine, cfg: VmConfig) -> Result<Vm, VmError> {
        Self::load(&jbc::Verified::new(program)?, machine, cfg)
    }

    /// [`Vm::new`] for a program that already passed the verifier: the
    /// [`jbc::Verified`] handle is the proof, so the check is not re-run.
    pub fn load(program: &jbc::Verified, machine: Machine, cfg: VmConfig) -> Result<Vm, VmError> {
        let program = Arc::clone(program.program());
        let mut natives = Vec::with_capacity(program.natives.len());
        for n in &program.natives {
            natives.push(
                NativeKind::by_name(&n.name)
                    .ok_or_else(|| VmError::UnknownNative(n.name.clone()))?,
            );
        }
        let mut heap = Heap::new(map::HEAP, cfg.heap_size);
        let mut string_refs = Vec::with_capacity(program.strings.len());
        for s in &program.strings {
            let (h, _) = heap
                .alloc(HeapObj::Str(s.clone()))
                .ok_or(VmError::OutOfMemory)?;
            string_refs.push(h);
        }
        let statics = program
            .fields
            .iter()
            .filter(|f| f.is_static)
            .map(|f| Value::zero_of(f.ty))
            .collect::<Vec<_>>();
        // Statics were assigned dense slots in declaration order; re-order.
        let mut ordered = vec![Value::I32(0); statics.len()];
        for f in program.fields.iter().filter(|f| f.is_static) {
            ordered[f.slot as usize] = Value::zero_of(f.ty);
        }

        let entry = program.entry;
        let mut vm = Vm {
            program,
            machine,
            cost: cfg.cost,
            cfg,
            heap,
            statics: ordered,
            string_refs,
            natives,
            threads: Vec::new(),
            cur: 0,
            budget: cfg.quantum,
            icount: 0,
            console: Vec::new(),
            files: Arc::default(),
            delay: None,
            send_count: 0,
            monitors: HashMap::new(),
            gc_runs: 0,
        };
        vm.spawn_thread(entry)?;
        Ok(vm)
    }

    // ---- public accessors --------------------------------------------------

    /// The global instruction counter (§3.2).
    pub fn icount(&self) -> u64 {
        self.icount
    }

    /// The underlying machine.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Mutable access to the machine (harness use: packet delivery, replay).
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// The loaded program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Install the file store backing `file_read`/`file_size`: a
    /// `Vec<Vec<u8>>`, or an `Arc` of one that several VMs share (a read
    /// copies only the bytes it reads into the heap).
    pub fn set_files(&mut self, files: impl Into<Arc<Vec<Vec<u8>>>>) {
        self.files = files.into();
    }

    /// Install the covert-channel delay model (host side of the
    /// `covert_delay` primitive), which enables the primitive.
    pub fn set_delay_model(&mut self, m: Box<dyn DelayModel>) {
        self.delay = Some(m);
    }

    /// Number of garbage collections so far.
    pub fn gc_runs(&self) -> u64 {
        self.gc_runs
    }

    /// Console lines printed so far.
    pub fn console(&self) -> &[String] {
        &self.console
    }

    // ---- thread management ---------------------------------------------------

    pub(crate) fn spawn_thread(&mut self, entry: MethodId) -> Result<usize, VmError> {
        if self.threads.len() >= MAX_THREADS {
            return Err(VmError::Load("too many threads".into()));
        }
        let m = self.program.method(entry);
        if !m.is_static || !m.params.is_empty() {
            return Err(VmError::Load(format!(
                "thread entry {} must be static with no parameters",
                m.name
            )));
        }
        let tid = self.threads.len();
        let base = map::STACKS + tid as u64 * STACK_REGION;
        let locals = vec![Value::I32(0); m.max_locals as usize];
        self.threads.push(VmThread {
            frames: vec![Frame {
                method: entry,
                ip: 0,
                locals,
                stack: Vec::with_capacity(16),
                base_vaddr: base,
            }],
            state: ThreadState::Runnable,
            sp: m.max_locals as u64,
        });
        Ok(tid)
    }

    pub(crate) fn frame(&mut self) -> &mut Frame {
        self.threads[self.cur]
            .frames
            .last_mut()
            .expect("runnable thread has a frame")
    }

    #[inline]
    pub(crate) fn push(&mut self, v: Value) {
        self.frame().stack.push(v);
    }

    #[inline]
    pub(crate) fn pop(&mut self) -> Value {
        self.frame().stack.pop().expect("verified stack depth")
    }

    /// Advance to the next runnable thread. `Ok(true)` if one was found,
    /// `Ok(false)` if every thread is done.
    pub(crate) fn rotate(&mut self) -> Result<bool, VmError> {
        let n = self.threads.len();
        for k in 1..=n {
            let tid = (self.cur + k) % n;
            if self.threads[tid].state == ThreadState::Runnable {
                self.cur = tid;
                self.budget = self.cfg.quantum;
                return Ok(true);
            }
        }
        if self.threads.iter().all(|t| t.state == ThreadState::Done) {
            return Ok(false);
        }
        Err(VmError::Deadlock)
    }

    // ---- main loop --------------------------------------------------------------

    /// Run until every thread completes (or a VM error occurs).
    pub fn run(&mut self) -> Result<RunOutcome, VmError> {
        // Hot opcodes run in the fused fast path, the rest in `step`. The
        // result must equal one `step` per instruction, bit for bit;
        // `differential.rs` checks that.
        let program = Arc::clone(&self.program);
        loop {
            if (self.threads[self.cur].state != ThreadState::Runnable || self.budget == 0)
                && !self.rotate()?
            {
                break;
            }
            crate::ops::fused::step_fused(self, &program)?;
        }
        Ok(RunOutcome {
            exit: ExitKind::Completed,
            icount: self.icount,
            cycles: self.machine.now_cycles(),
            wall_ps: self.machine.now_ps(),
            console: self.console.clone(),
        })
    }

    pub(crate) fn charge(
        &mut self,
        class: OpClass,
        pc_vaddr: u64,
        refs: &[(u64, bool)],
        branch: Option<(bool, u64)>,
    ) {
        crate::ops::charge(&mut self.machine, &self.cost, class, pc_vaddr, refs, branch);
    }

    // ---- exceptions -----------------------------------------------------------

    pub(crate) fn throw_builtin(&mut self, program: &Program, name: &str) -> Result<(), VmError> {
        match program.class_by_name(name) {
            Some(cid) => {
                let nfields = program.class(cid).layout.len();
                let h = self.alloc_retry(|| HeapObj::Obj {
                    class: cid,
                    fields: vec![Value::I32(0); nfields],
                })?;
                self.raise(program, h)
            }
            None => Err(VmError::UncaughtException { class: name.into() }),
        }
    }

    pub(crate) fn raise(&mut self, program: &Program, exc: Handle) -> Result<(), VmError> {
        let runtime = match self.heap.get(exc) {
            HeapObj::Obj { class, .. } => Some(*class),
            _ => None,
        };
        loop {
            let t = &mut self.threads[self.cur];
            let Some(f) = t.frames.last_mut() else {
                t.state = ThreadState::Done;
                let name = runtime
                    .map(|c| program.class(c).name.clone())
                    .unwrap_or_else(|| "<non-object>".into());
                if self.cur == 0 {
                    return Err(VmError::UncaughtException { class: name });
                }
                // A non-main thread dies quietly, like a JVM thread.
                return Ok(());
            };
            let m = program.method(f.method);
            // `ip` is pre-advanced at dispatch, so the faulting (or calling)
            // instruction is at `ip - 1` in every frame.
            let fault_ip = f.ip.saturating_sub(1);
            let handler = m.handlers.iter().find(|h| {
                h.start <= fault_ip
                    && fault_ip < h.end
                    && match (h.class, runtime) {
                        (None, _) => true,
                        (Some(want), Some(have)) => program.is_subclass(have, want),
                        (Some(_), None) => false,
                    }
            });
            if let Some(h) = handler {
                f.ip = h.target;
                f.stack.clear();
                f.stack.push(Value::Ref(exc));
                return Ok(());
            }
            let popped = t.frames.pop().expect("non-empty");
            t.sp -= popped.locals.len() as u64;
        }
    }

    // ---- allocation --------------------------------------------------------------

    pub(crate) fn alloc_retry(&mut self, make: impl Fn() -> HeapObj) -> Result<Handle, VmError> {
        if let Some((h, _)) = self.heap.alloc(make()) {
            return Ok(h);
        }
        self.gc();
        self.heap
            .alloc(make())
            .map(|(h, _)| h)
            .ok_or(VmError::OutOfMemory)
    }

    fn gc(&mut self) {
        self.gc_runs += 1;
        let mut roots: Vec<Handle> = Vec::new();
        roots.extend(self.string_refs.iter().copied());
        for v in &self.statics {
            if let Value::Ref(r) = v {
                roots.push(*r);
            }
        }
        for t in &self.threads {
            for f in &t.frames {
                for v in f.locals.iter().chain(f.stack.iter()) {
                    if let Value::Ref(r) = v {
                        roots.push(*r);
                    }
                }
            }
        }
        roots.extend(self.monitors.keys().copied());
        let stats = self.heap.collect(roots.into_iter());
        // Deterministic cost: mark-per-live + sweep-per-object + fixed.
        self.machine
            .idle(stats.live * 40 + (stats.live + stats.freed) * 8 + 500);
    }

    // ---- the dispatch loop ----------------------------------------------------------

    pub(crate) fn step(&mut self, program: &Program) -> Result<(), VmError> {
        self.icount += 1;
        self.budget -= 1;
        if self.icount > self.cfg.instr_limit {
            return Err(VmError::InstrLimit);
        }
        if self.machine.now_cycles() > self.cfg.cycle_limit {
            return Err(VmError::InstrLimit);
        }
        let (mid, ip) = {
            let f = self.frame();
            (f.method, f.ip)
        };
        let method = program.method(mid);
        let op = &method.code[ip as usize];
        let pc = method.code_base + 4 * ip as u64;
        let cls = op.class();
        let base = self.frame().base_vaddr;

        // Pre-advance: fall-through is the default; branch arms overwrite,
        // and exception handling matches handlers against `ip - 1`.
        self.frame().ip = ip + 1;

        use Op::*;
        match op {
            // Constants, locals, stack shuffles (`ops::locals`).
            Nop => self.charge(cls, pc, &[], None),
            IConst(v) => ops::locals::const_op(self, Value::I32(*v), pc, cls),
            LConst(v) => ops::locals::const_op(self, Value::I64(*v), pc, cls),
            DConst(v) => ops::locals::const_op(self, Value::F64(*v), pc, cls),
            AConstNull => ops::locals::const_op(self, Value::Ref(NULL), pc, cls),
            LdcStr(i) => ops::locals::ldc_str(self, *i, pc, cls),
            ILoad(n) | LLoad(n) | DLoad(n) | ALoad(n) => ops::locals::load(self, *n, pc, cls, base),
            IStore(n) | LStore(n) | DStore(n) | AStore(n) => {
                ops::locals::store(self, *n, pc, cls, base)
            }
            IInc(n, d) => ops::locals::iinc(self, *n, *d, pc, cls, base),
            Pop | Dup | DupX1 | Swap => ops::locals::stack_op(self, op, pc, cls),

            // Arithmetic, conversions, comparisons (`ops::arith`).
            IAdd | ISub | IMul | IAnd | IOr | IXor | IShl | IShr | IUShr => {
                ops::arith::int_binop(self, op, pc, cls)
            }
            IDiv | IRem => return ops::arith::int_divrem(self, program, op, pc, cls),
            INeg => ops::arith::ineg(self, pc, cls),
            LAdd | LSub | LMul | LAnd | LOr | LXor => ops::arith::long_binop(self, op, pc, cls),
            LShl | LShr | LUShr => ops::arith::long_shift(self, op, pc, cls),
            LDiv | LRem => return ops::arith::long_divrem(self, program, op, pc, cls),
            LNeg => ops::arith::lneg(self, pc, cls),
            DAdd | DSub | DMul | DDiv | DRem => ops::arith::dbl_binop(self, op, pc, cls),
            DNeg => ops::arith::dneg(self, pc, cls),
            I2L | I2D | L2I | L2D | D2I | D2L | I2B | I2C | I2S => {
                ops::arith::conv(self, op, pc, cls)
            }
            LCmp => ops::arith::lcmp(self, pc, cls),
            DCmpL | DCmpG => ops::arith::dcmp(self, op, pc, cls),

            // Control flow (`ops::control`).
            Goto(t) => ops::control::goto(self, *t, pc, cls, method.code_base),
            IfEq(t) | IfNe(t) | IfLt(t) | IfGe(t) | IfGt(t) | IfLe(t) => {
                ops::control::if_zero(self, op, *t, pc, cls, method.code_base)
            }
            IfICmpEq(t) | IfICmpNe(t) | IfICmpLt(t) | IfICmpGe(t) | IfICmpGt(t) | IfICmpLe(t) => {
                ops::control::if_icmp(self, op, *t, pc, cls, method.code_base)
            }
            IfACmpEq(t) | IfACmpNe(t) => {
                ops::control::if_acmp(self, op, *t, pc, cls, method.code_base)
            }
            IfNull(t) | IfNonNull(t) => {
                ops::control::if_null(self, op, *t, pc, cls, method.code_base)
            }
            TableSwitch {
                low,
                targets,
                default,
            } => {
                ops::control::table_switch(self, *low, targets, *default, pc, cls, method.code_base)
            }
            LookupSwitch { pairs, default } => {
                ops::control::lookup_switch(self, pairs, *default, pc, cls, method.code_base)
            }
            Return | IReturn | LReturn | DReturn | AReturn => {
                return ops::control::ret(self, program, op, pc, cls)
            }

            // Objects and arrays (`ops::heap`).
            New(c) => return ops::heap::new_obj(self, program, *c, pc, cls),
            GetField(fid) => return ops::heap::get_field(self, program, *fid, pc, cls),
            PutField(fid) => return ops::heap::put_field(self, program, *fid, pc, cls),
            GetStatic(fid) => ops::heap::get_static(self, program, *fid, pc, cls),
            PutStatic(fid) => ops::heap::put_static(self, program, *fid, pc, cls),
            InstanceOf(c) => ops::heap::instance_of(self, program, *c, pc, cls),
            CheckCast(c) => return ops::heap::check_cast(self, program, *c, pc, cls),
            NewArray(et) => return ops::heap::new_array(self, program, *et, pc, cls),
            ArrayLength => return ops::heap::array_length(self, program, pc, cls),
            IALoad | LALoad | DALoad | AALoad | BALoad | CALoad => {
                let kind = ops::heap::ArrayKind::of(op);
                let idx = self.pop().as_i32();
                let arr = self.pop().as_ref();
                return ops::heap::array_load(self, program, kind, arr, idx, pc, cls);
            }
            IAStore | LAStore | DAStore | AAStore | BAStore | CAStore => {
                let val = self.pop();
                let idx = self.pop().as_i32();
                let arr = self.pop().as_ref();
                return ops::heap::array_store(self, program, arr, idx, val, pc, cls);
            }

            // Calls, natives, throw, monitors (`ops::invoke`).
            InvokeStatic(m) => return ops::invoke::invoke_static(self, program, *m, pc, cls),
            InvokeVirtual(m) | InvokeSpecial(m) => {
                return ops::invoke::invoke_instance(self, program, op, *m, pc, cls)
            }
            InvokeNative(nid) => return ops::invoke::invoke_native(self, program, *nid, pc, cls),
            AThrow => return ops::invoke::athrow(self, program, pc, cls),
            MonitorEnter => return ops::invoke::monitor_enter(self, program, pc, cls),
            MonitorExit => return ops::invoke::monitor_exit(self, program, pc, cls),
        }

        Ok(())
    }
    pub(crate) fn push_frame(
        &mut self,
        program: &Program,
        mid: MethodId,
        args: Vec<Value>,
    ) -> Result<(), VmError> {
        let t = &mut self.threads[self.cur];
        if t.frames.len() >= self.cfg.max_call_depth {
            return Err(VmError::StackOverflow);
        }
        let m = program.method(mid);
        let max_locals = m.max_locals as usize;
        if (t.sp + max_locals as u64) * 8 > STACK_REGION {
            return Err(VmError::StackOverflow);
        }
        let base = map::STACKS + self.cur as u64 * STACK_REGION + t.sp * 8;
        let mut locals = args;
        locals.resize(max_locals, Value::I32(0));
        t.frames.push(Frame {
            method: mid,
            ip: 0,
            locals,
            stack: Vec::with_capacity(8),
            base_vaddr: base,
        });
        t.sp += max_locals as u64;
        Ok(())
    }
}
