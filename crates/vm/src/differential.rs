//! Differential test: [`Vm::run`]'s fused dispatch against the classic
//! loop it replaced, which calls [`Vm::step`] once per instruction. Each
//! program is recorded and then time-deterministically replayed from that
//! recording, under both loops. Every run must end as its case says it
//! ends, and instruction count, cycles, wall-clock picoseconds, console
//! output and every transmission time must agree: fused dispatch may skip
//! host work, never simulated work.

use std::sync::Arc;

use jbc::builder::{MethodAsm, ProgramBuilder};
use jbc::{ElemTy, Op, Program};
use machine::{Machine, MachineConfig, Seeds, StEntry};
use workloads::{corpus, nfs, scimark::Kernel};

use crate::{ExitKind, ReplayStyle, RunOutcome, Vm, VmConfig, VmError};

/// The classic loop: the scheduling head of [`Vm::run`], then one
/// [`Vm::step`] per instruction.
fn run_classic(vm: &mut Vm) -> Result<RunOutcome, VmError> {
    let program = Arc::clone(&vm.program);
    loop {
        if (vm.threads[vm.cur].state != crate::vmcore::ThreadState::Runnable || vm.budget == 0)
            && !vm.rotate()?
        {
            break;
        }
        vm.step(&program)?;
    }
    Ok(RunOutcome {
        exit: ExitKind::Completed,
        icount: vm.icount,
        cycles: vm.machine.now_cycles(),
        wall_ps: vm.machine.now_ps(),
        console: vm.console.clone(),
    })
}

/// A program with what one session feeds it: stable storage and the
/// packets delivered while recording.
struct Case {
    name: String,
    program: Arc<Program>,
    /// Shared by every run of the case, as a reference cache shares its
    /// file set with every session it replays.
    files: Arc<Vec<Vec<u8>>>,
    packets: Vec<(u64, Vec<u8>)>,
    /// How every run of the case must end, under either loop, so that the
    /// loops agreeing is never agreement on an early failure.
    ends: Result<ExitKind, VmError>,
}

impl Case {
    /// A case that must run to completion.
    fn plain(name: String, program: Program) -> Case {
        Case {
            name,
            program: Arc::new(program),
            files: Arc::default(),
            packets: Vec::new(),
            ends: Ok(ExitKind::Completed),
        }
    }
}

/// What a recording leaves for its replay: the consumed packets and the
/// logged event values.
struct Log {
    packets: Vec<StEntry>,
    values: Vec<u64>,
}

/// One run of `case` under either loop: a recording when `log` is `None`,
/// otherwise a TDR replay of `log` on another run's noise seed. Asserts
/// that the run ends as the case says; returns the run's fingerprint and,
/// for a recording, its log.
fn run(case: &Case, log: Option<&Log>, classic: bool) -> (String, Option<Log>) {
    let (seed, replay_style) = match log {
        Some(_) => (8, ReplayStyle::Tdr),
        None => (7, ReplayStyle::Play),
    };
    let mut machine = Machine::new(MachineConfig::sanity(), Seeds::from_run(seed));
    if let Some(log) = log {
        machine.enter_replay(log.packets.clone(), log.values.clone());
    }
    let cfg = VmConfig {
        replay_style,
        ..VmConfig::default()
    };
    let mut vm = Vm::new(Arc::clone(&case.program), machine, cfg).expect("program loads");
    vm.set_files(Arc::clone(&case.files));
    assert!(
        Arc::ptr_eq(&vm.files, &case.files),
        "the file set is shared, not copied"
    );
    if log.is_none() {
        for (at, data) in &case.packets {
            vm.machine_mut().deliver_packet(*at, data.clone());
        }
    }
    vm.machine_mut().start_run();
    let result = if classic {
        run_classic(&mut vm)
    } else {
        vm.run()
    }
    .map(|outcome| outcome.exit);
    assert_eq!(
        result,
        case.ends,
        "{}: the {} {} ended otherwise than the case says",
        case.name,
        if classic { "classic" } else { "fused" },
        if log.is_none() { "recording" } else { "replay" },
    );
    let (icount, console) = (vm.icount(), vm.console().to_vec());
    let m = vm.machine_mut();
    let tx: Vec<(u64, u128)> = m.take_tx().iter().map(|t| (t.cycle, t.wall_ps)).collect();
    let recorded = log.is_none().then(|| Log {
        packets: m.take_consumed_packets(),
        values: m.drain_logged_values(),
    });
    let fingerprint = format!(
        "icount={icount} cycles={} wall_ps={} console={console:?} tx={tx:?}",
        m.now_cycles(),
        m.now_ps(),
    );
    (fingerprint, recorded)
}

/// Elements in each of [`array_program`]'s arrays.
const ARRAY_LEN: i64 = 5_000;

/// One faulting array access, from an empty stack back to an empty stack
/// had it not thrown: a load (`load`) or a store, of a null array
/// (`null`) or at an index out of bounds.
fn emit_fault(m: &mut MethodAsm<'_>, load: bool, null: bool) {
    use Op::*;
    match (load, null) {
        (true, true) => m.op(AConstNull).op(IConst(0)).op(IALoad).op(Pop),
        (true, false) => m
            .op(IConst(2))
            .op(NewArray(ElemTy::I8))
            .op(IConst(2))
            .op(BALoad)
            .op(Pop),
        (false, true) => m.op(AConstNull).op(IConst(0)).op(LConst(5)).op(LAStore),
        (false, false) => m
            .op(IConst(3))
            .op(NewArray(ElemTy::F64))
            .op(IConst(-1))
            .op(DConst(1.5))
            .op(DAStore),
    };
}

/// `a = new et[N]; for k in 0..N { a[k] = value }`, then
/// `sum = 0; for k in 0..N { sum += widen(a[k]) }; println_l(sum)`, with
/// `a` in local 0, `k` in local 1 and `sum` in local 2.
fn emit_kind(m: &mut MethodAsm<'_>, et: ElemTy, value: &[Op], load: Op, store: Op, widen: &[Op]) {
    use Op::*;
    const N: i32 = ARRAY_LEN as i32;
    m.op(IConst(N)).op(NewArray(et)).op(AStore(0));
    m.op(IConst(0)).op(IStore(1));
    let (top, end) = (m.label(), m.label());
    m.bind(top).op(ILoad(1)).op(IConst(N)).br(IfICmpGe, end);
    m.op(ALoad(0)).op(ILoad(1));
    for op in value {
        m.op(op.clone());
    }
    m.op(store).op(IInc(1, 1)).br(Goto, top).bind(end);
    m.op(LConst(0)).op(LStore(2)).op(IConst(0)).op(IStore(1));
    let (top, end) = (m.label(), m.label());
    m.bind(top).op(ILoad(1)).op(IConst(N)).br(IfICmpGe, end);
    m.op(LLoad(2)).op(ALoad(0)).op(ILoad(1)).op(load);
    for op in widen {
        m.op(op.clone());
    }
    m.op(LAdd)
        .op(LStore(2))
        .op(IInc(1, 1))
        .br(Goto, top)
        .bind(end);
    m.op(LLoad(2)).invoke_native("println_l", 1, false);
}

/// Array loads and stores of every kind, over arrays long enough to span
/// many scheduling quanta. Then a null array and an index out of
/// bounds, each in a load and in a store: caught by a handler in the main
/// thread, and uncaught in a spawned thread (which dies quietly). Last, an
/// uncaught null load ends the main thread and the run with an error.
fn array_program() -> Program {
    use Op::*;
    let faults = [(true, true), (true, false), (false, true), (false, false)];
    let mut b = ProgramBuilder::new();
    let npe = b.class("NullPointerException", None);
    let oob = b.class("ArrayIndexOutOfBoundsException", None);
    let threads: Vec<_> = faults
        .iter()
        .enumerate()
        .map(|(k, &(load, null))| {
            let mut m = b.static_method("Arrays", &format!("fault{k}"), &[], None);
            emit_fault(&mut m, load, null);
            m.op(Return);
            m.finish()
        })
        .collect();
    let mut m = b.static_method("Arrays", "main", &[], None);
    for t in &threads {
        m.op(IConst(t.0 as i32))
            .invoke_native("thread_spawn", 1, true)
            .op(Pop);
    }
    m.invoke_native("thread_yield", 0, false);
    // Each later array evicts the dirty lines its predecessors' stores
    // left (an 8-byte kind's array outgrows L1D), so a store charged as a
    // load would change the writebacks and the cycles.
    let int = |mul| [ILoad(1), IConst(mul), IMul];
    emit_kind(&mut m, ElemTy::I8, &int(3), BALoad, BAStore, &[I2L]);
    emit_kind(&mut m, ElemTy::U16, &int(2000), CALoad, CAStore, &[I2L]);
    emit_kind(&mut m, ElemTy::I32, &int(7), IALoad, IAStore, &[I2L]);
    let long = [ILoad(1), I2L, LConst(1 << 33), LAdd];
    emit_kind(&mut m, ElemTy::I64, &long, LALoad, LAStore, &[]);
    let double = [ILoad(1), I2D, DConst(0.5), DAdd];
    emit_kind(&mut m, ElemTy::F64, &double, DALoad, DAStore, &[D2L]);
    let widen = [ArrayLength, I2L];
    emit_kind(&mut m, ElemTy::Ref, &[ALoad(0)], AALoad, AAStore, &widen);
    for (k, &(load, null)) in faults.iter().enumerate() {
        let (handler, after) = (m.label(), m.label());
        let start = m.here();
        emit_fault(&mut m, load, null);
        let end = m.here();
        m.br(Goto, after).bind(handler).op(Pop);
        m.op(LConst(100 + k as i64))
            .invoke_native("println_l", 1, false);
        m.bind(after);
        m.handler(start, end, handler, Some(if null { npe } else { oob }));
    }
    emit_fault(&mut m, true, true);
    m.op(Return);
    let main = m.finish();
    b.set_entry(main);
    b.link().expect("the array program links")
}

/// [`array_program`], which ends with its last, uncaught null load.
fn array_case() -> Case {
    Case {
        ends: Err(VmError::UncaughtException {
            class: "NullPointerException".to_string(),
        }),
        ..Case::plain("array access".to_string(), array_program())
    }
}

fn cases() -> Vec<Case> {
    let mut cases: Vec<Case> = (0..corpus::GOLDEN_CORPUS_SIZE as u64)
        .map(|k| {
            Case::plain(
                format!("corpus {k}"),
                corpus::corpus_program(corpus::GOLDEN_CORPUS_SEED + k),
            )
        })
        .collect();
    cases.push(Case::plain(
        "scimark fft".to_string(),
        Kernel::Fft.program_small(),
    ));
    cases.push(array_case());
    let files = nfs::make_files(4, 1500, 4000, 5);
    let schedule = nfs::client_schedule(&files, 200_000, 700_000, 4);
    cases.push(Case {
        name: "nfs 8 requests".to_string(),
        program: Arc::new(nfs::server_program(8)),
        files: Arc::new(files),
        packets: schedule.packets.into_iter().take(8).collect(),
        ends: Ok(ExitKind::Completed),
    });
    cases
}

#[test]
fn classic_and_fused_dispatch_agree() {
    for case in cases() {
        let (fused, log) = run(&case, None, false);
        let (classic, classic_log) = run(&case, None, true);
        assert_eq!(fused, classic, "{}: recordings diverged", case.name);
        let (log, classic_log) = (log.expect("recorded"), classic_log.expect("recorded"));
        assert_eq!(
            log.packets, classic_log.packets,
            "{}: logs diverged",
            case.name
        );
        assert_eq!(
            log.values, classic_log.values,
            "{}: logs diverged",
            case.name
        );
        assert_eq!(
            run(&case, Some(&log), false).0,
            run(&case, Some(&log), true).0,
            "{}: TDR replays diverged",
            case.name
        );
    }
}

#[test]
fn array_program_reaches_every_kind_and_fault() {
    // The case above is only as strong as the program: pin what it prints
    // (`run` checks how it ends), so that every kind and every fault is
    // reached under fused dispatch.
    let sum = |f: fn(i64) -> i64| (0..ARRAY_LEN).map(f).sum::<i64>().to_string();
    let mut want = vec![
        sum(|k| (3 * k) as i8 as i64),
        sum(|k| (2000 * k) as u16 as i64),
        sum(|k| 7 * k),
        sum(|k| k + (1 << 33)),
        sum(|k| k),
        (ARRAY_LEN * ARRAY_LEN).to_string(),
    ];
    want.extend((100..104).map(|k: i64| k.to_string()));
    let (fingerprint, _) = run(&array_case(), None, false);
    assert!(
        fingerprint.contains(&format!("console={want:?}")),
        "{fingerprint}"
    );
}
