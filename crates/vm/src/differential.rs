//! Differential test: [`Vm::run`]'s fused dispatch against the classic
//! loop it replaced, which calls [`Vm::step`] once per instruction. Each
//! program is recorded and then time-deterministically replayed from that
//! recording, under both loops. Instruction count, cycles, wall-clock
//! picoseconds, console output and every transmission time must agree:
//! fused dispatch may skip host work, never simulated work.

use std::sync::Arc;

use jbc::Program;
use machine::{Machine, MachineConfig, Seeds, StEntry};
use workloads::{corpus, nfs, scimark::Kernel};

use crate::{ReplayStyle, RunOutcome, Vm, VmConfig, VmError};

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
        exit: crate::ExitKind::Completed,
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
    files: Vec<Vec<u8>>,
    packets: Vec<(u64, Vec<u8>)>,
}

impl Case {
    fn plain(name: String, program: Program) -> Case {
        Case {
            name,
            program: Arc::new(program),
            files: Vec::new(),
            packets: Vec::new(),
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
/// otherwise a TDR replay of `log` on another run's noise seed. Returns
/// the run's fingerprint and, for a recording, its log.
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
    vm.set_files(case.files.clone());
    if log.is_none() {
        for (at, data) in &case.packets {
            vm.machine_mut().deliver_packet(*at, data.clone());
        }
    }
    vm.machine_mut().start_run();
    let outcome = if classic {
        run_classic(&mut vm)
    } else {
        vm.run()
    }
    .expect("program runs");
    let m = vm.machine_mut();
    let tx: Vec<(u64, u128)> = m.take_tx().iter().map(|t| (t.cycle, t.wall_ps)).collect();
    let recorded = log.is_none().then(|| Log {
        packets: m.take_consumed_packets(),
        values: m.drain_logged_values(),
    });
    let fingerprint = format!(
        "icount={} cycles={} wall_ps={} console={:?} tx={tx:?}",
        outcome.icount, outcome.cycles, outcome.wall_ps, outcome.console
    );
    (fingerprint, recorded)
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
    let files = nfs::make_files(4, 1500, 4000, 5);
    let schedule = nfs::client_schedule(&files, 200_000, 700_000, 4);
    cases.push(Case {
        name: "nfs 8 requests".to_string(),
        program: Arc::new(nfs::server_program(8)),
        files,
        packets: schedule.packets.into_iter().take(8).collect(),
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
