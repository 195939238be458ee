//! Method invocation, native calls, exception throw, and monitors.

use std::collections::VecDeque;

use jbc::{MethodId, NativeId, Op, OpClass, Program};

use crate::error::VmError;
use crate::heap::HeapObj;
use crate::natives::NativeKind;
use crate::value::{Value, NULL};
use crate::vmcore::{MonitorState, ReplayStyle, ThreadState, Vm};

/// `InvokeStatic`.
pub(crate) fn invoke_static(
    vm: &mut Vm,
    program: &Program,
    m: MethodId,
    pc: u64,
    cls: OpClass,
) -> Result<(), VmError> {
    let callee = program.method(m);
    let n = callee.params.len();
    let args = {
        let f = vm.frame();
        f.stack.split_off(f.stack.len() - n)
    };
    vm.charge(cls, pc, &[], Some((true, callee.code_base)));
    vm.push_frame(program, m, args)
}

/// `InvokeVirtual`/`InvokeSpecial` — may throw NPE on a null receiver.
pub(crate) fn invoke_instance(
    vm: &mut Vm,
    program: &Program,
    op: &Op,
    m: MethodId,
    pc: u64,
    cls: OpClass,
) -> Result<(), VmError> {
    let declared = program.method(m);
    let n = declared.params.len();
    let (mut args, recv) = {
        let f = vm.frame();
        let args = f.stack.split_off(f.stack.len() - n);
        let recv = f.stack.pop().expect("verified").as_ref();
        (args, recv)
    };
    if recv == NULL {
        vm.charge(cls, pc, &[], None);
        return vm.throw_builtin(program, "NullPointerException");
    }
    let target = if matches!(op, Op::InvokeVirtual(_)) {
        match vm.heap.get(recv) {
            HeapObj::Obj { class, .. } => program.resolve_virtual(m, *class),
            _ => m,
        }
    } else {
        m
    };
    // The vtable lookup reads the receiver header.
    let header = vm.heap.header_addr(recv);
    vm.charge(
        cls,
        pc,
        &[(header, false)],
        Some((true, program.method(target).code_base)),
    );
    args.insert(0, Value::Ref(recv));
    vm.push_frame(program, target, args)
}

/// `InvokeNative` — charge, then run the native.
pub(crate) fn invoke_native(
    vm: &mut Vm,
    program: &Program,
    nid: NativeId,
    pc: u64,
    cls: OpClass,
) -> Result<(), VmError> {
    let kind = vm.natives[nid.0 as usize];
    vm.charge(cls, pc, &[], None);
    call_native(vm, program, kind)
}

/// `AThrow`.
pub(crate) fn athrow(vm: &mut Vm, program: &Program, pc: u64, cls: OpClass) -> Result<(), VmError> {
    let exc = vm.pop().as_ref();
    vm.charge(cls, pc, &[], None);
    if exc == NULL {
        return vm.throw_builtin(program, "NullPointerException");
    }
    vm.raise(program, exc)
}

/// `MonitorEnter` — may block the current thread.
pub(crate) fn monitor_enter(
    vm: &mut Vm,
    program: &Program,
    pc: u64,
    cls: OpClass,
) -> Result<(), VmError> {
    let h = vm.pop().as_ref();
    vm.charge(cls, pc, &[], None);
    if h == NULL {
        return vm.throw_builtin(program, "NullPointerException");
    }
    let cur = vm.cur;
    match vm.monitors.get_mut(&h) {
        None => {
            vm.monitors.insert(
                h,
                MonitorState {
                    owner: cur,
                    count: 1,
                    waiting: VecDeque::new(),
                },
            );
        }
        Some(m) if m.owner == cur => m.count += 1,
        Some(m) => {
            m.waiting.push_back(cur);
            vm.threads[cur].state = ThreadState::Blocked(h);
            vm.budget = 0; // Force rotation.
        }
    }
    Ok(())
}

/// `MonitorExit` — may wake a blocked thread.
pub(crate) fn monitor_exit(
    vm: &mut Vm,
    program: &Program,
    pc: u64,
    cls: OpClass,
) -> Result<(), VmError> {
    let h = vm.pop().as_ref();
    vm.charge(cls, pc, &[], None);
    if h == NULL {
        return vm.throw_builtin(program, "NullPointerException");
    }
    let cur = vm.cur;
    match vm.monitors.get_mut(&h) {
        Some(m) if m.owner == cur => {
            m.count -= 1;
            if m.count == 0 {
                if let Some(next) = m.waiting.pop_front() {
                    m.owner = next;
                    m.count = 1;
                    vm.threads[next].state = ThreadState::Runnable;
                } else {
                    vm.monitors.remove(&h);
                }
            }
            Ok(())
        }
        _ => vm.throw_builtin(program, "IllegalMonitorStateException"),
    }
}

/// The native interface (§3.4): every host-provided primitive.
pub(crate) fn call_native(vm: &mut Vm, program: &Program, kind: NativeKind) -> Result<(), VmError> {
    match kind {
        NativeKind::NanoTime => {
            let produced = (vm.machine.now_ps() / 1000) as u64;
            let v = vm.machine.event_value(produced);
            vm.push(Value::I64(v as i64));
        }
        NativeKind::InstrCount => {
            let v = vm.icount;
            vm.push(Value::I64(v as i64));
        }
        NativeKind::PrintlnI => {
            let v = vm.pop().as_i32();
            vm.console.push(v.to_string());
        }
        NativeKind::PrintlnL => {
            let v = vm.pop().as_i64();
            vm.console.push(v.to_string());
        }
        NativeKind::PrintlnD => {
            let v = vm.pop().as_f64();
            vm.console.push(format!("{v:.6}"));
        }
        NativeKind::PrintlnS => {
            let h = vm.pop().as_ref();
            let s = match vm.heap.get(h) {
                HeapObj::Str(s) => s.clone(),
                other => format!("{other:?}"),
            };
            vm.console.push(s);
        }
        NativeKind::NetRecv => {
            let buf = vm.pop().as_ref();
            if buf == NULL {
                return vm.throw_builtin(program, "NullPointerException");
            }
            let icount = vm.icount;
            match vm.machine.poll_packet(icount) {
                Some((data, _ts)) => {
                    let payload = vm.heap.payload_addr(buf);
                    let n = match vm.heap.get_mut(buf) {
                        HeapObj::ArrI8(a) => {
                            let n = a.len().min(data.len());
                            for (dst, src) in a.iter_mut().zip(data.iter()) {
                                *dst = *src as i8;
                            }
                            n
                        }
                        _ => panic!("net_recv needs byte[]"),
                    };
                    vm.machine.bulk_touch(payload, n as u64, true);
                    vm.push(Value::I32(n as i32));
                }
                None => vm.push(Value::I32(-1)),
            }
        }
        NativeKind::NetSend => {
            let len = vm.pop().as_i32();
            let buf = vm.pop().as_ref();
            if buf == NULL {
                return vm.throw_builtin(program, "NullPointerException");
            }
            let data: Vec<u8> = match vm.heap.get(buf) {
                HeapObj::ArrI8(a) => a
                    .iter()
                    .take(len.max(0) as usize)
                    .map(|&b| b as u8)
                    .collect(),
                _ => panic!("net_send needs byte[]"),
            };
            let payload = vm.heap.payload_addr(buf);
            vm.machine.bulk_touch(payload, data.len() as u64, false);
            vm.machine.send_packet(&data);
            vm.send_count += 1;
        }
        NativeKind::WaitPacket => {
            match vm.cfg.replay_style {
                // The functional baseline skips waits entirely — the
                // XenTT behavior that makes replay faster than play in
                // the idle phases of Fig. 3.
                ReplayStyle::Functional => {}
                ReplayStyle::Play | ReplayStyle::Tdr => {
                    let now = vm.machine.now_cycles();
                    if now > vm.cfg.cycle_limit {
                        return Err(VmError::InstrLimit);
                    }
                    match vm.machine.next_packet_ready_at() {
                        // Already consumable.
                        Some(t) if t <= now => {}
                        // Sleep exactly until the (logged) arrival.
                        Some(t) => vm.machine.idle(t - now),
                        // Nothing in flight: sleep one poll quantum; the
                        // caller's receive loop re-invokes us.
                        None => vm.machine.idle(10_000),
                    }
                }
            }
        }
        NativeKind::CovertDelay => {
            let (idx, now) = (vm.send_count, vm.machine.now_cycles());
            if let Some(m) = vm.delay.as_mut() {
                let d = m.next_delay_cycles(idx, now);
                if d > 0 {
                    vm.machine.idle(d);
                }
            }
        }
        NativeKind::DelayCycles => {
            let n = vm.pop().as_i64();
            if n > 0 {
                vm.machine.idle(n as u64);
            }
        }
        NativeKind::FileRead => {
            let buf = vm.pop().as_ref();
            let offset = vm.pop().as_i32();
            let fid = vm.pop().as_i32();
            if buf == NULL {
                return vm.throw_builtin(program, "NullPointerException");
            }
            let data = vm
                .files
                .get(fid.max(0) as usize)
                .map_or(&[][..], Vec::as_slice);
            let off = (offset.max(0) as usize).min(data.len());
            let payload = vm.heap.payload_addr(buf);
            let n = match vm.heap.get_mut(buf) {
                HeapObj::ArrI8(a) => {
                    let n = a.len().min(data.len() - off);
                    for (dst, src) in a.iter_mut().zip(data[off..off + n].iter()) {
                        *dst = *src as i8;
                    }
                    n
                }
                _ => panic!("file_read needs byte[]"),
            };
            // Device latency + copy into the heap.
            let lba = ((fid.max(0) as u64) << 20) | off as u64;
            vm.machine.storage_read(lba, n as u64);
            vm.machine.bulk_touch(payload, n.max(1) as u64, true);
            vm.push(Value::I32(n as i32));
        }
        NativeKind::FileSize => {
            let fid = vm.pop().as_i32();
            let n = vm
                .files
                .get(fid.max(0) as usize)
                .map(|f| f.len() as i32)
                .unwrap_or(-1);
            vm.push(Value::I32(n));
        }
        NativeKind::ThreadSpawn => {
            let mid = vm.pop().as_i32();
            if mid < 0 || mid as usize >= program.methods.len() {
                return Err(VmError::Load(format!("thread_spawn: bad method id {mid}")));
            }
            let tid = vm.spawn_thread(MethodId(mid as u16))?;
            vm.push(Value::I32(tid as i32));
        }
        NativeKind::ThreadYield => {
            vm.budget = 0;
        }
        NativeKind::MathSin => {
            let x = vm.pop().as_f64();
            vm.push(Value::F64(x.sin()));
        }
        NativeKind::MathCos => {
            let x = vm.pop().as_f64();
            vm.push(Value::F64(x.cos()));
        }
        NativeKind::MathSqrt => {
            let x = vm.pop().as_f64();
            vm.push(Value::F64(x.sqrt()));
        }
    }
    Ok(())
}
