//! Seeded, duplicate-free session corpora: the load generator.
//!
//! Every input the program sees is derived from the workload seed: the
//! session ids, the NFS client schedules, the covert-channel
//! messages and the LOOKUP arrival gaps. Sessions are recorded on the
//! reference machine and shipped to the program as TDRB bytes only.
//! Recording, encoding and sealing are the load generator's work and run
//! outside every timed phase.

use std::fs::{File, OpenOptions};
use std::hash::{Hash, Hasher};
use std::io::{Read, Seek, Write};
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::{Arc, Mutex};

use audit_pipeline::{ingest, AuditJob};
use channels::{message_bits, Ipctc, Mbctc, Needle, TimingChannel, Trctc};
use jbc::{Program, ReferenceId};
use machine::MachineConfig;
use replay::Recorded;
use vm::{TargetSendTimes, Vm, VmConfig};
use workloads::artifacts::registry_artifacts;
use workloads::nfs::{self, OP_GETATTR, OP_LOOKUP, OP_READ};

use crate::Workload;

/// NFS file set: 14 files of 2–6 KiB. The files are the reference's
/// stable storage, part of the deployment rather than of the traffic, so
/// their seed is fixed.
const NFS_FILES: usize = 14;
const NFS_FILE_BYTES: (usize, usize) = (2048, 6 * 1024);
const NFS_FILE_SEED: u64 = 0xF1EE7;
/// Each NFS session's 14 requests, in a seeded order: the mix is fixed so
/// that every seed asks for about the same work and the seed-to-seed
/// spread is the host's.
const NFS_OPS: [u8; 14] = [
    OP_READ, OP_READ, OP_READ, OP_READ, OP_READ, OP_READ, OP_READ, OP_READ, OP_READ, OP_READ,
    OP_GETATTR, OP_GETATTR, OP_LOOKUP, OP_LOOKUP,
];
/// Mean legitimate inter-request gap, cycles (the Fig. 8 fleet setting).
const NFS_MEAN_GAP: u64 = 740_000;
/// Clean sessions the NFS battery trains on.
const NFS_TRAIN_SESSIONS: usize = 8;
/// One NFS session in this many carries a covert channel.
const COVERT_EVERY: u64 = 8;
const CHANNELS: [&str; 4] = ["IPCTC", "TRCTC", "MBCTC", "Needle"];
/// Generator threads: the host has two cores.
const GEN_THREADS: usize = 2;

/// SplitMix64: a small, seedable generator, so the inputs depend on the
/// seed alone and not on any library's stream.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `(0, 1]`.
    fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}

/// Derive an independent stream seed from `seed` and a `salt`.
fn mix(seed: u64, salt: u64) -> u64 {
    Rng::new(seed ^ salt.wrapping_mul(0xd6e8_feb8_6659_fd93)).next_u64()
}

/// A 64-bit content digest (for duplicate detection and bitwise checks).
pub fn digest(bytes: &[u8]) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    bytes.hash(&mut h);
    h.finish()
}

/// One TDRB batch of the corpus.
pub struct Batch {
    /// Correlation id, unique within the run.
    pub id: u64,
    pub sessions: u64,
    /// Sessions armed with a covert channel.
    pub covert: u64,
    /// Where its TDRB bytes sit in the corpus file.
    offset: u64,
    len: usize,
}

/// Everything the load generator prepared for one run. Batches are
/// recorded in installments ([`Corpus::record`]); a batch's content
/// depends on its index alone.
pub struct Corpus {
    workload: Workload,
    seed: u64,
    /// The reference program the deployment audits against.
    pub program: Arc<Program>,
    /// Its sealed TDRP container (what `PutReference` ships) and the
    /// content-derived id a daemon must answer with.
    pub tdrp: Vec<u8>,
    pub reference_id: ReferenceId,
    /// Stable storage of the NFS reference (empty otherwise).
    pub files: Vec<Vec<u8>>,
    /// Clean IPD traces the NFS battery trains on (empty otherwise).
    pub train_ipds: Vec<Vec<u64>>,
    /// Flattened training IPDs: the legitimate sample channels shape to.
    legit: Vec<u64>,
    /// The run's first session id; the others follow consecutively.
    base: u64,
    /// Batches in the run, and how many of them warm up.
    batches: usize,
    warmup_batches: usize,
    /// Warm-up batches, then timed batches, as recorded so far.
    pub warmup: Vec<Batch>,
    pub timed: Vec<Batch>,
    /// The batches' TDRB bytes. They wait on disk, not in memory, so the
    /// process's peak resident set is the deployment's, not the corpus's.
    /// The file is unlinked as soon as it is created.
    file: File,
    /// Bytes written to `file`.
    end: u64,
    /// Digests of every session log recorded, for the duplicate check:
    /// also on disk, so they do not add to the deployment's peak.
    logs: File,
}

impl Corpus {
    /// Prepare a corpus of `batches` batches of `workload.batch_sessions()`
    /// distinct sessions each, the first `warmup` of them for warm-up, in
    /// a scratch file under `dir`. This records only the NFS battery's
    /// training sessions; [`Corpus::record`] records the batches.
    pub fn new(
        workload: Workload,
        seed: u64,
        batches: usize,
        warmup: usize,
        dir: &Path,
    ) -> Result<Corpus, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let scratch = |name: &str| -> Result<File, String> {
            let path = dir.join(format!("{name}-{}", std::process::id()));
            let file = OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(true)
                .open(&path)
                .map_err(|e| format!("creating {}: {e}", path.display()))?;
            std::fs::remove_file(&path)
                .map_err(|e| format!("unlinking {}: {e}", path.display()))?;
            Ok(file)
        };
        let program = match workload {
            Workload::NfsDaemon => nfs::server_program(NFS_OPS.len() as i32),
            Workload::LookupFleet => registry_artifacts()
                .into_iter()
                .find(|(name, _)| *name == "nfs_server")
                .map(|(_, program)| program)
                .ok_or("the registry artifact set has no nfs_server")?,
        };
        let files = match workload {
            Workload::NfsDaemon => {
                nfs::make_files(NFS_FILES, NFS_FILE_BYTES.0, NFS_FILE_BYTES.1, NFS_FILE_SEED)
            }
            _ => Vec::new(),
        };
        let mut corpus = Corpus {
            workload,
            seed,
            tdrp: jbc::container::seal(&program),
            reference_id: jbc::container::reference_id(&program),
            program: Arc::new(program),
            files,
            train_ipds: Vec::new(),
            legit: Vec::new(),
            // Session ids: one seeded base, then consecutive, so every id in
            // the run is distinct and the coordinator's `id mod 2` split is
            // even.
            base: mix(seed, 0x1d5) % (1 << 40),
            batches,
            warmup_batches: warmup,
            warmup: Vec::new(),
            timed: Vec::new(),
            file: scratch("corpus.tdrb")?,
            end: 0,
            logs: scratch("logs")?,
        };
        if workload == Workload::NfsDaemon {
            let per_batch = workload.batch_sessions() as u64;
            let train_base = corpus.base + batches as u64 * per_batch;
            for k in 0..NFS_TRAIN_SESSIONS as u64 {
                let ipds = corpus.session(train_base + k, None)?.observed_ipds;
                corpus.train_ipds.push(ipds);
            }
            corpus.legit = corpus.train_ipds.iter().flatten().copied().collect();
        }
        Ok(corpus)
    }

    /// Record the next `count` batches of the run (fewer if the run has
    /// fewer left) on `GEN_THREADS` threads.
    pub fn record(&mut self, count: usize) -> Result<(), String> {
        let first_batch = self.warmup.len() + self.timed.len();
        let indexes: Vec<usize> = (first_batch..self.batches.min(first_batch + count)).collect();
        let per_batch = self.workload.batch_sessions() as u64;
        let file_end = Mutex::new(self.end);
        let mut recorded: Vec<(usize, Batch, Vec<u64>)> = Vec::new();
        // Each generator thread records every GEN_THREADS-th batch; a
        // batch's content depends on its index alone, not on the split.
        let (this, end, indexes) = (&*self, &file_end, &indexes);
        std::thread::scope(|scope| -> Result<(), String> {
            let handles: Vec<_> = (0..GEN_THREADS)
                .map(|t| {
                    scope.spawn(move || -> Result<Vec<(usize, Batch, Vec<u64>)>, String> {
                        let mut out = Vec::new();
                        for &b in indexes.iter().skip(t).step_by(GEN_THREADS) {
                            let first = this.base + b as u64 * per_batch;
                            let mut jobs = Vec::with_capacity(per_batch as usize);
                            let mut covert = 0;
                            for sid in first..first + per_batch {
                                let k = sid - this.base;
                                let arm = (this.workload == Workload::NfsDaemon
                                    && k % COVERT_EVERY == COVERT_EVERY - 1)
                                    .then_some((k / COVERT_EVERY) as usize);
                                covert += arm.is_some() as u64;
                                jobs.push(this.session(sid, arm)?);
                            }
                            let logs = jobs.iter().map(|j| digest(&j.log.encode())).collect();
                            let tdrb = ingest::encode_batch(&jobs);
                            let offset = {
                                let mut end = end.lock().expect("corpus file lock");
                                let offset = *end;
                                *end += tdrb.len() as u64;
                                offset
                            };
                            this.file
                                .write_all_at(&tdrb, offset)
                                .map_err(|e| format!("writing the corpus file: {e}"))?;
                            let batch = Batch {
                                id: b as u64 + 1,
                                sessions: per_batch,
                                covert,
                                offset,
                                len: tdrb.len(),
                            };
                            out.push((b, batch, logs));
                        }
                        Ok(out)
                    })
                })
                .collect();
            for h in handles {
                recorded.extend(h.join().map_err(|_| "generator thread panicked")??);
            }
            Ok(())
        })?;
        self.end = file_end.into_inner().expect("corpus file lock");
        recorded.sort_unstable_by_key(|&(b, ..)| b);
        for (b, batch, logs) in recorded {
            let bytes: Vec<u8> = logs.iter().flat_map(|d| d.to_le_bytes()).collect();
            self.logs
                .write_all(&bytes)
                .map_err(|e| format!("writing the log digests: {e}"))?;
            if b < self.warmup_batches {
                self.warmup.push(batch);
            } else {
                self.timed.push(batch);
            }
        }
        Ok(())
    }

    /// Check that no two sessions recorded so far share a log.
    pub fn check_distinct_logs(&mut self) -> Result<(), String> {
        let mut bytes = Vec::new();
        self.logs
            .rewind()
            .and_then(|()| self.logs.read_to_end(&mut bytes))
            .map_err(|e| format!("reading the log digests: {e}"))?;
        let mut digests: Vec<u64> = bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
            .collect();
        digests.sort_unstable();
        if digests.windows(2).any(|w| w[0] == w[1]) {
            return Err("two sessions share a log: the corpus must be duplicate-free".into());
        }
        Ok(())
    }

    pub fn batches(&self) -> impl Iterator<Item = &Batch> {
        self.warmup.iter().chain(&self.timed)
    }

    /// A batch's TDRB bytes.
    pub fn tdrb(&self, batch: &Batch) -> Result<Vec<u8>, String> {
        let mut bytes = vec![0; batch.len];
        self.file
            .read_exact_at(&mut bytes, batch.offset)
            .map_err(|e| format!("reading batch {} from the corpus file: {e}", batch.id))?;
        Ok(bytes)
    }

    fn record_session(&self, run: u64, setup: impl FnOnce(&mut Vm)) -> Result<Recorded, String> {
        let files = self.files.clone();
        replay::record(
            Arc::clone(&self.program),
            MachineConfig::sanity(),
            VmConfig::default(),
            run,
            |vm| {
                vm.set_files(files);
                setup(vm);
            },
        )
        .map_err(|e| format!("recording session failed: {e}"))
    }

    /// The session's seeded client schedule: `(arrival cycle, request)`.
    fn schedule(&self, sid: u64) -> Vec<(u64, Vec<u8>)> {
        let mut rng = Rng::new(mix(self.seed, sid));
        match self.workload {
            Workload::NfsDaemon => {
                let mut ops = NFS_OPS;
                for i in (1..ops.len()).rev() {
                    ops.swap(i, rng.below(i as u64 + 1) as usize);
                }
                let mut t = 200_000;
                ops.into_iter()
                    .map(|op| {
                        let fid = rng.below(NFS_FILES as u64) as usize;
                        // Whole chunks only, so every READ moves MAX_READ bytes.
                        let chunks = self.files[fid].len() / nfs::MAX_READ;
                        let off = rng.below(chunks as u64) as usize * nfs::MAX_READ;
                        let len = nfs::MAX_READ;
                        let at = t;
                        // Bursty legitimate gaps: lognormal around the mean.
                        let z = (-2.0 * rng.unit().ln()).sqrt()
                            * (2.0 * std::f64::consts::PI * rng.unit()).cos();
                        t += ((NFS_MEAN_GAP as f64) * (0.12 * z).exp()).max(1000.0) as u64;
                        (
                            at,
                            nfs::encode_request(op, fid as u8, off as u16, len as u16),
                        )
                    })
                    .collect()
            }
            Workload::LookupFleet => {
                let mut t = 150_000 + rng.below(100_000);
                (0..workloads::artifacts::NFS_ARTIFACT_REQUESTS)
                    .map(|_| {
                        let at = t;
                        t += 300_000 + rng.below(400_000);
                        (
                            at,
                            nfs::encode_request(OP_LOOKUP, rng.below(256) as u8, 0, 0),
                        )
                    })
                    .collect()
            }
        }
    }

    fn deliver(vm: &mut Vm, schedule: Vec<(u64, Vec<u8>)>) {
        for (at, pkt) in schedule {
            vm.machine_mut().deliver_packet(at, pkt);
        }
    }

    /// Record session `sid`; `covert` arms the `k`-th channel of the
    /// rotation on its sends.
    fn session(&self, sid: u64, covert: Option<usize>) -> Result<AuditJob, String> {
        let run = mix(self.seed, sid ^ 0x5e55_1017);
        let clean = self.record_session(run, |vm| Self::deliver(vm, self.schedule(sid)))?;
        let rec = match covert {
            None => clean,
            Some(k) => {
                let base_ipds = clean.tx_ipds_cycles();
                let base_sends: Vec<u64> = clean.tx.iter().map(|t| t.cycle).collect();
                let ipds = covert_ipds(
                    CHANNELS[k % CHANNELS.len()],
                    &base_ipds,
                    &self.legit,
                    mix(self.seed, sid ^ 0xc0de),
                );
                let targets = targets_from_ipds(&base_sends, &ipds);
                self.record_session(run, |vm| {
                    Self::deliver(vm, self.schedule(sid));
                    vm.set_delay_model(Box::new(TargetSendTimes::new(targets)));
                })?
            }
        };
        Ok(AuditJob {
            session_id: sid,
            observed_ipds: rec.tx_ipds_cycles(),
            log: rec.log,
        })
    }
}

/// A covert IPD sequence of `base.len()` delays carrying a seeded
/// message, encoded the way `repro fig8-fleet` arms its sessions.
fn covert_ipds(channel: &str, base: &[u64], legit: &[u64], seed: u64) -> Vec<u64> {
    let n = base.len();
    let bits = message_bits(n, seed);
    let mut out = match channel {
        "IPCTC" => {
            Ipctc::new(legit.iter().sum::<u64>() / legit.len() as u64 / 2).encode(&bits, legit)
        }
        "TRCTC" => Trctc::new(seed).encode(&bits, legit),
        "MBCTC" => Mbctc::new(64, seed).encode(&bits, legit),
        _ => {
            // A framed needle: the start bit perturbs the first packet.
            let mut bits = message_bits(1, seed);
            bits[0] = true;
            Needle::new(n, 0.40).encode(&bits, base)
        }
    };
    out.truncate(n);
    out
}

/// Absolute send targets realising `ipds`, anchored so that no packet
/// leaves before its clean send time.
fn targets_from_ipds(base_sends: &[u64], ipds: &[u64]) -> Vec<u64> {
    let n = base_sends.len().min(ipds.len() + 1);
    let mut rel = Vec::with_capacity(n);
    let mut t = 0u64;
    rel.push(0);
    for &d in ipds.iter().take(n.saturating_sub(1)) {
        t += d;
        rel.push(t);
    }
    let offset = base_sends
        .iter()
        .zip(&rel)
        .map(|(&b, &c)| b.saturating_sub(c))
        .max()
        .unwrap_or(0)
        + 150_000;
    rel.iter().map(|&c| c + offset).collect()
}
