//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span is a stage name, an id (batch or session), the id of the batch
//! span that caused it, and start/end offsets from the run's epoch.
//! Spans stay in memory and are written out once, when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// The stage vocabulary. The layer names match the live per-stage
/// telemetry the daemon is meant to export, so lab and production
/// attribution use one set of names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// A client batch, submit to summary (the root of every other span).
    Batch,
    /// Zero-length event: the batch's first Verdict arrived.
    FirstVerdict,
    IngestDecode,
    RegistryLoad,
    RegistryCheckout,
    Replay,
    DetectorsScore,
    ControlEncode,
    ControlDecode,
    VerdictAggregate,
    CoordRoute,
}

impl Stage {
    pub fn name(self) -> &'static str {
        match self {
            Stage::Batch => "batch",
            Stage::FirstVerdict => "first_verdict",
            Stage::IngestDecode => "ingest.decode",
            Stage::RegistryLoad => "registry.load",
            Stage::RegistryCheckout => "registry.checkout",
            Stage::Replay => "replay",
            Stage::DetectorsScore => "detectors.score",
            Stage::ControlEncode => "control.encode",
            Stage::ControlDecode => "control.decode",
            Stage::VerdictAggregate => "verdict.aggregate",
            Stage::CoordRoute => "coord.route",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub stage: Stage,
    pub id: u64,
    /// Id of the causing batch span; 0 for a root.
    pub parent: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when enabled; a disabled tracer only runs the closures.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant, enabled: bool) -> Self {
        Tracer {
            epoch,
            enabled,
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Record a span that started at `start_ns` and ends now.
    pub fn close(&mut self, stage: Stage, id: u64, parent: u64, start_ns: u64) {
        if self.enabled {
            let end_ns = self.now_ns();
            self.spans.push(Span {
                stage,
                id,
                parent,
                start_ns,
                end_ns,
            });
        }
    }

    /// Run `f` inside a span.
    pub fn time<T>(&mut self, stage: Stage, id: u64, parent: u64, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start_ns = self.now_ns();
        let out = f();
        self.close(stage, id, parent, start_ns);
        out
    }
}

/// Self time of every `Batch` span: its duration minus the part of it
/// that its child spans cover. Other spans have no children, so their self
/// time is their duration.
pub fn batch_self_ns(spans: &[Span]) -> Vec<(u64, u64)> {
    let mut children: std::collections::HashMap<u64, Vec<(u64, u64)>> = Default::default();
    for s in spans.iter().filter(|s| s.stage != Stage::Batch) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .filter(|s| s.stage == Stage::Batch)
        .map(|b| {
            let mut iv: Vec<(u64, u64)> = children
                .get(&b.id)
                .map(|c| {
                    c.iter()
                        .map(|&(s, e)| (s.max(b.start_ns), e.min(b.end_ns)))
                        .filter(|(s, e)| s < e)
                        .collect()
                })
                .unwrap_or_default();
            iv.sort_unstable();
            let (mut covered, mut reach) = (0, b.start_ns);
            for (s, e) in iv {
                let s = s.max(reach);
                if e > s {
                    covered += e - s;
                    reach = e;
                }
            }
            (b.id, b.ns() - covered)
        })
        .collect()
}

/// Write every span as one tab-separated line: stage, id, parent, start,
/// end (ns from the run's epoch).
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "stage\tid\tparent\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}",
            s.stage.name(),
            s.id,
            s.parent,
            s.start_ns,
            s.end_ns
        )?;
    }
    out.flush()
}
