//! Experiment implementations, one module per paper artifact.

pub mod ablation;
pub mod fig2;
pub mod fig3;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig8_fleet;
pub mod table2;

/// Global harness options.
#[derive(Debug, Clone)]
pub struct Options {
    /// Paper-scale parameters (slower, closer to the original sizes).
    pub full: bool,
    /// Override the per-cell run count (0 = experiment default).
    pub runs: usize,
    /// Output directory for CSV/JSON artifacts.
    pub out_dir: String,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            full: false,
            runs: 0,
            out_dir: "results".to_string(),
        }
    }
}

impl Options {
    /// The effective run count: the override, or the given default.
    pub fn runs_or(&self, default_small: usize, default_full: usize) -> usize {
        if self.runs > 0 {
            self.runs
        } else if self.full {
            default_full
        } else {
            default_small
        }
    }

    /// Write an artifact file under the results directory.
    pub fn write(&self, name: &str, content: &str) {
        let path = format!("{}/{}", self.out_dir, name);
        std::fs::write(&path, content).expect("write artifact");
        eprintln!("[repro] wrote {path}");
    }
}

/// Format picoseconds as milliseconds.
pub fn ps_to_ms(ps: u128) -> f64 {
    ps as f64 / 1e9
}

/// Cycles at the default 100 MHz clock, in milliseconds.
pub fn cycles_to_ms(c: u64) -> f64 {
    c as f64 / 100_000.0
}
