//! The evaluation workloads as loadable reference artifacts.
//!
//! The reference-program registry (`docs/FORMATS.md` §7) ships programs
//! over the wire as sealed TDRP containers; this module names the corpus
//! programs a fleet deployment registers — the same programs the rest of
//! this crate compiles in — so `tdrd --export-references` and the bench
//! suite agree on one artifact set.
//!
//! Registry references travel *program-only* (no stable-storage file set,
//! no trained battery), so the set is restricted to programs whose
//! recorded sessions do not touch files: the SciMark kernels compute
//! pure-functionally, the NFS server's `OP_LOOKUP` path never calls
//! `file_read`/`file_size`, and corpus programs only transmit.

use jbc::Program;

use crate::corpus::{corpus_program, GOLDEN_CORPUS_SEED};
use crate::nfs::server_program;
use crate::scimark::fft_program;

/// Requests the exported NFS reference serves per session (LOOKUP-only
/// sessions — see the module docs).
pub const NFS_ARTIFACT_REQUESTS: i32 = 4;

/// FFT size of the exported SciMark reference: large enough to be real
/// compute, small enough that recording a session stays inside the VM's
/// instruction budget (256-point sessions exceed it).
pub const FFT_ARTIFACT_POINTS: i32 = 64;

/// The named reference programs a deployment registers: SciMark FFT, the
/// NFS server, and the first golden-corpus member. Deterministic — the
/// same names always seal to the same TDRP bytes (and therefore the same
/// reference ids).
pub fn registry_artifacts() -> Vec<(&'static str, Program)> {
    vec![
        ("scimark_fft", fft_program(FFT_ARTIFACT_POINTS)),
        ("nfs_server", server_program(NFS_ARTIFACT_REQUESTS)),
        ("corpus_0", corpus_program(GOLDEN_CORPUS_SEED)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifacts_verify_and_have_stable_distinct_ids() {
        let a = registry_artifacts();
        let b = registry_artifacts();
        assert_eq!(a.len(), b.len());
        let mut ids = Vec::new();
        for ((name_a, prog_a), (name_b, prog_b)) in a.iter().zip(&b) {
            assert_eq!(name_a, name_b);
            jbc::verify(prog_a).expect("artifact verifies");
            let id_a = jbc::container::reference_id(prog_a);
            assert_eq!(
                id_a,
                jbc::container::reference_id(prog_b),
                "{name_a} id is stable"
            );
            ids.push(id_a);
        }
        ids.sort_by_key(|id| id.0);
        ids.dedup();
        assert_eq!(ids.len(), a.len(), "artifact ids are distinct");
    }

    /// Pins each artifact's reference id: a change to one of these
    /// programs, or to the canonical TDRP encoding, shows up here.
    #[test]
    fn artifact_ids_are_pinned() {
        let pinned = [
            (
                "scimark_fft",
                "b41526077966c5d7f636d0a236a111ce5e0cf3e2ef0fe45d071a01101967f7da",
            ),
            (
                "nfs_server",
                "fac5b81dc3b7461ff85e697661e07c283ff4407a1d16f270d1d83f093edbdff2",
            ),
            (
                "corpus_0",
                "37281bbe853e5bad26231f54fd86cddd67a3ed167fc36e847e5dfe0878b4677e",
            ),
        ];
        let artifacts = registry_artifacts();
        assert_eq!(artifacts.len(), pinned.len());
        for ((name, program), (want_name, want_id)) in artifacts.iter().zip(pinned) {
            let id = jbc::container::reference_id(program).to_hex();
            assert_eq!((*name, id.as_str()), (want_name, want_id));
        }
    }
}
