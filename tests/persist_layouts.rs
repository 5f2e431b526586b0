//! The persisted-outcome contract of the journal and the artifact store:
//!
//! * a layout-3 journal (memory stored whole, written before layout 4
//!   existed) still decodes and resumes bit-identically to a fresh run;
//! * a persisting runner encodes each job once, in layout 4 (a memory
//!   delta against the named input image), and writes the same bytes to
//!   the journal, the store and `JobResult::entry`; a store hit passes
//!   the bytes it read on unchanged;
//! * every reader of persisted bytes (`decode_entry`,
//!   `ArtifactStore::get`) answers truncated, flipped, digit-swapped,
//!   overwritten or shortened bytes with `None` or a decoded outcome,
//!   never a panic.

mod mutate;

use mutate::{mutate, mutation_strategy};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use wishbranch_compiler::BinaryVariant;
use wishbranch_core::journal::decode_entry;
use wishbranch_core::{ArtifactStore, ExperimentConfig, JobResult, SweepJob, SweepRunner};
use wishbranch_workloads::InputSet;

/// A layout-3 journal of three quick-scale jobs (see [`fixture_jobs`]),
/// written by the layout-3 encoder before layout 4 replaced it.
const LAYOUT3_JOURNAL: &str = include_str!("fixtures/journal_v3.jsonl");

/// The experiment configuration the fixture was written under.
fn fixture_config() -> ExperimentConfig {
    ExperimentConfig::quick(20)
}

/// The fixture's jobs, in journal order: the two benchmarks with the
/// smallest inputs (crafty, twolf) under three variants and inputs.
fn fixture_jobs(ec: &ExperimentConfig) -> Vec<SweepJob> {
    vec![
        SweepJob::standard(3, BinaryVariant::NormalBranch, InputSet::A, ec),
        SweepJob::standard(8, BinaryVariant::WishJumpJoinLoop, InputSet::C, ec),
        SweepJob::standard(3, BinaryVariant::BaseMax, InputSet::B, ec),
    ]
}

fn fixture_entries() -> Vec<&'static str> {
    LAYOUT3_JOURNAL.lines().skip(1).collect()
}

/// A unique scratch directory under the target dir (no tempfile dep).
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("persist_{tag}_{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clear stale scratch dir");
    }
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn fresh_run(ec: &ExperimentConfig, jobs: &[SweepJob]) -> Vec<JobResult> {
    SweepRunner::with_workers(ec, 1)
        .run(jobs.to_vec())
        .expect("fault-free fixture jobs")
}

#[test]
fn layout3_journal_decodes_and_resumes_bit_identically() {
    let ec = fixture_config();
    let jobs = fixture_jobs(&ec);
    let fresh = fresh_run(&ec, &jobs);
    assert!(
        fresh.iter().all(|r| r.entry.is_none()),
        "a runner that persists nothing encodes nothing"
    );
    let runner = SweepRunner::with_workers(&ec, 1);
    let entries = fixture_entries();
    assert_eq!(entries.len(), jobs.len());
    for ((line, job), want) in entries.iter().zip(&jobs).zip(&fresh) {
        assert!(line.contains("\"v\":3,"), "fixture must be layout 3");
        let (key, outcome) = decode_entry(line).expect("layout-3 entry decodes");
        assert_eq!(key, runner.job_key(job));
        assert_eq!(outcome, want.outcome, "layout-3 entry differs from a fresh run");
    }

    // Resume from the fixture: every job is a journal hit, bit-identical
    // to the fresh run, and passes on the line exactly as it was read.
    let dir = scratch_dir("v3_resume");
    let path = dir.join("journal.jsonl");
    std::fs::write(&path, LAYOUT3_JOURNAL).unwrap();
    assert_eq!(runner.attach_journal(&path, true).expect("same run fingerprint"), 3);
    let resumed = runner.run(jobs.clone()).expect("resumed jobs");
    for ((got, want), line) in resumed.iter().zip(&fresh).zip(&entries) {
        assert!(got.journal_hit);
        assert_eq!(got.outcome, want.outcome);
        assert_eq!(got.entry.as_deref(), Some(*line));
    }
    assert_eq!(std::fs::read_to_string(&path).unwrap(), LAYOUT3_JOURNAL, "hits append nothing");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn persisting_runner_encodes_once_and_store_hits_pass_the_bytes_on() {
    let ec = fixture_config();
    let jobs = fixture_jobs(&ec);
    let fresh = fresh_run(&ec, &jobs);
    let dir = scratch_dir("v4_once");
    let store = Arc::new(ArtifactStore::open(dir.join("store")).unwrap());

    let mut cold = SweepRunner::with_workers(&ec, 2);
    cold.attach_store(Arc::clone(&store));
    cold.attach_journal(&dir.join("cold.jsonl"), false).unwrap();
    let cold_results = cold.run(jobs.clone()).expect("cold run");
    let journal = std::fs::read_to_string(dir.join("cold.jsonl")).unwrap();
    for (got, want) in cold_results.iter().zip(&fresh) {
        assert!(!got.store_hit && !got.journal_hit);
        assert_eq!(got.outcome, want.outcome);
        let entry = got.entry.as_deref().expect("a persisting runner fills entry");
        assert!(entry.contains("\"v\":4,\"image\":{\"bench\":\""), "{}", &entry[..80]);
        assert!(entry.len() < 8 * 1024, "entry is {} bytes", entry.len());
        let key = cold.job_key(&got.job);
        let (k, decoded) = decode_entry(entry).expect("layout-4 entry decodes");
        assert_eq!((k, &decoded), (key, &want.outcome), "layout-4 round trip");
        // One encoding, three sinks: store file, journal line, result.
        let stored = std::fs::read_to_string(store.path_for(key)).unwrap();
        assert_eq!(stored, format!("{entry}\n"));
        assert!(journal.lines().any(|l| l == entry));
    }

    let mut warm = SweepRunner::with_workers(&ec, 2);
    warm.attach_store(Arc::clone(&store));
    warm.attach_journal(&dir.join("warm.jsonl"), false).unwrap();
    let warm_results = warm.run(jobs.clone()).expect("warm run");
    let warm_journal = std::fs::read_to_string(dir.join("warm.jsonl")).unwrap();
    for (got, cold) in warm_results.iter().zip(&cold_results) {
        assert!(got.store_hit);
        assert_eq!(got.outcome, cold.outcome);
        assert_eq!(got.entry, cold.entry, "a store hit passes the stored bytes on");
        let entry = got.entry.as_deref().unwrap();
        assert!(warm_journal.lines().any(|l| l == entry), "hit journaled verbatim");
    }
    assert_eq!(warm.summary().store_hits, jobs.len() as u64);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A layout-4 entry of the first fixture job, encoded by a persisting
/// runner (built once per test binary).
fn layout4_entry() -> &'static str {
    static ENTRY: std::sync::OnceLock<String> = std::sync::OnceLock::new();
    ENTRY.get_or_init(|| {
        let ec = fixture_config();
        let dir = scratch_dir("v4_entry");
        let runner = SweepRunner::with_workers(&ec, 1);
        runner.attach_journal(&dir.join("j.jsonl"), false).unwrap();
        let job = fixture_jobs(&ec).remove(0);
        let done = runner.run(vec![job]).expect("fixture job").remove(0);
        std::fs::remove_dir_all(&dir).unwrap();
        done.entry.expect("persisting runner").to_string()
    })
}

/// Exhaustive over the parts of a line the samplers below rarely hit:
/// every proper prefix of a layout-3 or layout-4 line reads as absent,
/// and every single-bit flip in a layout-4 line's key, version and image
/// reference reads as absent or as the same outcome under another key,
/// never as a different outcome under the same key.
#[test]
fn every_cut_and_every_header_bit_flip_reads_as_absent_or_rekeyed() {
    for line in [layout4_entry(), fixture_entries()[2]] {
        for cut in 0..line.len() {
            assert_eq!(decode_entry(&line[..cut]), None, "prefix of {cut} bytes");
        }
    }
    let line = layout4_entry();
    let (key, outcome) = decode_entry(line).expect("clean entry");
    let header = line.find("\"data\":[").expect("data array") + "\"data\":[".len();
    for pos in 0..header {
        for bit in 0..8 {
            let mut bytes = line.as_bytes().to_vec();
            bytes[pos] ^= 1 << bit;
            if let Some((k, o)) = decode_entry(&String::from_utf8_lossy(&bytes)) {
                assert_ne!(k, key, "flip of bit {bit} at byte {pos} kept the key");
                assert_eq!(o, outcome, "flip of bit {bit} at byte {pos} changed the outcome");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `decode_entry` on a mutated layout-3 or layout-4 line returns
    /// `None` or an outcome; it never panics.
    #[test]
    fn mutated_entries_decode_or_read_as_absent(
        layout4 in any::<bool>(),
        mutation in mutation_strategy(),
    ) {
        let line = if layout4 { layout4_entry() } else { fixture_entries()[1] };
        let mutated = mutate(line.as_bytes(), mutation);
        let _ = decode_entry(&String::from_utf8_lossy(&mutated));
    }

    /// `ArtifactStore::get` on a mutated entry file returns `None` (and
    /// quarantines the file) or an outcome; it never panics, and a clean
    /// `put_entry` afterwards reads back bit-identically.
    #[test]
    fn mutated_store_files_read_as_misses_or_outcomes(
        layout4 in any::<bool>(),
        mutation in mutation_strategy(),
    ) {
        let line = if layout4 { layout4_entry() } else { fixture_entries()[0] };
        let (key, outcome) = decode_entry(line).expect("clean entry");
        let dir = scratch_dir("fuzz_store");
        let store = ArtifactStore::open(&dir).unwrap();
        store.put_entry(key, line).unwrap();
        let path = store.path_for(key);
        let mutated = mutate(&std::fs::read(&path).unwrap(), mutation);
        std::fs::write(&path, &mutated).unwrap();
        if store.get(key).is_none() {
            prop_assert!(!path.exists(), "a rejected entry is quarantined");
            prop_assert_eq!(store.quarantined(), 1);
        }
        store.put_entry(key, line).unwrap();
        prop_assert_eq!(store.get(key), Some(outcome));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
