//! Content-addressed on-disk store for finished job outcomes.
//!
//! The address of an outcome is the engine's 64-bit job-identity key
//! ([`SweepRunner::job_key`](crate::SweepRunner::job_key)): an FNV-1a-64
//! fingerprint over everything that determines a job's result —
//! benchmark, variant, input set, training spec, compile options,
//! machine configuration and scale. Two jobs with the same key produce
//! bit-identical outcomes (the engine's determinism contract), so a hit
//! can be returned without re-running profile, compile *or* simulation,
//! across runs and across tenants.
//!
//! ## Layout
//!
//! One file per outcome, fanned out by the top key byte to keep
//! directories small:
//!
//! ```text
//! store/
//!   ab/
//!     abcdef0123456789.json     # one journal-format entry line
//! ```
//!
//! Each file holds exactly one `wishbranch.journal/v1` entry line, so the
//! store and the journal share one codec and one versioning story. A
//! job that ran here is stored in layout 4 as the engine encoded it
//! once for the journal, the store and the served `job` line alike: its
//! input image named by benchmark, input set and fingerprint, and only
//! the words of `final_mem` that differ from that image (about a
//! kilobyte, against some 87 KB for the whole map). [`put`](ArtifactStore::put)
//! of a bare outcome writes one against the empty image
//! ([`journal::encode_entry`](crate::journal::encode_entry)). Layout-3
//! entries still read. A hit hands back the bytes it read
//! ([`get_entry`](ArtifactStore::get_entry)) so they are passed on
//! verbatim, never re-encoded.
//!
//! Writes go through a same-directory temp file + atomic rename, so a
//! concurrent reader sees either nothing or a complete entry — never a
//! torn file. Unreadable or mismatched entries — including a layout-4
//! entry whose named image no longer rebuilds to its fingerprint — are
//! treated as absent and quarantined (the store is a cache; the journal
//! is the ledger).

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::experiment::RunOutcome;
use crate::journal::{decode_entry, encode_entry};

/// Monotonic discriminator so concurrent writers in one process never
/// collide on a temp-file name (the pid disambiguates across processes).
static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// A content-addressed store of finished job outcomes rooted at one
/// directory. Cheap to clone-by-reference (`Arc<ArtifactStore>`); all
/// methods take `&self` and are safe to call from many threads and many
/// processes at once.
#[derive(Debug)]
pub struct ArtifactStore {
    root: PathBuf,
    /// Corrupt entries quarantined by this handle (renamed to
    /// `<key>.corrupt` on first detection, so they are never re-parsed).
    quarantined: AtomicU64,
}

impl ArtifactStore {
    /// Opens (creating if necessary) a store rooted at `root`.
    ///
    /// # Errors
    ///
    /// I/O errors creating the root directory.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<ArtifactStore> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(ArtifactStore {
            root,
            quarantined: AtomicU64::new(0),
        })
    }

    /// The store's root directory.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The path an outcome with this key lives at.
    #[must_use]
    pub fn path_for(&self, key: u64) -> PathBuf {
        self.root
            .join(format!("{:02x}", (key >> 56) as u8))
            .join(format!("{key:016x}.json"))
    }

    /// Looks up the outcome stored under `key`. Missing, unreadable and
    /// key-mismatched files all read as `None` — corruption degrades to
    /// a cache miss, never an error. A corrupt or key-mismatched file is
    /// additionally *quarantined* on first detection: renamed to
    /// `<key>.corrupt` next to the original, so later lookups see a plain
    /// miss instead of re-parsing the same broken bytes, and the next
    /// fresh execution's [`put`](Self::put) writes a clean entry at the
    /// original address.
    #[must_use]
    pub fn get(&self, key: u64) -> Option<RunOutcome> {
        self.get_entry(key).map(|(outcome, _)| outcome)
    }

    /// [`get`](Self::get), also returning the entry line exactly as
    /// stored, so a hit can pass the same bytes on to a journal or a
    /// response stream.
    #[must_use]
    pub fn get_entry(&self, key: u64) -> Option<(RunOutcome, String)> {
        let path = self.path_for(key);
        let bytes = fs::read(&path).ok()?;
        let decoded = String::from_utf8(bytes).ok().and_then(|text| {
            let line = text.trim_end();
            match decode_entry(line) {
                Some((stored_key, outcome)) if stored_key == key => {
                    Some((outcome, line.to_string()))
                }
                _ => None,
            }
        });
        if decoded.is_none() {
            self.quarantine(&path);
        }
        decoded
    }

    /// Moves a corrupt entry aside (best effort — a racing writer may
    /// have already replaced or quarantined it) and counts it.
    fn quarantine(&self, path: &Path) {
        if fs::rename(path, path.with_extension("corrupt")).is_ok() {
            self.quarantined.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Corrupt entries this handle has quarantined (renamed to
    /// `<key>.corrupt`) so far.
    #[must_use]
    pub fn quarantined(&self) -> u64 {
        self.quarantined.load(Ordering::Relaxed)
    }

    /// Stores `outcome` under `key`, atomically (temp file + rename in
    /// the destination directory), encoded against the empty image
    /// ([`encode_entry`]). Last writer wins; since addresses are
    /// content-derived, racing writers are writing identical outcomes.
    ///
    /// # Errors
    ///
    /// I/O errors creating the fan-out directory or writing the file.
    pub fn put(&self, key: u64, outcome: &RunOutcome) -> io::Result<()> {
        self.put_entry(key, &encode_entry(key, outcome))
    }

    /// Stores an already encoded entry line under `key`, the way
    /// [`put`](Self::put) stores an outcome: the engine encodes each job
    /// once and writes the same bytes here and to its journal.
    ///
    /// # Errors
    ///
    /// As [`put`](Self::put).
    pub fn put_entry(&self, key: u64, entry: &str) -> io::Result<()> {
        let dest = self.path_for(key);
        let dir = dest.parent().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("store path {} has no parent directory", dest.display()),
            )
        })?;
        fs::create_dir_all(dir)?;
        let temp = dir.join(format!(
            ".{key:016x}.{}.{}.tmp",
            std::process::id(),
            TEMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        fs::write(&temp, format!("{entry}\n"))?;
        match fs::rename(&temp, &dest) {
            Ok(()) => Ok(()),
            Err(e) => {
                let _ = fs::remove_file(&temp);
                Err(e)
            }
        }
    }

    /// Counts the entries currently in the store (a full directory walk;
    /// intended for tests and status reporting, not hot paths).
    #[must_use]
    pub fn len(&self) -> usize {
        let mut n = 0;
        let Ok(buckets) = fs::read_dir(&self.root) else {
            return 0;
        };
        for bucket in buckets.flatten() {
            let Ok(files) = fs::read_dir(bucket.path()) else {
                continue;
            };
            n += files
                .flatten()
                .filter(|f| {
                    f.path()
                        .extension()
                        .is_some_and(|ext| ext == "json")
                })
                .count();
        }
        n
    }

    /// True when the store holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{SweepJob, SweepRunner};
    use crate::experiment::ExperimentConfig;
    use wishbranch_compiler::BinaryVariant;
    use wishbranch_workloads::InputSet;

    fn temp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "wishbranch-store-{tag}-{}-{}",
            std::process::id(),
            TEMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn one_outcome() -> (u64, RunOutcome) {
        let ec = ExperimentConfig::quick(20);
        let runner = SweepRunner::with_workers(&ec, 1);
        let job = SweepJob::standard(0, BinaryVariant::NormalBranch, InputSet::A, &ec);
        let key = runner.job_key(&job);
        let outcome = runner
            .try_run(vec![job])
            .pop()
            .unwrap()
            .expect("quick job runs")
            .outcome;
        (key, outcome)
    }

    #[test]
    fn put_get_round_trips_bit_identically() {
        let root = temp_root("roundtrip");
        let store = ArtifactStore::open(&root).unwrap();
        let (key, outcome) = one_outcome();
        assert!(store.get(key).is_none());
        store.put(key, &outcome).unwrap();
        let back = store.get(key).expect("stored outcome");
        assert_eq!(back, outcome, "store round trip must be bit-identical");
        assert_eq!(store.len(), 1);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn corruption_reads_as_miss_and_is_quarantined() {
        let root = temp_root("corrupt");
        let store = ArtifactStore::open(&root).unwrap();
        let (key, outcome) = one_outcome();
        store.put(key, &outcome).unwrap();
        fs::write(store.path_for(key), "{\"key\":not json").unwrap();
        assert!(store.get(key).is_none(), "torn file must read as a miss");
        // First detection quarantines: the broken file moves aside so the
        // next lookup is a plain miss, never a re-parse of the same bytes.
        assert_eq!(store.quarantined(), 1);
        assert!(!store.path_for(key).exists(), "corrupt file must move aside");
        let aside = store.path_for(key).with_extension("corrupt");
        assert!(aside.exists(), "quarantined file must be preserved");
        assert!(store.get(key).is_none(), "second lookup is a plain miss");
        assert_eq!(store.quarantined(), 1, "a plain miss quarantines nothing");
        // A file stored under the wrong address is quarantined the same way.
        let other = key.wrapping_add(1);
        fs::create_dir_all(store.path_for(other).parent().unwrap()).unwrap();
        fs::write(store.path_for(other), encode_entry(key, &outcome)).unwrap();
        assert!(store.get(other).is_none(), "key mismatch must read as a miss");
        assert_eq!(store.quarantined(), 2);
        // The next fresh execution rewrites the original address cleanly.
        store.put(key, &outcome).unwrap();
        let back = store.get(key).expect("rewritten entry");
        assert_eq!(back, outcome, "rewrite after quarantine must be bit-identical");
        assert!(aside.exists(), "rewrite leaves the quarantined copy for forensics");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn entry_naming_an_unrebuildable_image_is_quarantined_and_rewritten() {
        let root = temp_root("image");
        let store = std::sync::Arc::new(ArtifactStore::open(&root).unwrap());
        let ec = ExperimentConfig::quick(20);
        let mut runner = SweepRunner::with_workers(&ec, 1);
        runner.attach_store(std::sync::Arc::clone(&store));
        let job = SweepJob::standard(0, BinaryVariant::NormalBranch, InputSet::A, &ec);
        let key = runner.job_key(&job);
        let done = runner.try_run(vec![job]).pop().unwrap().expect("quick job runs");
        let entry = done.entry.expect("a store-backed runner encodes its entries");
        let fnv = entry.split("\"fnv\":").nth(1).and_then(|t| t.split('}').next()).unwrap();
        let bad = [
            entry.replace(&format!("\"fnv\":{fnv}}}"), "\"fnv\":1}"),
            entry.replace("\"bench\":\"gzip\"", "\"bench\":\"gzipx\""),
            entry.replace("\"input\":\"A\"", "\"input\":\"Z\""),
        ];
        for (n, bad) in bad.iter().enumerate() {
            assert_ne!(bad, &*entry);
            store.put_entry(key, bad).unwrap();
            assert!(store.get(key).is_none(), "{}", &bad[..100]);
            assert_eq!(store.quarantined(), n as u64 + 1);
            assert!(!store.path_for(key).exists(), "the entry must move aside");
            // The next fresh execution rewrites the address cleanly.
            store.put_entry(key, &entry).unwrap();
            assert_eq!(store.get(key), Some(done.outcome.clone()));
        }
        let _ = fs::remove_dir_all(&root);
    }
}
