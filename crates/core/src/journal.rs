//! The incremental sweep journal (`wishbranch.journal/v1`): a JSONL file
//! under `--report-dir` that records every *successfully completed* job as
//! it finishes, so an interrupted sweep can `--resume` without redoing
//! work.
//!
//! ## Format
//!
//! One JSON object per line. The first line is a header:
//!
//! ```json
//! {"schema":"wishbranch.journal/v1","run":1234567890123456789}
//! ```
//!
//! `run` is the sweep's **run-identity fingerprint**: an FNV-1a-64 hash
//! over the experiment scale, machine configuration, compile options and
//! training input (but *not* the fault plan — a kill-then-resume cycle
//! legitimately resumes without re-injecting the faults that killed it).
//! Attaching a journal whose header fingerprint differs from the current
//! run's — e.g. `--resume` after editing `--scale` — is refused with a
//! typed [`JournalError::RunMismatch`] instead of silently replaying
//! results that no longer describe the requested experiment.
//!
//! Every other line is one completed job (layout 4):
//!
//! ```json
//! {"key":1234567890123456789,"v":4,
//!  "image":{"bench":"twolf","input":"C","fnv":9876543210987654321},
//!  "data":[6441,1352,320, ...]}
//! ```
//!
//! (one line on disk; wrapped here). Fields, in this fixed order:
//!
//! * `key` — the job's cache-key fingerprint: an FNV-1a-64 hash over the
//!   benchmark name, binary variant, run input, training spec, compile
//!   options (float fields by bit pattern, exactly like the engine's
//!   compile cache key) and the full machine configuration. Two jobs
//!   collide only if they would also share every cache key, in which case
//!   their results are bit-identical by the engine's determinism contract.
//! * `v` — the payload layout version. This codec writes version 4 and
//!   still reads version 3 (identical except that it has no `image` and
//!   stores `final_mem` whole). Versions 1 and 2, written before the
//!   I-side, write-buffer and port counters existed, read as absent and
//!   their jobs re-run.
//! * `image` — the input image the job ran on, named rather than stored:
//!   the benchmark's name, the input set (`A`/`B`/`C`) and an FNV-1a-64
//!   fingerprint of its words (each address and value stepped in as a
//!   whole 64-bit unit). Inputs depend on neither scale nor binary
//!   variant, so the name alone rebuilds the image
//!   ([`wishbranch_workloads::input_generator`]). A rebuilt image whose
//!   fingerprint differs (its generator changed since the entry was
//!   written), an unknown benchmark or a bad input tag make the entry read
//!   as absent. An entry without `image` is taken against the empty image
//!   ([`encode_entry`] writes these).
//! * `data` — the whole [`RunOutcome`] flattened into one integer array
//!   (every journaled quantity is an integer: counters, registers,
//!   predicate bits, memory words). Its memory section is the *delta*:
//!   only the words of `final_mem` that differ from the image, which is
//!   the handful of words the program writes rather than the thousands of
//!   words of its input. Decoding overlays the delta on the rebuilt image
//!   (`MemImage::overlay`), so the decoded `final_mem` is the full map,
//!   bit-identical to the simulated one. The reader validates section
//!   lengths and rejects anything malformed.
//!
//! Failed jobs are deliberately **not** journaled: on resume they re-run
//! (a transient fault heals; a deterministic one re-reports).
//!
//! ## Robustness
//!
//! The reader ignores any line it cannot parse — including the header, a
//! half-written trailing line from a killed process, or a record whose
//! version or section lengths do not match. A corrupt journal therefore
//! degrades to re-running jobs, never to a failed resume.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::io::{BufRead, Write as _};
use std::path::Path;
use std::sync::Arc;

use crate::experiment::RunOutcome;
use wishbranch_compiler::CompileReport;
use wishbranch_isa::exec::{merge_by_address, MemImage};
use wishbranch_isa::{StaticStats, NUM_GPRS, NUM_PREDS};
use wishbranch_mem::CacheStats;
use wishbranch_uarch::{CycleAccounting, HotSiteCounts, SimResult, SimStats, WishClassCounts};
use wishbranch_workloads::{input_generator, InputSet};

/// Schema tag written on the journal's header line.
pub const JOURNAL_SCHEMA: &str = "wishbranch.journal/v1";

/// Payload layout version this codec writes: `final_mem` as a delta
/// against a named input image.
const LAYOUT_VERSION: u64 = 4;

/// The older layout that still reads: `final_mem` stored whole, which is
/// the version-4 layout against the empty image.
const LAYOUT_WHOLE_MEMORY: u64 = 3;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit over a byte string — the journal's job-key hash.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(FNV_OFFSET, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// The fingerprint a layout-4 entry names its input image by: FNV-1a-64
/// stepped over each word's address and value as whole 64-bit units, in
/// address order. Any single changed word changes it.
fn image_fingerprint(image: &MemImage) -> u64 {
    image.words().iter().fold(FNV_OFFSET, |h, &(addr, val)| {
        let h = (h ^ addr).wrapping_mul(FNV_PRIME);
        (h ^ val as u64).wrapping_mul(FNV_PRIME)
    })
}

/// The input image a job ran on, named the way a layout-4 entry names
/// it: the benchmark and input set whose generator
/// ([`wishbranch_workloads::input_generator`]) rebuilds it.
#[derive(Clone, Copy, Debug)]
pub struct InputImage<'a> {
    /// The benchmark's name.
    pub bench: &'a str,
    /// The input set.
    pub input: InputSet,
    /// The image itself, as the job's simulation was preloaded with it.
    pub image: &'a MemImage,
}

fn input_tag(input: InputSet) -> &'static str {
    match input {
        InputSet::A => "A",
        InputSet::B => "B",
        InputSet::C => "C",
    }
}

fn parse_input_tag(tag: &str) -> Option<InputSet> {
    InputSet::ALL.into_iter().find(|&i| input_tag(i) == tag)
}

/// The words of `mem` that differ from `image` (or that the image lacks),
/// in address order; `None` when `mem` lacks a word the image has, so
/// overlaying a delta on the image could not rebuild it.
fn memory_delta(image: &MemImage, mem: &BTreeMap<u64, i64>) -> Option<Vec<(u64, i64)>> {
    let mut delta = Vec::new();
    for (addr, base, word) in
        merge_by_address(image.words().iter().copied(), mem.iter().map(|(&a, &v)| (a, v)))
    {
        let word = word?;
        if base != Some(word) {
            delta.push((addr, word));
        }
    }
    Some(delta)
}

fn push_wish(out: &mut Vec<i128>, w: &WishClassCounts) {
    out.extend([
        i128::from(w.high_correct),
        i128::from(w.high_mispredicted),
        i128::from(w.low_correct),
        i128::from(w.low_mispredicted),
    ]);
}

fn push_cache(out: &mut Vec<i128>, c: &CacheStats) {
    out.extend([i128::from(c.hits), i128::from(c.misses), i128::from(c.probes)]);
}

/// Flattens a [`RunOutcome`] into the integer layout, with `mem` (the
/// words of `final_mem` not already in the entry's input image) as its
/// memory section.
fn encode_outcome(o: &RunOutcome, mem: impl ExactSizeIterator<Item = (u64, i64)>) -> Vec<i128> {
    let s = &o.sim.stats;
    let mut out: Vec<i128> = Vec::with_capacity(192 + 4 * s.hot_sites.len() + 2 * mem.len());
    for v in [
        s.cycles,
        s.retired_uops,
        s.retired_guard_false,
        s.retired_select_uops,
        s.retired_cond_branches,
        s.flushes,
        s.retired_mispredicted,
        s.flushes_avoided,
        s.fetched_uops,
        s.fetch_idle_cycles,
        s.fetch_idle_imiss,
        s.fetch_idle_redirect,
        s.fetch_idle_queue_full,
        s.fetch_idle_blocked,
        s.dispatch_idle_cycles,
        s.retire_idle_cycles,
        s.squashed_uops,
        s.dhp_predications,
        s.dhp_flushes_avoided,
        s.pred_value_predictions,
        s.pred_value_mispredictions,
        s.store_forwards,
        s.load_replays,
        s.mshr_full_stalls,
        s.port_conflict_stalls,
        s.writebuf_full_stalls,
        s.wrong_path_fills,
    ] {
        out.push(i128::from(v));
    }
    push_wish(&mut out, &s.wish_jumps);
    push_wish(&mut out, &s.wish_joins);
    push_wish(&mut out, &s.wish_loops);
    out.extend([
        i128::from(s.loop_early_exits),
        i128::from(s.loop_late_exits),
        i128::from(s.loop_no_exits),
    ]);
    let a = &s.cycle_accounting;
    for v in [
        a.useful_retire,
        a.guard_false_retire,
        a.select_uop_retire,
        a.exec_wait,
        a.rob_stall,
        a.flush_recovery,
        a.fetch_imiss,
        a.fetch_redirect,
        a.frontend_fill,
        a.mshr_full,
        a.miss_pending,
        a.imiss_pending,
        a.writebuf_full,
    ] {
        out.push(i128::from(v));
    }
    out.push(s.hot_sites.len() as i128);
    for (&pc, h) in &s.hot_sites {
        out.extend([
            i128::from(pc),
            i128::from(h.flushes),
            i128::from(h.flushes_avoided),
            i128::from(h.guard_false_uops),
        ]);
    }
    push_cache(&mut out, &s.icache);
    push_cache(&mut out, &s.l1d);
    push_cache(&mut out, &s.l2);
    out.extend(o.sim.final_regs.iter().map(|&r| i128::from(r)));
    out.extend(o.sim.final_preds.iter().map(|&p| i128::from(p)));
    out.push(mem.len() as i128);
    for (addr, val) in mem {
        out.extend([i128::from(addr), i128::from(val)]);
    }
    out.extend([
        o.report.regions_predicated as i128,
        o.report.regions_wish as i128,
        o.report.regions_kept as i128,
        o.report.loops_wish as i128,
    ]);
    out.extend([
        o.static_stats.insns as i128,
        o.static_stats.cond_branches as i128,
        o.static_stats.wish_branches as i128,
        o.static_stats.wish_jumps as i128,
        o.static_stats.wish_joins as i128,
        o.static_stats.wish_loops as i128,
        o.static_stats.guarded_insns as i128,
    ]);
    out
}

/// A validating cursor over the flat integer layout.
struct Cursor<'a> {
    data: &'a [i128],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn u64(&mut self) -> Option<u64> {
        let v = *self.data.get(self.pos)?;
        self.pos += 1;
        u64::try_from(v).ok()
    }

    fn i64(&mut self) -> Option<i64> {
        let v = *self.data.get(self.pos)?;
        self.pos += 1;
        i64::try_from(v).ok()
    }

    fn usize(&mut self) -> Option<usize> {
        usize::try_from(self.u64()?).ok()
    }

    fn wish(&mut self) -> Option<WishClassCounts> {
        Some(WishClassCounts {
            high_correct: self.u64()?,
            high_mispredicted: self.u64()?,
            low_correct: self.u64()?,
            low_mispredicted: self.u64()?,
        })
    }

    fn cache(&mut self) -> Option<CacheStats> {
        Some(CacheStats {
            hits: self.u64()?,
            misses: self.u64()?,
            probes: self.u64()?,
        })
    }
}

/// Rebuilds a [`RunOutcome`] from the integer layout, overlaying its
/// memory section on `image`. Returns `None` on any length or range
/// mismatch (the caller treats the entry as absent and re-runs the job).
fn decode_outcome(data: &[i128], image: &MemImage) -> Option<RunOutcome> {
    let mut c = Cursor { data, pos: 0 };
    let mut s = SimStats::default();
    s.cycles = c.u64()?;
    s.retired_uops = c.u64()?;
    s.retired_guard_false = c.u64()?;
    s.retired_select_uops = c.u64()?;
    s.retired_cond_branches = c.u64()?;
    s.flushes = c.u64()?;
    s.retired_mispredicted = c.u64()?;
    s.flushes_avoided = c.u64()?;
    s.fetched_uops = c.u64()?;
    s.fetch_idle_cycles = c.u64()?;
    s.fetch_idle_imiss = c.u64()?;
    s.fetch_idle_redirect = c.u64()?;
    s.fetch_idle_queue_full = c.u64()?;
    s.fetch_idle_blocked = c.u64()?;
    s.dispatch_idle_cycles = c.u64()?;
    s.retire_idle_cycles = c.u64()?;
    s.squashed_uops = c.u64()?;
    s.dhp_predications = c.u64()?;
    s.dhp_flushes_avoided = c.u64()?;
    s.pred_value_predictions = c.u64()?;
    s.pred_value_mispredictions = c.u64()?;
    s.store_forwards = c.u64()?;
    s.load_replays = c.u64()?;
    s.mshr_full_stalls = c.u64()?;
    s.port_conflict_stalls = c.u64()?;
    s.writebuf_full_stalls = c.u64()?;
    s.wrong_path_fills = c.u64()?;
    s.wish_jumps = c.wish()?;
    s.wish_joins = c.wish()?;
    s.wish_loops = c.wish()?;
    s.loop_early_exits = c.u64()?;
    s.loop_late_exits = c.u64()?;
    s.loop_no_exits = c.u64()?;
    s.cycle_accounting = CycleAccounting {
        useful_retire: c.u64()?,
        guard_false_retire: c.u64()?,
        select_uop_retire: c.u64()?,
        exec_wait: c.u64()?,
        rob_stall: c.u64()?,
        flush_recovery: c.u64()?,
        fetch_imiss: c.u64()?,
        fetch_redirect: c.u64()?,
        frontend_fill: c.u64()?,
        mshr_full: c.u64()?,
        miss_pending: c.u64()?,
        imiss_pending: c.u64()?,
        writebuf_full: c.u64()?,
    };
    let hot = c.usize()?;
    for _ in 0..hot {
        let pc = u32::try_from(c.u64()?).ok()?;
        s.hot_sites.insert(
            pc,
            HotSiteCounts {
                flushes: c.u64()?,
                flushes_avoided: c.u64()?,
                guard_false_uops: c.u64()?,
            },
        );
    }
    s.icache = c.cache()?;
    s.l1d = c.cache()?;
    s.l2 = c.cache()?;
    let mut final_regs = [0i64; NUM_GPRS];
    for r in &mut final_regs {
        *r = c.i64()?;
    }
    let mut final_preds = [false; NUM_PREDS];
    for p in &mut final_preds {
        *p = match c.u64()? {
            0 => false,
            1 => true,
            _ => return None,
        };
    }
    let nmem = c.usize()?;
    let mut written = BTreeMap::new();
    for _ in 0..nmem {
        let addr = c.u64()?;
        let val = c.i64()?;
        written.insert(addr, val);
    }
    let final_mem = if image.words().is_empty() {
        written
    } else {
        image.overlay(&written).collect()
    };
    let report = CompileReport {
        regions_predicated: c.usize()?,
        regions_wish: c.usize()?,
        regions_kept: c.usize()?,
        loops_wish: c.usize()?,
    };
    let static_stats = StaticStats {
        insns: c.usize()?,
        cond_branches: c.usize()?,
        wish_branches: c.usize()?,
        wish_jumps: c.usize()?,
        wish_joins: c.usize()?,
        wish_loops: c.usize()?,
        guarded_insns: c.usize()?,
    };
    if c.pos != data.len() {
        return None; // trailing garbage: not a record this layout wrote
    }
    Some(RunOutcome {
        sim: SimResult {
            stats: s,
            final_regs,
            final_preds,
            final_mem,
        },
        report,
        static_stats,
    })
}

/// Serializes one journal record line (no trailing newline) against the
/// empty image: the entry holds `final_mem` whole. This is
/// [`encode_entry_on`] with no input image, and decodes without one.
#[must_use]
pub fn encode_entry(key: u64, outcome: &RunOutcome) -> String {
    encode_entry_on(key, outcome, None)
}

/// Serializes one layout-4 journal record line (no trailing newline).
/// With an input image, the entry names it (benchmark, input set and a
/// fingerprint of the image's words) and stores only the words of
/// `final_mem` that differ from it. A `final_mem` that is not an overlay
/// of the image (it lacks one of the image's words), or a benchmark name
/// that is not a plain identifier, is encoded against the empty image
/// instead, so every outcome encodes.
#[must_use]
pub fn encode_entry_on(key: u64, outcome: &RunOutcome, input: Option<InputImage<'_>>) -> String {
    let mem = &outcome.sim.final_mem;
    let against = input
        .filter(|i| !i.bench.is_empty() && i.bench.bytes().all(|b| b.is_ascii_alphanumeric()))
        .and_then(|i| Some((i, memory_delta(i.image, mem)?)));
    let mut line = format!("{{\"key\":{key},\"v\":{LAYOUT_VERSION},");
    let data = match against {
        Some((i, delta)) => {
            let _ = write!(
                line,
                "\"image\":{{\"bench\":\"{}\",\"input\":\"{}\",\"fnv\":{}}},",
                i.bench,
                input_tag(i.input),
                image_fingerprint(i.image)
            );
            encode_outcome(outcome, delta.into_iter())
        }
        None => encode_outcome(outcome, mem.iter().map(|(&a, &v)| (a, v))),
    };
    line.push_str("\"data\":[");
    for (n, v) in data.iter().enumerate() {
        if n > 0 {
            line.push(',');
        }
        let _ = write!(line, "{v}");
    }
    line.push_str("]}");
    line
}

/// The input image a layout-4 entry names, rebuilt from its generator.
/// `None` for an unknown benchmark, a bad input tag, or an image whose
/// fingerprint no longer matches (its generator changed since the entry
/// was written).
fn named_image(bench: &str, input: &str, fingerprint: u64) -> Option<MemImage> {
    let generate = input_generator(bench)?;
    let image = MemImage::from_preload(generate(parse_input_tag(input)?));
    (image_fingerprint(&image) == fingerprint).then_some(image)
}

/// Parses one journal line, rebuilding a layout-4 entry's named input
/// image from [`wishbranch_workloads`]. Returns `None` for the header,
/// malformed or truncated lines, unknown layout versions (1 and 2
/// included: their jobs re-run), and layout-4 entries whose image cannot
/// be rebuilt bit-identically (see [`encode_entry_on`]).
#[must_use]
pub fn decode_entry(line: &str) -> Option<(u64, RunOutcome)> {
    let rest = line.trim().strip_prefix("{\"key\":")?;
    let (key, rest) = rest.split_once(',')?;
    let key: u64 = key.parse().ok()?;
    let (version, mut rest) = rest.strip_prefix("\"v\":")?.split_once(',')?;
    let version: u64 = version.parse().ok()?;
    let mut image = MemImage::default();
    if version == LAYOUT_VERSION {
        if let Some(named) = rest.strip_prefix("\"image\":{\"bench\":\"") {
            let (bench, named) = named.split_once('"')?;
            let (input, named) = named.strip_prefix(",\"input\":\"")?.split_once('"')?;
            let (fingerprint, named) = named.strip_prefix(",\"fnv\":")?.split_once('}')?;
            image = named_image(bench, input, fingerprint.parse().ok()?)?;
            rest = named.strip_prefix(',')?;
        }
    } else if version != LAYOUT_WHOLE_MEMORY {
        return None;
    }
    let rest = rest.strip_prefix("\"data\":[")?.strip_suffix("]}")?;
    let mut data = Vec::new();
    if !rest.is_empty() {
        for item in rest.split(',') {
            data.push(item.parse::<i128>().ok()?);
        }
    }
    let outcome = decode_outcome(&data, &image)?;
    Some((key, outcome))
}

/// The journal's header line (no trailing newline). `run` is the
/// run-identity fingerprint of the sweep that owns this journal: a
/// journal is only replayable into the exact configuration that wrote
/// it, and the header is what lets a resume check that before serving a
/// single stale outcome.
#[must_use]
pub fn header_line(run: u64) -> String {
    format!("{{\"schema\":\"{JOURNAL_SCHEMA}\",\"run\":{run}}}")
}

/// Parses the run-identity fingerprint out of a journal header line.
/// Returns `None` for record lines, malformed headers, and headers from
/// before fingerprints existed (which carry no `run` field).
#[must_use]
pub fn decode_header_run(line: &str) -> Option<u64> {
    let rest = line
        .trim()
        .strip_prefix("{\"schema\":\"")?
        .strip_prefix(JOURNAL_SCHEMA)?;
    let rest = rest.strip_prefix("\",\"run\":")?;
    rest.strip_suffix('}')?.parse().ok()
}

/// Why a journal could not be attached.
#[derive(Debug)]
pub enum JournalError {
    /// The file exists but was written by a different run configuration
    /// (or predates run fingerprints), so replaying it would silently
    /// serve stale results. `found` is `None` for pre-fingerprint or
    /// unreadable headers.
    RunMismatch {
        /// The fingerprint of the attaching run.
        expected: u64,
        /// The fingerprint stamped in the journal header, if any.
        found: Option<u64>,
    },
    /// A genuine I/O failure opening, reading, or creating the file.
    Io(std::io::Error),
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::RunMismatch { expected, found } => {
                match found {
                    Some(found) => write!(
                        f,
                        "journal was written by a different run configuration \
                         (fingerprint {found:#018x}, this run is {expected:#018x})"
                    )?,
                    None => write!(
                        f,
                        "journal has no run fingerprint (pre-fingerprint format); \
                         this run is {expected:#018x}"
                    )?,
                }
                write!(
                    f,
                    "; refusing to reuse it — rerun with the original \
                     --scale/--quick flags, or delete the journal to start fresh"
                )
            }
            JournalError::Io(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for JournalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JournalError::Io(e) => Some(e),
            JournalError::RunMismatch { .. } => None,
        }
    }
}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> JournalError {
        JournalError::Io(e)
    }
}

/// Loads every parseable record from a journal file: each key's decoded
/// outcome and the entry line it was read from. A later record for the
/// same key wins (duplicates can arise when a shared job ran in a
/// previous, partially journaled sweep). A missing file is an empty map.
///
/// # Errors
///
/// Only genuine I/O failures (permission, disk) error; unparseable
/// content is skipped, per the robustness contract above.
pub fn load(path: &Path) -> std::io::Result<HashMap<u64, (RunOutcome, Arc<str>)>> {
    let mut map = HashMap::new();
    let file = match std::fs::File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(map),
        Err(e) => return Err(e),
    };
    for line in std::io::BufReader::new(file).lines() {
        let line = line?;
        if let Some((key, outcome)) = decode_entry(&line) {
            map.insert(key, (outcome, Arc::from(line.trim())));
        }
    }
    Ok(map)
}

/// An append handle on a journal file; creates the file (with its header
/// line) if absent. Each append is flushed immediately so a killed
/// process loses at most the line being written — which the reader then
/// skips.
#[derive(Debug)]
pub struct JournalWriter {
    file: std::fs::File,
}

impl JournalWriter {
    /// Opens (or creates) the journal at `path` for appending. A new
    /// file is stamped with `run` in its header; an existing file must
    /// carry the *same* fingerprint — appending a second run's records
    /// under the first run's header is exactly the stale-journal bug the
    /// fingerprint exists to prevent.
    ///
    /// # Errors
    ///
    /// [`JournalError::RunMismatch`] when the existing header's
    /// fingerprint differs from `run` (or is absent/unreadable);
    /// [`JournalError::Io`] for real I/O failures.
    pub fn open(path: &Path, run: u64) -> Result<JournalWriter, JournalError> {
        let is_new = !path.exists();
        if !is_new {
            let file = std::fs::File::open(path)?;
            let mut first = String::new();
            std::io::BufReader::new(file).read_line(&mut first)?;
            let found = decode_header_run(&first);
            if found != Some(run) {
                return Err(JournalError::RunMismatch {
                    expected: run,
                    found,
                });
            }
        }
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        if is_new {
            writeln!(file, "{}", header_line(run))?;
            file.flush()?;
        }
        Ok(JournalWriter { file })
    }

    /// Appends one completed job's entry line (as [`encode_entry_on`]
    /// wrote it, or as read back from a store) and flushes.
    ///
    /// # Errors
    ///
    /// I/O errors writing the line.
    pub fn append(&mut self, entry: &str) -> std::io::Result<()> {
        // One write per line, so a kill tears at most this line.
        self.file.write_all(format!("{entry}\n").as_bytes())?;
        self.file.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_outcome() -> RunOutcome {
        let mut stats = SimStats::default();
        stats.cycles = 12345;
        stats.retired_uops = 678;
        stats.wish_loops.low_mispredicted = 9;
        stats.cycle_accounting.useful_retire = 11;
        stats.hot_sites.insert(
            42,
            HotSiteCounts {
                flushes: 1,
                flushes_avoided: 2,
                guard_false_uops: 3,
            },
        );
        stats.l2 = CacheStats {
            hits: 5,
            misses: 6,
            probes: 7,
        };
        let mut final_regs = [0i64; NUM_GPRS];
        final_regs[3] = -77;
        let mut final_preds = [false; NUM_PREDS];
        final_preds[1] = true;
        let mut final_mem = std::collections::BTreeMap::new();
        final_mem.insert(0x1000, -1);
        final_mem.insert(0x1008, 99);
        RunOutcome {
            sim: SimResult {
                stats,
                final_regs,
                final_preds,
                final_mem,
            },
            report: CompileReport {
                regions_predicated: 1,
                regions_wish: 2,
                regions_kept: 3,
                loops_wish: 4,
            },
            static_stats: StaticStats {
                insns: 100,
                cond_branches: 10,
                wish_branches: 5,
                wish_jumps: 2,
                wish_joins: 2,
                wish_loops: 1,
                guarded_insns: 20,
            },
        }
    }

    #[test]
    fn entry_round_trips_bit_identically() {
        let outcome = sample_outcome();
        let line = encode_entry(0xDEAD_BEEF, &outcome);
        let (key, back) = decode_entry(&line).expect("round trip");
        assert_eq!(key, 0xDEAD_BEEF);
        assert_eq!(back, outcome);
    }

    /// `sample_outcome` as if it ran on crafty's input A: the image
    /// overlaid by two written words, one of them shadowing an input word.
    fn image_backed_outcome() -> (MemImage, RunOutcome) {
        let generate = input_generator("crafty").expect("suite benchmark");
        let image = MemImage::from_preload(generate(InputSet::A));
        let (first, value) = image.words()[0];
        let writes = BTreeMap::from([(first, value.wrapping_add(1)), (8, -5)]);
        let mut outcome = sample_outcome();
        outcome.sim.final_mem = image.overlay(&writes).collect();
        (image, outcome)
    }

    fn crafty_a(image: &MemImage) -> Option<InputImage<'_>> {
        Some(InputImage {
            bench: "crafty",
            input: InputSet::A,
            image,
        })
    }

    #[test]
    fn image_backed_entry_stores_the_delta_and_round_trips() {
        let (image, outcome) = image_backed_outcome();
        let line = encode_entry_on(5, &outcome, crafty_a(&image));
        let fingerprint = image_fingerprint(&image);
        let head = format!(
            "{{\"key\":5,\"v\":4,\"image\":{{\"bench\":\"crafty\",\"input\":\"A\",\"fnv\":{fingerprint}}},"
        );
        assert!(line.starts_with(&head), "{line}");
        let whole = encode_entry(5, &outcome);
        assert!(line.len() * 10 < whole.len(), "delta {} vs whole {}", line.len(), whole.len());
        assert_eq!(decode_entry(&line), Some((5, outcome)));
    }

    #[test]
    fn stale_or_unknown_image_reads_as_absent() {
        let (image, outcome) = image_backed_outcome();
        let line = encode_entry_on(5, &outcome, crafty_a(&image));
        let fingerprint = image_fingerprint(&image);
        let stale = line.replace(
            &format!("\"fnv\":{fingerprint}}}"),
            &format!("\"fnv\":{}}}", fingerprint ^ 1),
        );
        let unknown = line.replace("\"bench\":\"crafty\"", "\"bench\":\"craftz\"");
        let bad_tag = line.replace("\"input\":\"A\"", "\"input\":\"D\"");
        let other_input = line.replace("\"input\":\"A\"", "\"input\":\"B\"");
        let as_v3 = line.replace("\"v\":4,", "\"v\":3,");
        for bad in [stale, unknown, bad_tag, other_input, as_v3] {
            assert_ne!(bad, line);
            assert_eq!(decode_entry(&bad), None, "{}", &bad[..120]);
        }
    }

    #[test]
    fn non_overlay_memory_is_encoded_against_the_empty_image() {
        let (image, mut outcome) = image_backed_outcome();
        let dropped = image.words()[1].0;
        outcome.sim.final_mem.remove(&dropped);
        let line = encode_entry_on(5, &outcome, crafty_a(&image));
        assert_eq!(line, encode_entry(5, &outcome));
        assert!(line.starts_with("{\"key\":5,\"v\":4,\"data\":["));
        assert_eq!(decode_entry(&line), Some((5, outcome.clone())));
        // A name that cannot be written as-is falls back the same way.
        let odd = InputImage {
            bench: "cr\"afty",
            input: InputSet::A,
            image: &image,
        };
        let (_, outcome) = image_backed_outcome();
        assert_eq!(encode_entry_on(5, &outcome, Some(odd)), encode_entry(5, &outcome));
    }

    #[test]
    fn layout3_lines_read_and_older_layouts_do_not() {
        let outcome = sample_outcome();
        let v4 = encode_entry(9, &outcome);
        let v3 = v4.replace("\"v\":4,", "\"v\":3,");
        assert_eq!(decode_entry(&v3), Some((9, outcome)));
        for v in [1, 2, 5] {
            assert_eq!(decode_entry(&v4.replace("\"v\":4,", &format!("\"v\":{v},"))), None);
        }
    }

    #[test]
    fn corrupt_and_foreign_lines_are_skipped() {
        assert!(decode_entry(&header_line(42)).is_none());
        assert!(decode_entry("").is_none());
        assert!(decode_entry("{\"key\":12,\"v\":1,\"data\":[1,2,3").is_none());
        assert!(decode_entry("{\"key\":12,\"v\":99,\"data\":[]}").is_none());
        assert!(decode_entry("not json at all").is_none());
        // Truncated data array: lengths no longer validate.
        let line = encode_entry(7, &sample_outcome());
        let cut = &line[..line.len() - 20];
        assert!(decode_entry(cut).is_none());
    }

    #[test]
    fn writer_appends_and_loader_takes_last_duplicate() {
        let dir = std::env::temp_dir().join(format!("wb-journal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal.jsonl");
        let _ = std::fs::remove_file(&path);

        let mut outcome = sample_outcome();
        {
            let mut w = JournalWriter::open(&path, 42).unwrap();
            w.append(&encode_entry(1, &outcome)).unwrap();
            outcome.sim.stats.cycles = 999;
            w.append(&encode_entry(1, &outcome)).unwrap();
            w.append(&encode_entry(2, &sample_outcome())).unwrap();
        }
        // Simulate a kill mid-write: a torn trailing line.
        {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
            write!(f, "{{\"key\":3,\"v\":1,\"data\":[1,2").unwrap();
        }
        let map = load(&path).unwrap();
        assert_eq!(map.len(), 2);
        assert_eq!(map[&1].0.sim.stats.cycles, 999, "last duplicate wins");
        assert_eq!(&*map[&2].1, encode_entry(2, &sample_outcome()), "the line as read");
        assert!(map.get(&3).is_none(), "torn line skipped");
        let first = std::fs::read_to_string(&path).unwrap();
        assert!(first.starts_with(&header_line(42)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn header_run_fingerprint_round_trips() {
        assert_eq!(decode_header_run(&header_line(0)), Some(0));
        assert_eq!(decode_header_run(&header_line(u64::MAX)), Some(u64::MAX));
        // Record lines and pre-fingerprint headers carry no run.
        assert_eq!(decode_header_run(&encode_entry(1, &sample_outcome())), None);
        assert_eq!(
            decode_header_run("{\"schema\":\"wishbranch.journal/v1\"}"),
            None
        );
        assert_eq!(decode_header_run("garbage"), None);
    }

    #[test]
    fn reopening_with_a_different_run_fingerprint_is_refused() {
        let dir = std::env::temp_dir().join(format!("wb-journal-run-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal.jsonl");
        let _ = std::fs::remove_file(&path);

        drop(JournalWriter::open(&path, 7).unwrap());
        // Same fingerprint reopens fine (the kill-then-resume path).
        drop(JournalWriter::open(&path, 7).unwrap());
        // A different fingerprint is a typed refusal, not an I/O error.
        let err = JournalWriter::open(&path, 8).unwrap_err();
        match err {
            JournalError::RunMismatch { expected, found } => {
                assert_eq!(expected, 8);
                assert_eq!(found, Some(7));
            }
            JournalError::Io(e) => panic!("expected RunMismatch, got Io: {e}"),
        }

        // A legacy header without a fingerprint is also refused.
        std::fs::write(&path, "{\"schema\":\"wishbranch.journal/v1\"}\n").unwrap();
        let err = JournalWriter::open(&path, 7).unwrap_err();
        assert!(
            matches!(err, JournalError::RunMismatch { found: None, .. }),
            "legacy header must refuse with found=None: {err}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_journal_is_empty() {
        let map = load(Path::new("/nonexistent/journal.jsonl")).unwrap();
        assert!(map.is_empty());
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
