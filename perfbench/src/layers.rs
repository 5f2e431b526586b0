//! The traced re-execution and the per-layer ledger.
//!
//! The traced run calls each layer's public function inside a span:
//! `profile_on`, `compile`, `Simulator::run` or `BatchSimulator::run`,
//! `verify_retired_state`, the journal codec and (served-store only) the
//! artifact store. Simulated counts come from the untraced run's
//! `SimStats`; component host costs come from replaying the workload's
//! own retired streams through the predictor, JRS and cache models.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use wishbranch_bpred::{HybridPredictor, JrsConfidence};
use wishbranch_compiler::{compile, compile_adaptive, CompiledBinary};
use wishbranch_core::journal::{decode_entry, encode_entry};
use wishbranch_core::{
    profile_on, verify_retired_state, ArtifactStore, RunOutcome, SweepJob, TrainSpec,
};
use wishbranch_ir::Profile;
use wishbranch_isa::{insn_addr, RetireRecord};
use wishbranch_mem::Cache;
use wishbranch_uarch::{
    BatchLaneSpec, BatchSimulator, SimError, SimResult, SimScratch, SimStats, Simulator,
};
use wishbranch_workloads::{Benchmark, InputSet};

use crate::trace::Tracer;
use crate::util::{ratio, Metrics};

/// Span names of the layers. Every other span name in a traced tree
/// (`round`, `job`, `group`, `request`) is the benchmark's own bookkeeping
/// work and counts as unattributed.
const LAYER_SPANS: [&str; 10] = [
    "ir.profile",
    "compiler.compile",
    "uarch.sim",
    "batch.sim",
    "isa.verify",
    "journal.encode",
    "journal.decode",
    "store.put",
    "store.get",
    "workloads.suite_build",
];

/// Re-executes jobs layer by layer with the engine's memoization (one
/// profile per `(bench, input)`, one compile per compile key), so the
/// traced run does the same work the engine does.
pub struct Reexec<'a> {
    benches: &'a [Benchmark],
    profiles: HashMap<(usize, InputSet), Arc<Profile>>,
    binaries: HashMap<String, Arc<CompiledBinary>>,
    /// The simulator buffers reused from job to job, as each engine
    /// worker keeps one.
    scratch: SimScratch,
    pub store: Option<ArtifactStore>,
    /// Whether each outcome is journaled (and stored, with a store) on
    /// the job path, as the server's workers do. The sweeps attach no
    /// journal, so they run the codec in a separate pass instead.
    pub persist: bool,
    /// Host-side failures: profile faults, cycle-limit overruns, verify
    /// divergences and codec/store round-trip mismatches.
    pub errors: Vec<String>,
    pub entry_bytes: Vec<usize>,
    pub scalar_uops: u64,
    pub batch_uops: u64,
    pub sim_cycles: u64,
    /// Lane counts of every scheduling unit (1 for a scalar job).
    pub unit_widths: Vec<usize>,
}

fn compile_key(job: &SweepJob) -> String {
    format!(
        "{}|{:?}|{:?}|{:?}",
        job.bench, job.variant, job.train, job.compile
    )
}

impl<'a> Reexec<'a> {
    pub fn new(benches: &'a [Benchmark]) -> Reexec<'a> {
        Reexec {
            benches,
            profiles: HashMap::new(),
            binaries: HashMap::new(),
            scratch: SimScratch::default(),
            store: None,
            persist: true,
            errors: Vec::new(),
            entry_bytes: Vec::new(),
            scalar_uops: 0,
            batch_uops: 0,
            sim_cycles: 0,
            unit_widths: Vec::new(),
        }
    }

    /// Empties the profile and compile caches, as a fresh runner has them.
    pub fn forget_binaries(&mut self) {
        self.profiles.clear();
        self.binaries.clear();
    }

    fn profile(
        &mut self,
        t: &mut Tracer,
        bench: usize,
        input: InputSet,
        id: u64,
    ) -> Option<Arc<Profile>> {
        if let Some(p) = self.profiles.get(&(bench, input)) {
            return Some(Arc::clone(p));
        }
        let b = &self.benches[bench];
        match t.span("ir.profile", id, || profile_on(b, input)) {
            Ok(p) => {
                let p = Arc::new(p);
                self.profiles.insert((bench, input), Arc::clone(&p));
                Some(p)
            }
            Err(e) => {
                self.errors.push(format!("profile {}: {e}", b.name));
                None
            }
        }
    }

    pub fn binary(
        &mut self,
        t: &mut Tracer,
        job: &SweepJob,
        id: u64,
    ) -> Option<Arc<CompiledBinary>> {
        let key = compile_key(job);
        if let Some(b) = self.binaries.get(&key) {
            return Some(Arc::clone(b));
        }
        let module = &self.benches[job.bench].module;
        let bin = match &job.train {
            TrainSpec::Single(input) => {
                let profile = self.profile(t, job.bench, *input, id)?;
                t.span("compiler.compile", id, || {
                    compile(module, &profile, job.variant, &job.compile)
                })
            }
            TrainSpec::Multi(inputs) => {
                let mut profiles = Vec::new();
                for &input in inputs {
                    profiles.push((*self.profile(t, job.bench, input, id)?).clone());
                }
                t.span("compiler.compile", id, || {
                    compile_adaptive(module, &profiles, &job.compile)
                })
            }
        };
        let bin = Arc::new(bin);
        self.binaries.insert(key, Arc::clone(&bin));
        Some(bin)
    }

    /// Verifies, then round-trips the outcome through the journal codec
    /// (and the store, when one is attached).
    fn finish(
        &mut self,
        t: &mut Tracer,
        job: &SweepJob,
        key: u64,
        id: u64,
        bin: &CompiledBinary,
        sim: SimResult,
    ) -> Option<RunOutcome> {
        let bench = &self.benches[job.bench];
        if let Err(e) = t.span("isa.verify", id, || {
            verify_retired_state(&bin.program, bench, job.input, &sim)
        }) {
            self.errors.push(format!("verify {}: {e}", bench.name));
            return None;
        }
        self.sim_cycles += sim.stats.cycles;
        let outcome = RunOutcome {
            sim,
            report: bin.report,
            static_stats: bin.program.static_stats(),
        };
        if self.persist {
            self.persist_outcome(t, key, id, &outcome);
        }
        Some(outcome)
    }

    /// Round-trips an outcome through the journal codec, and through the
    /// store when one is attached.
    pub fn persist_outcome(&mut self, t: &mut Tracer, key: u64, id: u64, outcome: &RunOutcome) {
        let line = t.span("journal.encode", id, || encode_entry(key, outcome));
        self.entry_bytes.push(line.len());
        let decoded = t.span("journal.decode", id, || decode_entry(&line));
        if decoded
            .as_ref()
            .is_none_or(|(k, o)| *k != key || o != outcome)
        {
            self.errors
                .push(format!("journal round trip changed job {id}"));
        }
        if let Some(store) = &self.store {
            if let Err(e) = t.span("store.put", id, || store.put(key, outcome)) {
                self.errors.push(format!("store put: {e}"));
            }
            let got = t.span("store.get", id, || store.get(key));
            if got.as_ref() != Some(outcome) {
                self.errors
                    .push(format!("store round trip changed job {id}"));
            }
        }
    }

    /// The scalar simulation of one job, as the engine's
    /// `simulate_unverified_pooled` runs it on a worker: the simulator
    /// is built from the reused scratch buffers and recycled after.
    fn simulate(
        scratch: &mut SimScratch,
        benches: &[Benchmark],
        bin: &CompiledBinary,
        job: &SweepJob,
    ) -> Result<SimResult, SimError> {
        let mut sim = Simulator::with_scratch(&bin.program, job.machine.clone(), scratch);
        for (a, v) in (benches[job.bench].input_fn)(job.input) {
            sim.preload_mem(a, v);
        }
        let run = sim.run();
        sim.recycle(scratch);
        run
    }

    /// [`Reexec::simulate`] on this re-execution's scratch buffers.
    pub fn simulate_scalar(
        &mut self,
        bin: &CompiledBinary,
        job: &SweepJob,
    ) -> Result<SimResult, SimError> {
        Self::simulate(&mut self.scratch, self.benches, bin, job)
    }

    /// One job on the scalar core.
    pub fn run_scalar(
        &mut self,
        t: &mut Tracer,
        job: &SweepJob,
        key: u64,
        id: u64,
    ) -> Option<RunOutcome> {
        let span = t.enter("job", id);
        let out = self.run_scalar_inner(t, job, key, id);
        t.exit(span);
        out
    }

    fn run_scalar_inner(
        &mut self,
        t: &mut Tracer,
        job: &SweepJob,
        key: u64,
        id: u64,
    ) -> Option<RunOutcome> {
        let bin = self.binary(t, job, id)?;
        let bench = &self.benches[job.bench];
        let run = t.span("uarch.sim", id, || {
            Self::simulate(&mut self.scratch, self.benches, &bin, job)
        });
        self.unit_widths.push(1);
        match run {
            Ok(sim) => {
                self.scalar_uops += sim.stats.retired_uops;
                self.finish(t, job, key, id, &bin, sim)
            }
            Err(e) => {
                self.errors.push(format!("simulate {}: {e}", bench.name));
                None
            }
        }
    }

    /// Jobs `ids` (indices into `jobs`) as the lanes of one
    /// `BatchSimulator`, the grouping the engine plans for them.
    pub fn run_group(
        &mut self,
        t: &mut Tracer,
        jobs: &[SweepJob],
        keys: &[u64],
        ids: &[usize],
    ) -> Vec<Option<RunOutcome>> {
        if ids.len() == 1 {
            let i = ids[0];
            return vec![self.run_scalar(t, &jobs[i], keys[i], i as u64)];
        }
        let span = t.enter("group", ids[0] as u64);
        let mut bins = Vec::new();
        for &i in ids {
            bins.push(self.binary(t, &jobs[i], i as u64));
        }
        let mut out = vec![None; ids.len()];
        if bins.iter().all(Option::is_some) {
            let bins: Vec<Arc<CompiledBinary>> = bins.into_iter().flatten().collect();
            let benches = self.benches;
            let results = t.span("batch.sim", ids[0] as u64, || {
                let specs: Vec<BatchLaneSpec<'_>> = ids
                    .iter()
                    .zip(&bins)
                    .map(|(&i, bin)| BatchLaneSpec {
                        program: &bin.program,
                        cfg: jobs[i].machine.clone(),
                        preload_mem: (benches[jobs[i].bench].input_fn)(jobs[i].input),
                        retire_log: false,
                    })
                    .collect();
                BatchSimulator::new(&specs).run()
            });
            self.unit_widths.push(ids.len());
            for ((slot, &i), (bin, result)) in out.iter_mut().zip(ids).zip(bins.iter().zip(results))
            {
                match result {
                    Ok(sim) => {
                        self.batch_uops += sim.stats.retired_uops;
                        *slot = self.finish(t, &jobs[i], keys[i], i as u64, bin, sim);
                    }
                    Err(e) => self.errors.push(format!("batch lane {i}: {e}")),
                }
            }
        }
        t.exit(span);
        out
    }
}

/// Groups job indices the way `SweepRunner` plans batches: by compile
/// key in first-seen order, chunked to `width` lanes.
pub fn plan_groups(jobs: &[SweepJob], width: usize) -> Vec<Vec<usize>> {
    if width <= 1 {
        return (0..jobs.len()).map(|i| vec![i]).collect();
    }
    let mut order: Vec<String> = Vec::new();
    let mut groups: HashMap<String, Vec<usize>> = HashMap::new();
    for (i, job) in jobs.iter().enumerate() {
        let key = compile_key(job);
        groups
            .entry(key.clone())
            .or_insert_with(|| {
                order.push(key);
                Vec::new()
            })
            .push(i);
    }
    order
        .iter()
        .flat_map(|k| {
            groups[k]
                .chunks(width)
                .map(<[usize]>::to_vec)
                .collect::<Vec<_>>()
        })
        .collect()
}

/// The ledger's layer times from a traced tree rooted at `root`.
pub fn layer_metrics(t: &Tracer, root: usize, rx: &Reexec<'_>, m: &mut Metrics) {
    let times = t.self_times(Some(root));
    let get = |name: &str| times.get(name).copied().unwrap_or_default();
    // Per-entry codec and store costs, wherever the workload ran them.
    let everywhere = t.self_times(None);
    let per_op = |name: &str| everywhere.get(name).copied().unwrap_or_default().mean_ns();
    let (profile, compile, sim, batch, verify) = (
        get("ir.profile"),
        get("compiler.compile"),
        get("uarch.sim"),
        get("batch.sim"),
        get("isa.verify"),
    );
    m.set("ir.profile_ms", profile.ms(), "ms");
    m.set("ir.profiles", profile.count as f64, "count");
    m.set("compiler.compile_ms", compile.ms(), "ms");
    m.set("compiler.compiles", compile.count as f64, "count");
    m.set("uarch.sim_ms", sim.ms(), "ms");
    m.set(
        "uarch.uops_per_s",
        ratio(rx.scalar_uops as f64, sim.self_ns as f64 / 1e9),
        "uop/s",
    );
    m.set(
        "uarch.host_ns_per_cycle",
        ratio((sim.self_ns + batch.self_ns) as f64, rx.sim_cycles as f64),
        "ns",
    );
    m.set("batch.sim_ms", batch.ms(), "ms");
    m.set(
        "batch.uops_per_s",
        ratio(rx.batch_uops as f64, batch.self_ns as f64 / 1e9),
        "uop/s",
    );
    let widths = &rx.unit_widths;
    m.set(
        "batch.mean_width",
        ratio(widths.iter().sum::<usize>() as f64, widths.len() as f64),
        "lanes",
    );
    m.set("isa.verify_ms", verify.ms(), "ms");
    let phases = profile.self_ns + compile.self_ns + sim.self_ns + batch.self_ns + verify.self_ns;
    m.set(
        "isa.verify_share",
        ratio(verify.self_ns as f64, phases as f64),
        "ratio",
    );
    m.set("journal.encode_us", per_op("journal.encode") / 1e3, "us");
    m.set("journal.decode_us", per_op("journal.decode") / 1e3, "us");
    m.set(
        "journal.entry_bytes",
        ratio(
            rx.entry_bytes.iter().sum::<usize>() as f64,
            rx.entry_bytes.len() as f64,
        ),
        "bytes",
    );
    m.set("store.put_ms", per_op("store.put") / 1e6, "ms");
    m.set("store.get_ms", per_op("store.get") / 1e6, "ms");
    let total: u64 = times.values().map(|l| l.self_ns).sum();
    let layers: u64 = LAYER_SPANS.iter().map(|n| get(n).self_ns).sum();
    let unattributed_ms = (total - layers) as f64 / 1e6;
    m.set("trace.unattributed_ms", unattributed_ms, "ms");
    println!(
        "traced wall {:.3} ms = layer self times {:.3} ms + unattributed bookkeeping {unattributed_ms:.3} ms",
        t.duration_ns(root) as f64 / 1e6,
        layers as f64 / 1e6,
    );
}

/// Simulated (deterministic) statistics of a workload's jobs.
pub fn sim_metrics(stats: &[&SimStats], m: &mut Metrics) {
    let sum = |f: &dyn Fn(&SimStats) -> u64| stats.iter().map(|s| f(s)).sum::<u64>() as f64;
    let cycles = sum(&|s| s.cycles);
    let uops = sum(&|s| s.retired_uops);
    m.set("sim.cycles", cycles, "cycles");
    m.set("sim.retired_uops", uops, "uops");
    m.set("sim.upc", ratio(uops, cycles), "uop/cycle");
    for (k, (name, _)) in SimStats::default()
        .cycle_accounting
        .rows()
        .iter()
        .enumerate()
    {
        let cause = sum(&|s| s.cycle_accounting.rows()[k].1);
        m.set(format!("sim.acct.{name}"), ratio(cause, cycles), "ratio");
    }
    m.set(
        "uarch.fetched_per_retired",
        ratio(sum(&|s| s.fetched_uops), uops),
        "ratio",
    );
    m.set(
        "bpred.mispredicts_per_kuop",
        ratio(sum(&|s| s.retired_mispredicted) * 1000.0, uops),
        "1/kuop",
    );
    m.set("bpred.flushes", sum(&|s| s.flushes), "count");
    m.set(
        "bpred.flushes_avoided",
        sum(&|s| s.flushes_avoided),
        "count",
    );
    let wish = sum(&|s| s.wish_branches_total());
    let low = sum(&|s| {
        [s.wish_jumps, s.wish_joins, s.wish_loops]
            .iter()
            .map(|c| c.low_correct + c.low_mispredicted)
            .sum()
    });
    m.set("bpred.low_conf_ratio", ratio(low, wish), "ratio");
    let miss = |f: &dyn Fn(&SimStats) -> wishbranch_mem::CacheStats| {
        let misses = sum(&|s| f(s).misses);
        ratio(misses, sum(&|s| f(s).accesses()))
    };
    m.set("mem.icache_miss_ratio", miss(&|s| s.icache), "ratio");
    m.set("mem.l1d_miss_ratio", miss(&|s| s.l1d), "ratio");
    m.set("mem.l2_miss_ratio", miss(&|s| s.l2), "ratio");
    m.set(
        "mem.mshr_full_stalls",
        sum(&|s| s.mshr_full_stalls),
        "count",
    );
    m.set(
        "mem.writebuf_full_stalls",
        sum(&|s| s.writebuf_full_stalls),
        "count",
    );
    m.set(
        "mem.port_conflict_stalls",
        sum(&|s| s.port_conflict_stalls),
        "count",
    );
    m.set(
        "mem.wrong_path_fills",
        sum(&|s| s.wrong_path_fills),
        "count",
    );
}

/// Minimum host time each component replay loops for, so a per-call
/// cost is measured over many calls.
const REPLAY_NS: u128 = 40_000_000;

/// Times `pass` repeatedly until [`REPLAY_NS`] has passed; returns host
/// ns per call given `calls` calls per pass.
fn time_per_call(calls: usize, mut pass: impl FnMut() -> u64) -> f64 {
    let t0 = Instant::now();
    let mut passes = 0u64;
    while passes == 0 || t0.elapsed().as_nanos() < REPLAY_NS {
        black_box(pass());
        passes += 1;
    }
    ratio(
        t0.elapsed().as_nanos() as f64,
        (passes * calls as u64) as f64,
    )
}

/// Component replay: captures the retired stream of sample jobs with the
/// retire log, then replays its conditional branches through the hybrid
/// predictor and JRS, and its fetch PCs and store addresses through the
/// I-cache and L1D tag arrays of the job's own machine.
pub fn component_replay(
    t: &mut Tracer,
    rx: &mut Reexec<'_>,
    samples: &[&SweepJob],
    benches: &[Benchmark],
    m: &mut Metrics,
) {
    let root = t.enter("replay", 0);
    let mut branches: Vec<(u32, bool)> = Vec::new();
    let mut fetch_addrs: Vec<u64> = Vec::new();
    let mut store_addrs: Vec<u64> = Vec::new();
    let mut machine = None;
    for (i, job) in samples.iter().enumerate() {
        let Some(bin) = rx.binary(t, job, i as u64) else {
            continue;
        };
        let mut sim = Simulator::new(&bin.program, job.machine.clone());
        for (a, v) in (benches[job.bench].input_fn)(job.input) {
            sim.preload_mem(a, v);
        }
        sim.enable_retire_log();
        if sim.run().is_err() {
            rx.errors
                .push(format!("replay capture of sample {i} hit the cycle limit"));
            continue;
        }
        let records: Vec<RetireRecord> = sim.take_retire_log();
        for r in &records {
            if bin
                .program
                .get(r.pc)
                .is_some_and(|insn| insn.is_conditional_branch())
            {
                branches.push((r.pc, r.taken));
            }
            fetch_addrs.push(insn_addr(r.pc));
            if let Some((addr, _)) = r.mem_write {
                store_addrs.push(addr);
            }
        }
        machine.get_or_insert_with(|| job.machine.clone());
    }
    let Some(machine) = machine else {
        t.exit(root);
        return;
    };
    // Predictions of one pass, so JRS is trained with real correctness.
    let mut bp = HybridPredictor::new(machine.bpred);
    let mut ghrs = Vec::with_capacity(branches.len());
    let mut correct = Vec::with_capacity(branches.len());
    for &(pc, taken) in &branches {
        let (dir, tok) = bp.predict(pc);
        ghrs.push(tok.ghr);
        correct.push(dir == taken);
        bp.on_fetch_branch(dir);
        bp.update(pc, &tok, taken);
        if dir != taken {
            bp.restore_ghr(tok.ghr, taken);
        }
    }
    let predict_ns = t.span("bpred.replay", 0, || {
        time_per_call(branches.len(), || {
            let mut bp = HybridPredictor::new(machine.bpred);
            for &(pc, taken) in &branches {
                let (dir, tok) = bp.predict(black_box(pc));
                bp.on_fetch_branch(dir);
                bp.update(pc, &tok, taken);
                if dir != taken {
                    bp.restore_ghr(tok.ghr, taken);
                }
            }
            bp.stats().mispredicts
        })
    });
    let jrs_ns = t.span("bpred.jrs_replay", 0, || {
        time_per_call(branches.len(), || {
            let mut jrs = JrsConfidence::new(machine.jrs);
            let mut high = 0u64;
            for ((&(pc, _), &ghr), &ok) in branches.iter().zip(&ghrs).zip(&correct) {
                high += u64::from(jrs.estimate(black_box(pc), ghr).is_high());
                jrs.update(pc, ghr, ok);
            }
            high
        })
    });
    let cache_ns = t.span("mem.replay", 0, || {
        time_per_call(fetch_addrs.len() + store_addrs.len(), || {
            let mut icache = Cache::new(machine.mem.icache);
            let mut l1d = Cache::new(machine.mem.l1d);
            let mut hits = 0u64;
            for &a in &fetch_addrs {
                hits += u64::from(icache.access(black_box(a)));
            }
            for &a in &store_addrs {
                hits += u64::from(l1d.access(black_box(a)));
            }
            hits
        })
    });
    t.exit(root);
    println!(
        "component replay: {} samples, {} branches, {} fetch + {} store addresses",
        samples.len(),
        branches.len(),
        fetch_addrs.len(),
        store_addrs.len()
    );
    m.set("bpred.predict_update_ns", predict_ns, "ns");
    m.set("bpred.jrs_ns", jrs_ns, "ns");
    m.set("mem.cache_access_ns", cache_ns, "ns");
}
