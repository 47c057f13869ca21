//! The four workloads, the untraced measurement, and the traced layer
//! profile.
//!
//! Every packet workload runs `ShardEngine::run_with` threaded, with
//! one shard per core, default batching and no per-packet outputs. The
//! source is pulled on the engine's own dispatcher thread. Throughput
//! is packets offered over wall clock, from opening the `.nfw` to
//! `run_with` returning the merged state.

use crate::check::{self, Observed, Reference};
use crate::inputs::{self, TimedSource, Trace, WorkDir};
use crate::metrics::{median, quantile_sorted, Outcome};
use crate::setup::{self, StageTimes, Tracing};
use nf_packet::{NfwReader, Packet};
use nf_shard::{Backend, RunConfig, RunMode, ShardEngine, WorkloadSource};
use nfactor_core::Synthesis;
use std::hint::black_box;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// All 8 corpus NFs at paper scale: source to compiled engine, then
    /// the §5 accuracy stream through each engine. Led by synthesis and
    /// lint.
    SynthCorpus,
    /// The firewall on the compiled backend over a 1M-packet trace: the
    /// partitioned path with a per-flow map that keeps growing. Led by
    /// ingest, dispatch and compiled eval.
    FwStream,
    /// The firewall on the interpreter (the CLI default) over a trace
    /// prefix. Led by the per-packet journal of the interpreter.
    FwInterp,
    /// fig1-lb on the compiled backend past its port pool: the
    /// global-lock plan plus exactly `LB_FAILURES` failing packets.
    /// Led by the supervise path.
    LbExhaust,
}

pub const WORKLOADS: [(&str, Workload); 4] = [
    ("synth-corpus", Workload::SynthCorpus),
    ("fw-stream", Workload::FwStream),
    ("fw-interp", Workload::FwInterp),
    ("lb-exhaust", Workload::LbExhaust),
];

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        WORKLOADS.iter().find(|(n, _)| *n == name).map(|(_, w)| *w)
    }
}

const FW_PACKETS: u64 = 1_000_000;
/// The interpreter's journal clones every global per packet, so a pass
/// grows quadratically with the trace; 12k packets take about 1.4 s.
const FW_INTERP_PACKETS: u64 = 12_000;
/// Packets of the accuracy stream pushed through each corpus engine.
const CORPUS_PACKETS: u64 = 2_000;
/// Packets fig1-lb fails on once its port pool is spent. Each costs
/// about 150–200 ms on the compiled fallback path.
pub const LB_FAILURES: u64 = 8;
/// A set-up round of a one-NF workload builds engines for at least this
/// long, so each set-up sample is the mean of hundreds of builds rather
/// than one sub-millisecond timing.
const SETUP_ROUND: Duration = Duration::from_millis(200);
/// Each round runs passes for at least this long after its set-up, so
/// the short corpus passes repeat while a one-NF pass runs once.
const PASS_ROUND: Duration = Duration::from_millis(500);
const MIN_REPEATS: usize = 3;

/// Exact sizes of the paper-scale corpus, per NF: symbolic paths, model
/// entries, and compiled decision-tree nodes. A change in any of them
/// is a change in what the pipeline synthesizes.
const CORPUS_SIZES: [(&str, u64, u64, u64); 8] = [
    ("fig1-lb", 5, 5, 4),
    ("balance", 10, 10, 60),
    ("snort", 3, 3, 1),
    ("nat", 5, 5, 7),
    ("firewall", 4, 4, 9),
    ("ratelimiter", 4, 4, 1),
    ("portknock", 10, 10, 6),
    ("router", 5, 5, 21),
];

/// One NF of a workload with its trace and reference inputs.
struct Job {
    name: &'static str,
    src: String,
    syn: Synthesis,
    scope: Vec<String>,
    trace: Trace,
    expect_fail: Vec<u64>,
}

/// A workload with its inputs generated and its NFs synthesized, ready
/// to time.
pub struct Prepared {
    workload: Workload,
    backend: Backend,
    reference: Reference,
    shards: usize,
    jobs: Vec<Job>,
    /// lb-exhaust: the trace up to its first failing packet.
    prefix: Option<Trace>,
    pub k: u64,
    pub trace_packets: u64,
    pub trace_bytes: u64,
    _dir: WorkDir,
}

pub fn prepare(workload: Workload, seed: u64, shards: usize) -> Result<Prepared, String> {
    let dir = WorkDir::create().map_err(|e| format!("work directory: {e}"))?;
    let io = |e: std::io::Error| format!("writing trace: {e}");
    let (nfs, trace, expect_fail, prefix, backend) = match workload {
        Workload::SynthCorpus => {
            let nfs = nf_corpus::default_corpus()
                .into_iter()
                .map(|nf| (nf.name, nf.source))
                .collect();
            let trace =
                inputs::write_random(dir.file("corpus.nfw"), seed, CORPUS_PACKETS).map_err(io)?;
            (nfs, trace, Vec::new(), None, Backend::Compiled)
        }
        Workload::FwStream | Workload::FwInterp => {
            let (n, backend) = if workload == Workload::FwStream {
                (FW_PACKETS, Backend::Compiled)
            } else {
                (FW_INTERP_PACKETS, Backend::Interp)
            };
            let trace = inputs::write_random(dir.file("fw.nfw"), seed, n).map_err(io)?;
            (
                vec![("firewall", nf_corpus::firewall::source())],
                trace,
                Vec::new(),
                None,
                backend,
            )
        }
        Workload::LbExhaust => {
            let (trace, failing) =
                inputs::write_lb_exhaust(dir.file("lb.nfw"), seed, LB_FAILURES).map_err(io)?;
            let prefix =
                inputs::write_random(dir.file("lb-prefix.nfw"), seed, failing[0]).map_err(io)?;
            (
                vec![("fig1-lb", nf_corpus::fig1_lb::source())],
                trace,
                failing,
                Some(prefix),
                Backend::Compiled,
            )
        }
    };
    let mut jobs = Vec::new();
    for (name, src) in nfs {
        let (syn, _) = setup::build(&setup::pipeline(name, shards, Tracing::Off)?, &src, backend)?;
        jobs.push(Job {
            name,
            scope: check::scope_of(&syn),
            src,
            syn,
            trace: trace.clone(),
            expect_fail: expect_fail.clone(),
        });
    }
    let reference = match workload {
        Workload::SynthCorpus => Reference::Interp,
        Workload::FwStream | Workload::FwInterp | Workload::LbExhaust => Reference::Model,
    };
    Ok(Prepared {
        workload,
        backend,
        reference,
        shards,
        k: expect_fail.len() as u64,
        trace_packets: trace.packets,
        trace_bytes: trace.bytes,
        jobs,
        prefix,
        _dir: dir,
    })
}

fn run_config(mode: RunMode) -> RunConfig {
    let mut cfg = RunConfig::threaded();
    cfg.mode = mode;
    cfg.keep_outputs = false;
    cfg
}

/// One pass of every job's trace through its engine.
#[derive(Debug, Default)]
struct Pass {
    wall_ns: f64,
    offered: u64,
    ingest_ns: f64,
    dispatch_ns: f64,
    wait_ns: f64,
    busy_ns: f64,
    processed: u64,
    tail_ns: f64,
    entries: u64,
    quarantined: u64,
    telemetry: bool,
    observed: Vec<Observed>,
}

fn run_pass(
    p: &Prepared,
    engines: &[ShardEngine],
    mode: RunMode,
    prefix: bool,
) -> Result<Pass, String> {
    let cfg = run_config(mode);
    let mut pass = Pass::default();
    for (job, engine) in p.jobs.iter().zip(engines) {
        let trace = if prefix {
            p.prefix.as_ref().expect("lb-exhaust has a prefix")
        } else {
            &job.trace
        };
        let start = Instant::now();
        let reader = NfwReader::open(trace.path_str()).map_err(|e| e.to_string())?;
        let mut src = TimedSource::new(reader);
        let run = engine
            .run_with(&mut src, &cfg)
            .map_err(|e| format!("{}: run: {e}", job.name))?;
        let end = Instant::now();
        pass.wall_ns += (end - start).as_nanos() as f64;
        pass.tail_ns += src.ended_at.map_or(0.0, |t| (end - t).as_nanos() as f64);
        pass.ingest_ns += src.pull_ns as f64;
        if run.offered() != src.offered || src.offered != trace.packets {
            return Err(format!(
                "{}: offered {} packets, engine accounted {}, trace holds {}",
                job.name,
                src.offered,
                run.offered(),
                trace.packets
            ));
        }
        pass.offered += src.offered;
        pass.processed += run.total_pkts();
        pass.dispatch_ns += run.dispatch_ns as f64;
        pass.wait_ns += run.dispatch_wait_ns as f64;
        pass.busy_ns += run.busy_ns.iter().sum::<u64>() as f64;
        pass.entries += check::map_entries(&run.merged);
        pass.quarantined += run.fault_summary().quarantined;
        pass.telemetry |= run.stats.is_some();
        if !prefix {
            pass.observed.push(Observed::of_run(&run, &job.scope));
        }
    }
    Ok(pass)
}

/// Build every job's engine and push one set-up sample: a one-NF
/// workload keeps building for `SETUP_ROUND` and contributes its mean
/// build time; the corpus builds once and contributes the sum over its
/// NFs. Returns the engines of the last build and the number of corpus
/// size mismatches found.
fn setup_round(p: &Prepared, samples: &mut Vec<f64>) -> Result<(Vec<ShardEngine>, u64), String> {
    let pipelines = p
        .jobs
        .iter()
        .map(|j| setup::pipeline(j.name, p.shards, Tracing::Off))
        .collect::<Result<Vec<_>, _>>()?;
    let round = Instant::now();
    let (mut round_ns, mut builds) = (0.0, 0u32);
    loop {
        let mut engines = Vec::with_capacity(p.jobs.len());
        let mut total = 0.0;
        let mut mismatches = 0;
        for (job, pipeline) in p.jobs.iter().zip(&pipelines) {
            let t = Instant::now();
            let (syn, engine) = setup::build(pipeline, &job.src, p.backend)?;
            total += t.elapsed().as_nanos() as f64;
            engines.push(engine);
            if p.workload == Workload::SynthCorpus {
                let sizes = (
                    syn.exploration.paths.len() as u64,
                    syn.model.entry_count() as u64,
                );
                if Some(sizes) != corpus_size(job.name).map(|(paths, entries, _)| (paths, entries))
                {
                    eprintln!(
                        "{}: {} paths, {} entries differ from the corpus table",
                        job.name, sizes.0, sizes.1
                    );
                    mismatches += 1;
                }
            }
        }
        round_ns += total;
        builds += 1;
        if p.jobs.len() > 1 || round.elapsed() >= SETUP_ROUND {
            samples.push(round_ns / f64::from(builds));
            return Ok((engines, mismatches));
        }
    }
}

fn corpus_size(name: &str) -> Option<(u64, u64, u64)> {
    CORPUS_SIZES
        .iter()
        .find(|(n, ..)| *n == name)
        .map(|&(_, a, b, c)| (a, b, c))
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// The correctness record of a run: packets offered and packets wrong.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Quarantined packets the reference also fails on (lb-exhaust's K).
    pub expected_failures: u64,
}

impl Tally {
    /// Compare every checked pass against the reference, which is
    /// computed after timing ends.
    fn check(&mut self, p: &Prepared, passes: &[Vec<Observed>]) -> Result<(), String> {
        for (i, job) in p.jobs.iter().enumerate() {
            let reference = check::reference(
                p.reference,
                &job.syn,
                &job.trace,
                &job.scope,
                &job.expect_fail,
            )?;
            if reference.failed_seqs != job.expect_fail {
                eprintln!(
                    "{}: reference fails on {:?}, the lb rule predicts {:?}",
                    job.name, reference.failed_seqs, job.expect_fail
                );
                self.failed += 1;
            }
            for pass in passes {
                let wrong = pass[i].mismatches(&reference);
                if wrong > 0 {
                    eprintln!(
                        "{}: {wrong} packets disagree with the reference: {:?} vs {:?}",
                        job.name, pass[i], reference
                    );
                }
                self.failed += wrong;
                self.expected_failures += pass[i].failed_seqs.len() as u64;
            }
        }
        Ok(())
    }
}

/// What the untraced run reports besides its metrics.
pub struct Summary {
    pub rounds: usize,
    pub passes: usize,
    pub tally: Tally,
}

/// The untraced measurement: rounds of set-up then passes until
/// `seconds` have gone by, then the reference check.
pub fn measure(p: &Prepared, seconds: f64, out: &mut Outcome) -> Result<Summary, String> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let (mut setup_ns, mut walls, mut observed) = (Vec::new(), Vec::new(), Vec::new());
    let mut tally = Tally::default();
    // Peak RSS after the first set-up and pass: the workload as a user
    // runs it once. Later passes add only allocator-reuse noise.
    let mut rss = None;
    if p.workload == Workload::SynthCorpus {
        for job in &p.jobs {
            let nodes = setup::compiled_nodes(&job.syn)?;
            let expect = corpus_size(job.name).map(|s| s.2);
            if Some(nodes) != expect {
                eprintln!(
                    "{}: {nodes} compiled nodes, corpus table says {expect:?}",
                    job.name
                );
                tally.failed += 1;
            }
            tally.attempted += 1;
        }
    }
    let mut rounds = 0;
    loop {
        let (engines, size_mismatches) = setup_round(p, &mut setup_ns)?;
        tally.failed += size_mismatches;
        if p.workload == Workload::SynthCorpus {
            tally.attempted += p.jobs.len() as u64;
        }
        if rss.is_none() && p.prefix.is_some() {
            // fig1-lb's failure path snapshots the whole state, and
            // whether that raises the peak by ~27 MiB depends on
            // allocator reuse; its peak is taken over the failure-free
            // prefix instead.
            run_pass(p, &engines, RunMode::Threaded, true)?;
            rss = Some(peak_rss_mib()?);
        }
        let round = Instant::now();
        while round.elapsed() < PASS_ROUND {
            let pass = run_pass(p, &engines, RunMode::Threaded, false)?;
            if pass.telemetry {
                return Err("the telemetry plane ran in an untraced run".into());
            }
            tally.attempted += pass.offered;
            walls.push(pass.wall_ns);
            observed.push(pass.observed);
            if rss.is_none() {
                rss = Some(peak_rss_mib()?);
            }
        }
        drop(engines);
        rounds += 1;
        if rounds >= MIN_REPEATS && Instant::now() >= deadline {
            break;
        }
    }
    tally.check(p, &observed)?;
    out.set("setup_s", median(&setup_ns) / 1e9);
    let per_pass = p.jobs.len() as f64 * p.trace_packets as f64;
    out.set("pkts_per_s", per_pass / (median(&walls) / 1e9));
    out.set("peak_rss_mb", rss.expect("at least one pass ran"));
    Ok(Summary {
        rounds,
        passes: walls.len(),
        tally,
    })
}

/// Single-thread eval of the backend under test, called directly on
/// the trace: mean ns/packet from batch timing, and per-packet samples
/// from a second pass on fresh state.
fn bare_eval(job: &Job, backend: Backend) -> Result<(f64, Vec<u64>), String> {
    enum Eval {
        Compiled(nf_compile::CompiledProgram, nf_compile::CompiledState),
        Interp(nfl_interp::Interp),
    }
    let fresh = || -> Result<Eval, String> {
        let interp = nfl_interp::Interp::new(&job.syn.nf_loop).map_err(|e| e.to_string())?;
        Ok(match backend {
            Backend::Compiled => {
                let init = nfactor_core::accuracy::initial_model_state(&job.syn, &interp);
                let prog = nf_compile::compile(&job.syn.model, &init).map_err(|e| e.to_string())?;
                let state = nf_compile::CompiledState::new(&prog);
                Eval::Compiled(prog, state)
            }
            _ => Eval::Interp(interp),
        })
    };
    let step = |ev: &mut Eval, pkt: &Packet| match ev {
        Eval::Compiled(prog, state) => {
            if black_box(state.step(prog, pkt)).is_err() {
                state.revert();
            }
        }
        Eval::Interp(interp) => {
            let _ = black_box(interp.process(pkt));
        }
    };
    let mut batch = Vec::with_capacity(256);
    let pull = |reader: &mut NfwReader, batch: &mut Vec<Packet>| -> Result<bool, String> {
        batch.clear();
        Ok(reader.next_batch(batch, 256).map_err(|e| e.to_string())? > 0)
    };

    let mut ev = fresh()?;
    let mut reader = NfwReader::open(job.trace.path_str()).map_err(|e| e.to_string())?;
    let (mut total_ns, mut n) = (0u64, 0u64);
    while pull(&mut reader, &mut batch)? {
        let t = Instant::now();
        for pkt in &batch {
            step(&mut ev, pkt);
        }
        total_ns += t.elapsed().as_nanos() as u64;
        n += batch.len() as u64;
    }

    let mut ev = fresh()?;
    let mut reader = NfwReader::open(job.trace.path_str()).map_err(|e| e.to_string())?;
    let mut samples = Vec::with_capacity(n as usize);
    while pull(&mut reader, &mut batch)? {
        for pkt in &batch {
            let t = Instant::now();
            step(&mut ev, pkt);
            samples.push(t.elapsed().as_nanos() as u64);
        }
    }
    Ok((total_ns as f64 / n as f64, samples))
}

/// Run `f` at least `MIN_REPEATS` times and until `budget` has gone by.
fn repeat<T>(budget: Duration, mut f: impl FnMut() -> Result<T, String>) -> Result<Vec<T>, String> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < MIN_REPEATS || start.elapsed() < budget {
        out.push(f()?);
    }
    Ok(out)
}

fn per_pass(passes: &[Pass], f: impl Fn(&Pass) -> f64) -> f64 {
    median(&passes.iter().map(f).collect::<Vec<_>>())
}

/// What the traced run reports besides its metrics.
pub struct ProfileSummary {
    pub tally: Tally,
    pub setup_ms: f64,
}

/// Stage times must add up to a plain build within this share.
pub const COVERAGE_TOLERANCE: f64 = 0.15;

/// The traced run: the set-up split, then untraced, traced and
/// single-shard passes, bare eval, and (lb-exhaust) the failure-free
/// prefix. Each phase gets a quarter of `seconds`.
pub fn profile(p: &Prepared, seconds: f64, out: &mut Outcome) -> Result<ProfileSummary, String> {
    let phase = Duration::from_secs_f64(seconds / 4.0);
    let pipelines = |tracing| {
        p.jobs
            .iter()
            .map(|j| setup::pipeline(j.name, p.shards, tracing))
            .collect::<Result<Vec<_>, _>>()
    };
    let plain = pipelines(Tracing::Off)?;

    // Set-up split, each round next to a plain build of the same NFs.
    let rounds = repeat(phase, || {
        let mut st = StageTimes::default();
        let mut build_ns = 0.0;
        for (job, pipeline) in p.jobs.iter().zip(&plain) {
            st.add(&setup::profile_stages(pipeline, &job.src, p.backend)?);
            let t = Instant::now();
            // Bound to a name so the drop happens after the clock read.
            let _built = setup::build(pipeline, &job.src, p.backend)?;
            build_ns += t.elapsed().as_nanos() as f64;
        }
        Ok((st, build_ns))
    })?;
    let stage = |f: fn(&StageTimes) -> f64| {
        median(&rounds.iter().map(|(s, _)| f(s)).collect::<Vec<_>>()) / 1e6
    };
    out.set("frontend.ms", stage(|s| s.frontend));
    out.set("structure.ms", stage(|s| s.structure));
    out.set("slice.ms", stage(|s| s.slice));
    out.set("slice.reported.ms", stage(|s| s.slice_reported));
    out.set("symex.ms", stage(|s| s.symex));
    out.set("symex.reported.ms", stage(|s| s.symex_reported));
    out.set("model.ms", stage(|s| s.model));
    out.set("lint.ms", stage(|s| s.lint));
    out.set("compile.ms", stage(|s| s.compile));
    out.set("engine.other.ms", stage(|s| s.engine_other));
    let setup_ms = median(&rounds.iter().map(|(_, b)| *b).collect::<Vec<_>>()) / 1e6;
    out.set("setup.coverage", stage(StageTimes::total) / setup_ms);
    let sizes = rounds[0].0;
    out.set("symex.paths", sizes.paths as f64);
    out.set("model.entries", sizes.entries as f64);
    out.set("compiled.nodes", sizes.nodes as f64);

    // Packet path.
    let engines = |pipelines: &[nfactor_core::Pipeline]| {
        p.jobs
            .iter()
            .zip(pipelines)
            .map(|(j, pl)| setup::build(pl, &j.src, p.backend).map(|(_, e)| e))
            .collect::<Result<Vec<_>, _>>()
    };
    let quiet = engines(&plain)?;
    let traced = engines(&pipelines(Tracing::On)?)?;
    let threaded = repeat(phase, || run_pass(p, &quiet, RunMode::Threaded, false))?;
    let with_trace = repeat(phase, || run_pass(p, &traced, RunMode::Threaded, false))?;
    let single = repeat(phase, || run_pass(p, &quiet, RunMode::Single, false))?;
    if !with_trace.iter().all(|pass| pass.telemetry) {
        return Err("the traced passes ran without the telemetry plane".into());
    }

    let pkts = |pass: &Pass| pass.offered as f64;
    out.set(
        "ingest.ns_per_pkt",
        per_pass(&threaded, |x| x.ingest_ns / pkts(x)),
    );
    out.set(
        "dispatch.active.ns_per_pkt",
        per_pass(&threaded, |x| (x.dispatch_ns - x.wait_ns) / pkts(x)),
    );
    out.set(
        "dispatch.wait.ns_per_pkt",
        per_pass(&threaded, |x| x.wait_ns / pkts(x)),
    );
    let engine_ns = per_pass(&threaded, |x| x.busy_ns / x.processed as f64);
    out.set("eval.engine.ns_per_pkt", engine_ns);
    out.set("tail.ms", per_pass(&threaded, |x| x.tail_ns / 1e6));
    out.set("state.entries", per_pass(&threaded, |x| x.entries as f64));
    out.set("quarantined", per_pass(&threaded, |x| x.quarantined as f64));
    let wall = per_pass(&threaded, |x| x.wall_ns);
    out.set(
        "driver.threaded_over_single",
        wall / per_pass(&single, |x| x.wall_ns),
    );
    out.set(
        "trace.overhead",
        per_pass(&with_trace, |x| x.wall_ns) / wall,
    );
    let fail_ms = if p.k > 0 {
        let prefix = repeat(phase, || run_pass(p, &quiet, RunMode::Threaded, true))?;
        (wall - per_pass(&prefix, |x| x.wall_ns)) / p.k as f64 / 1e6
    } else {
        0.0
    };
    out.set("fail.ms_per_pkt", fail_ms);

    let (mut bare_total, mut bare_n, mut samples) = (0.0, 0u64, Vec::new());
    for job in &p.jobs {
        let (mean, s) = bare_eval(job, p.backend)?;
        bare_total += mean * s.len() as f64;
        bare_n += s.len() as u64;
        samples.extend(s);
    }
    samples.sort_unstable();
    let bare = bare_total / bare_n as f64;
    out.set("eval.bare.ns_per_pkt", bare);
    out.set(
        "eval.bare.ns_per_pkt.p50",
        quantile_sorted(&samples, 0.50) as f64,
    );
    out.set(
        "eval.bare.ns_per_pkt.p99",
        quantile_sorted(&samples, 0.99) as f64,
    );
    out.set("eval.bare.samples", samples.len() as f64);
    out.set("supervise.ns_per_pkt", engine_ns - bare);

    let mut tally = Tally::default();
    let checked: Vec<Vec<Observed>> = threaded
        .into_iter()
        .chain(with_trace)
        .chain(single)
        .map(|pass| {
            tally.attempted += pass.offered;
            pass.observed
        })
        .collect();
    tally.check(p, &checked)?;
    Ok(ProfileSummary { tally, setup_ms })
}
