//! The sharded execution engine.
//!
//! A [`ShardEngine`] runs one NF — its NFL interpreter, its synthesized
//! model, or the compiled model ([`Backend`]) — across `n` shards,
//! placing state as the [`ShardPlan`] dictates:
//!
//! * **Partitioned** plans steer each packet to the shard its dispatch
//!   hash picks; every shard owns an independent copy of the program
//!   state, and per-flow maps partition because all packets of a flow
//!   (and, for symmetric keys, its reply direction) land on one shard.
//!   There is deliberately **no work stealing**: stealing a packet
//!   would move it away from the shard that owns its flow state, which
//!   is exactly the locality the dispatch hash exists to preserve.
//! * **Global-lock** plans (shared state) run one program instance on
//!   the dispatcher thread, in arrival order, in every run mode. Packets
//!   still go round-robin to `n` *virtual* shards, which keep their own
//!   packet counts, busy time, telemetry, fault addressing
//!   (`shard:nth`) and restart streaks, so the result is bit-identical
//!   to a single-shard run without threads that only take turns.
//!
//! After a run, per-shard states are merged back into one view
//! ([`ShardRun::merged`]): partitioned maps union (their key sets are
//! disjoint by construction — a collision is reported as an engine
//! bug), log-only counters sum their per-shard deltas, and replicated
//! state is checked untouched. A global-lock run's single state goes
//! through the same merge.
//!
//! All execution goes through one entry point,
//! [`ShardEngine::run_with`], and one dispatch loop. The dispatcher
//! pulls packets from a streaming [`WorkloadSource`] in configurable
//! batches ([`BatchConfig`]), assigns arrival seqs, routes them, and
//! hands them to one of two transports: SPSC rings feeding one worker
//! thread per shard ([`RunMode::Threaded`] on a partitioned plan, one
//! ring push per shard bin), or inline evaluation on the dispatcher
//! thread (sequential and single runs, and every global-lock run).
//! Both transports run the same per-packet worker step.
//!
//! With [`BatchConfig::rebalance`] a partitioned dispatcher also
//! counters skew: when a shard's queue stays above the high-water mark
//! and the dispatcher-side hot-key sketch confirms a guaranteed heavy
//! hitter there, genuinely *new* flows that hash to the hot shard are
//! pinned to the least-loaded shard through an epoch-stamped seen-flow
//! table. Flows that have been seen before are never moved, so every
//! flow keeps exactly one owner for the whole run — which is why the
//! sharded≡single differential invariant survives rebalancing
//! unconditionally.
//!
//! Every mode runs **supervised**: each packet's eval is wrapped in
//! `catch_unwind`, and a panic or runtime error from inside the step
//! is undone from the backend's own undo log (O(entries the packet
//! touched)) and quarantines the packet ([`crate::supervise`]) instead
//! of aborting the run, the same way on every backend. A deterministic
//! [`FaultPlan`] in the [`RunConfig`] threads through dispatch and
//! eval so the chaos differential suite can prove that non-quarantined
//! behaviour is byte-identical to the fault-free run.

use crate::dispatch::{dispatch_hash, dispatch_values};
use crate::plan::ShardPlan;
use crate::telemetry::{FlightOutcome, RunStats, ShardStats, TelemetryConfig, WorkerTelemetry};
use crate::supervise::{
    panic_message, quiet_catch_unwind, scramble_packet, Quarantine, QuarantineRecord,
    SupervisorPolicy, INJECTED_RING_DEADLINE,
};
use nf_compile::{CompiledProgram, CompiledState};
use nf_model::{Model, ModelState};
use nf_packet::Packet;
use nf_support::fault::{FaultKind, FaultPlan};
use nf_support::sketch::TopK;
use nf_support::spsc::{Backoff, Producer, TrySendError};
use nf_support::workload::WorkloadSource;
use nf_trace::{Histogram, Tracer};
use nfactor_core::{Pipeline, Synthesis};
use nfl_interp::{Interp, Value, ValueKey};
use nfl_lint::{DispatchKey, ShardingReport, StateShard};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Ring capacity per worker; deep enough to absorb dispatch bursts,
/// shallow enough to bound memory.
const RING_CAP: usize = 1024;

/// Seen-flow table capacity of the skew rebalancer. When the table is
/// full, migration stops and new flows route by pure hash — bounded
/// memory, still sound.
const REBALANCE_TABLE_CAP: usize = 65_536;

/// Bounds for the `shard.N.batch.fill` histogram: how full dispatch
/// bins are when pushed over a ring (1 = degenerate per-packet
/// dispatch).
const BATCH_FILL_BOUNDS: [u64; 9] = [1, 2, 4, 8, 16, 32, 64, 128, 256];

/// One dispatch bin: `(arrival seq, per-shard ordinal, packet)` rows
/// pushed over the ring as a unit.
type Bin = Vec<(u64, u64, Packet)>;

/// A by-name snapshot of one state instance's persistent state.
type Snapshot = BTreeMap<String, Value>;

/// What executes on each shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The NFL interpreter over the normalised program.
    Interp,
    /// The synthesized model evaluator.
    Model,
    /// The model compiled to a flattened XFSM dispatch engine
    /// (`nf-compile`): decision-tree flow classification, memoized
    /// state tags, dense state arenas.
    Compiled,
}

/// Errors from building or running a shard engine.
#[derive(Debug)]
pub enum ShardError {
    /// Lint or parse failure while building.
    Build(String),
    /// A shard hit a runtime error processing a packet.
    Runtime(String),
    /// Thread spawn/join failure.
    Thread(String),
    /// State merge detected an invariant violation (a partitioning or
    /// replication bug).
    Merge(String),
    /// The workload source failed mid-stream (truncated trace file,
    /// malformed record).
    Workload(String),
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::Build(m) => write!(f, "build: {m}"),
            ShardError::Runtime(m) => write!(f, "runtime: {m}"),
            ShardError::Thread(m) => write!(f, "thread: {m}"),
            ShardError::Merge(m) => write!(f, "merge: {m}"),
            ShardError::Workload(m) => write!(f, "workload: {m}"),
        }
    }
}

impl std::error::Error for ShardError {}

/// How [`ShardEngine::run_with`] executes the workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunMode {
    /// Real `std::thread` workers fed over SPSC rings. Only a
    /// partitioned plan has work to spread; a global-lock plan runs
    /// inline on one evaluator, as in [`RunMode::Sequential`].
    Threaded,
    /// The same dispatch executed on one thread with per-shard
    /// busy-time accounting — the deterministic way to measure
    /// partitioned speedup on a host without enough free cores.
    Sequential,
    /// The one-shard reference run every sharded run must match.
    Single,
}

/// Batched-dispatch tuning for [`RunConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    /// Packets hashed and binned per dispatch round — and per ring
    /// push. Clamped up to 1 (1 reproduces per-packet dispatch).
    pub size: usize,
    /// Enable skew-aware rebalancing of new flows off overloaded
    /// shards (partitioned plans only; a no-op under the global lock).
    /// A divert opens when a shard's queue passes 3/4 of the ring (in
    /// bins) on threaded runs, or 3/4 of the batch size inline.
    pub rebalance: bool,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            size: 32,
            rebalance: false,
        }
    }
}

/// The run configuration for [`ShardEngine::run_with`].
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Execution mode: threaded, sequential, or single-shard.
    pub mode: RunMode,
    /// Deterministic fault plan injected into dispatch and eval;
    /// `None` runs fault-free.
    pub fault_plan: Option<FaultPlan>,
    /// Batch size and rebalancing knobs.
    pub batch: BatchConfig,
    /// Keep per-packet [`SeqOutput`]s (the differential oracles need
    /// them). `false` streams at constant memory, counting outcomes
    /// into [`ShardRun::forwarded`] instead.
    pub keep_outputs: bool,
}

impl RunConfig {
    fn with_mode(mode: RunMode) -> RunConfig {
        RunConfig {
            mode,
            fault_plan: None,
            batch: BatchConfig::default(),
            keep_outputs: true,
        }
    }

    /// A threaded run with default batching and no faults.
    pub fn threaded() -> RunConfig {
        RunConfig::with_mode(RunMode::Threaded)
    }

    /// A sequential run with default batching and no faults.
    pub fn sequential() -> RunConfig {
        RunConfig::with_mode(RunMode::Sequential)
    }

    /// The single-shard reference run.
    pub fn single() -> RunConfig {
        RunConfig::with_mode(RunMode::Single)
    }

    /// Inject a deterministic fault plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> RunConfig {
        self.fault_plan = Some(faults);
        self
    }

    /// Replace the batching knobs.
    pub fn with_batch(mut self, batch: BatchConfig) -> RunConfig {
        self.batch = batch;
        self
    }

    /// Toggle skew-aware rebalancing.
    pub fn with_rebalance(mut self, on: bool) -> RunConfig {
        self.batch.rebalance = on;
        self
    }
}

/// One view over a run's fault/supervision counters — the single home
/// the CLI's fault-summary block and `stats_json` read, so new
/// counters (rebalance migrations) have exactly one place to land.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultSummary {
    /// Packets quarantined at eval.
    pub quarantined: u64,
    /// Packets dropped at dispatch past the ring retry deadline.
    pub dropped: u64,
    /// Worker restarts performed by the supervisor.
    pub restarts: u64,
    /// Failed enqueue attempts (ring full) absorbed by dispatch
    /// backoff.
    pub retries: u64,
    /// New flows the skew-aware rebalancer migrated off overloaded
    /// shards.
    pub migrations: u64,
}

impl FaultSummary {
    /// Whether anything in the summary is nonzero (the CLI prints the
    /// block only then).
    pub fn any(&self) -> bool {
        self.quarantined > 0
            || self.dropped > 0
            || self.restarts > 0
            || self.retries > 0
            || self.migrations > 0
    }
}

/// Per-shard program state: an interpreter, a model plus its state
/// instance, or a compiled program plus its dense state arena (the
/// model and the program are immutable and shared across shards via
/// `Arc`).
#[derive(Debug, Clone)]
enum BackendState {
    Interp(Interp),
    Model {
        model: Arc<Model>,
        state: ModelState,
    },
    Compiled {
        prog: Arc<CompiledProgram>,
        state: CompiledState,
    },
}

impl BackendState {
    /// Process one packet, returning `(outputs, dropped)`.
    fn step(&mut self, pkt: &Packet) -> Result<(Vec<Packet>, bool), String> {
        let output = match self {
            BackendState::Interp(i) => {
                let r = i.process(pkt).map_err(|e| e.to_string())?;
                return Ok((r.outputs, r.dropped));
            }
            BackendState::Model { model, state } => state.step(model, pkt).map(|s| s.output),
            BackendState::Compiled { prog, state } => state.step(prog, pkt).map(|s| s.output),
        };
        output.map(forwarded).map_err(|e| e.to_string())
    }

    /// A by-name snapshot of all persistent state.
    fn snapshot(&self) -> BTreeMap<String, Value> {
        match self {
            BackendState::Interp(i) => i
                .globals
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
            BackendState::Model { state, .. } => state.snapshot(),
            BackendState::Compiled { prog, state } => state.snapshot(prog),
        }
    }

    /// The backend's display name (quarantine records, metrics).
    fn label(&self) -> &'static str {
        match self {
            BackendState::Interp(_) => "interp",
            BackendState::Model { .. } => "model",
            BackendState::Compiled { .. } => "compiled",
        }
    }

    /// Undo the most recent step's writes from the backend's own undo
    /// log — O(entries the packet touched), never a copy of the state —
    /// so a failed packet leaves no trace, however far into a fire it
    /// got.
    fn revert(&mut self) {
        match self {
            BackendState::Interp(i) => i.revert(),
            BackendState::Model { state, .. } => state.revert(),
            BackendState::Compiled { state, .. } => state.revert(),
        }
    }

    /// Supervisor restart: drop derived caches. Only the compiled
    /// backend carries any (the predicate memo); the interpreter and
    /// model evaluator *are* their persistent state, so a restart is a
    /// no-op for them beyond the supervisor's accounting.
    fn refresh(&mut self) {
        if let BackendState::Compiled { state, .. } = self {
            state.reset_memo();
        }
    }
}

/// `(outputs, dropped)` for a model-shaped step's optional output.
fn forwarded(output: Option<Packet>) -> (Vec<Packet>, bool) {
    let dropped = output.is_none();
    (output.into_iter().collect(), dropped)
}

/// One isolated eval: apply eval-side faults, step under
/// `catch_unwind`, and revert the step on any failure from inside it.
/// `Err` carries the quarantine reason, and the state is pre-packet
/// clean whenever it is returned — the same on every backend.
fn supervised_step(
    state: &mut BackendState,
    shard: usize,
    nth: u64,
    pkt: &Packet,
    faults: &FaultPlan,
) -> Result<(Vec<Packet>, bool), String> {
    let (mut inject_panic, mut inject_err, mut garbage) = (false, false, false);
    if !faults.is_empty() {
        for k in faults.at(shard, nth) {
            match k {
                FaultKind::Panic => inject_panic = true,
                FaultKind::EvalError => inject_err = true,
                FaultKind::Garbage => garbage = true,
                FaultKind::Delay(us) => std::thread::sleep(Duration::from_micros(us)),
                FaultKind::RingOverflow(_) => {} // dispatch-side, handled there
            }
        }
    }
    if garbage {
        // The dispatcher scrambled this packet in flight; reject it
        // before eval so no corrupted bytes reach the state.
        return Err("garbage packet detected before eval".into());
    }
    let stepped = quiet_catch_unwind(|| {
        if inject_panic {
            panic!("injected fault: panic on shard {shard} packet {nth}");
        }
        if inject_err {
            return Err(format!("injected fault: eval error on shard {shard} packet {nth}"));
        }
        state.step(pkt)
    });
    // An injected fault fires before the step begins, so there is
    // nothing to undo — and reverting would replay the previous
    // packet's log.
    if !matches!(stepped, Ok(Ok(_))) && !inject_panic && !inject_err {
        state.revert();
    }
    stepped.unwrap_or_else(|msg| Err(format!("panicked: {msg}")))
}

/// Dispatch-side faults at `(shard, nth)`: forced ring-full attempts
/// and whether to scramble the packet.
fn dispatch_faults(faults: &FaultPlan, shard: usize, nth: u64) -> (u64, bool) {
    if faults.is_empty() {
        // Fault-free runs stay off the per-packet lookup path.
        return (0, false);
    }
    let (mut forced, mut garbage) = (0u64, false);
    for k in faults.at(shard, nth) {
        match k {
            FaultKind::RingOverflow(a) => forced = forced.max(a),
            FaultKind::Garbage => garbage = true,
            _ => {}
        }
    }
    (forced, garbage)
}

/// The ring deadline in force for one dispatch: the policy's, or the
/// injected default when a ring-overflow fault is forcing fulls.
fn ring_deadline(policy: &SupervisorPolicy, forced: u64) -> Option<u32> {
    policy
        .ring_deadline
        .or(if forced > 0 { Some(INJECTED_RING_DEADLINE) } else { None })
}

/// Enqueue one bin with bounded retry: spin-then-yield backoff on a
/// full ring, dropping the whole bin once the policy deadline is
/// exhausted (forced ring-full faults are simulated per packet at bin
/// time, before binning). `Ok(true)` = delivered, `Ok(false)` =
/// dropped past the deadline, `Err(())` = the worker is gone (its join
/// reports why).
fn send_bin(
    tx: &Producer<Bin>,
    bin: Bin,
    policy: &SupervisorPolicy,
    retries: &mut u64,
    wait_ns: &mut u64,
) -> Result<bool, ()> {
    let mut bin = bin;
    let mut attempts = 0u64;
    let mut backoff = Backoff::new();
    // Time spent in the retry path is ring-full *waiting*, not
    // dispatch work; it is accounted separately so the dispatch-plane
    // cost (`dispatch_ns - dispatch_wait_ns`) stays meaningful even
    // when the workers are the bottleneck. The clock starts only on
    // the first full ring, so the delivered-first-try fast path never
    // touches it.
    let mut waited: Option<std::time::Instant> = None;
    let result = loop {
        match tx.try_send(bin) {
            Ok(()) => break Ok(true),
            Err((_, TrySendError::Disconnected)) => break Err(()),
            Err((b, TrySendError::Full)) => bin = b,
        }
        waited.get_or_insert_with(std::time::Instant::now);
        attempts += 1;
        *retries += 1;
        if let Some(d) = policy.ring_deadline {
            if attempts > u64::from(d) {
                break Ok(false);
            }
        }
        backoff.snooze();
    };
    if let Some(t0) = waited {
        *wait_ns += t0.elapsed().as_nanos() as u64;
    }
    result
}

/// Whether a shard's hot-key sketch proves a genuine heavy hitter: the
/// top entry's count lower bound (count − err) must clear the sketch's
/// tracking guarantee, so mere uniform load never opens a divert.
fn has_heavy_hitter(sketch: &TopK<Vec<u64>>) -> bool {
    sketch
        .entries()
        .first()
        .is_some_and(|e| e.count.saturating_sub(e.err) > sketch.guarantee())
}

/// Dispatcher-side skew rebalancer.
///
/// Soundness rests on one rule: **only flows the dispatcher has never
/// seen migrate**. Every flow hash gets a pinned shard the first time
/// it appears (usually its hash shard; the divert target while a
/// divert is open) and keeps it for the whole run, so each flow has
/// exactly one owner and per-flow partitioned state never splits. When
/// the seen-flow table hits its capacity, migration simply stops —
/// flows not in the table route by pure hash, which is the same stable
/// assignment they would have had anyway.
struct Rebalancer {
    enabled: bool,
    high_water: u64,
    /// flow hash → (pinned shard, epoch the pin was made in).
    table: HashMap<u64, (usize, u64)>,
    /// Open divert per shard: new flows hashing there go to the target.
    divert: Vec<Option<usize>>,
    epoch: u64,
    migrations: u64,
}

impl Rebalancer {
    fn new(enabled: bool, shards: usize, high_water: u64) -> Rebalancer {
        Rebalancer {
            enabled,
            high_water,
            table: HashMap::new(),
            divert: vec![None; shards],
            epoch: 0,
            migrations: 0,
        }
    }

    /// Route one packet: its hash shard, unless the flow is pinned
    /// elsewhere or is brand new while a divert is open on its shard.
    fn route(&mut self, hash: u64, hash_shard: usize) -> usize {
        if !self.enabled {
            return hash_shard;
        }
        if let Some(&(shard, _)) = self.table.get(&hash) {
            return shard;
        }
        if self.table.len() >= REBALANCE_TABLE_CAP {
            // Table full: this flow routes by hash forever — stable,
            // so still sound. Do not insert.
            return hash_shard;
        }
        let target = self.divert[hash_shard].unwrap_or(hash_shard);
        self.table.insert(hash, (target, self.epoch));
        if target != hash_shard {
            self.migrations += 1;
        }
        target
    }

    /// Batch-boundary control step: close diverts whose shard has
    /// drained to half the high-water mark, open one (to the
    /// least-loaded shard) where load is high *and* the sketch proves a
    /// heavy hitter.
    fn boundary(&mut self, loads: &[u64], sketches: &[TopK<Vec<u64>>]) {
        if !self.enabled {
            return;
        }
        for s in 0..self.divert.len() {
            if self.divert[s].is_some() {
                if loads[s] <= self.high_water / 2 {
                    self.divert[s] = None;
                }
            } else if loads[s] > self.high_water
                && sketches.get(s).is_some_and(has_heavy_hitter)
            {
                let target = (0..loads.len())
                    .filter(|&t| t != s)
                    .min_by_key(|&t| loads[t]);
                if let Some(t) = target {
                    self.epoch += 1;
                    self.divert[s] = Some(t);
                }
            }
        }
    }
}

/// Simulate the old per-packet retry loop for *forced* ring-full
/// faults at bin time, in every mode (bins mean the ring is pushed
/// once per batch, so a forced per-packet full can no longer collide
/// with a genuinely full ring). Returns whether the packet is
/// delivered to its bin.
fn simulate_dispatch(forced: u64, policy: &SupervisorPolicy, retries: &mut u64) -> bool {
    let deadline = ring_deadline(policy, forced);
    let mut attempts = 0u64;
    while attempts < forced {
        attempts += 1;
        *retries += 1;
        if let Some(d) = deadline {
            if attempts > u64::from(d) {
                return false;
            }
        }
    }
    true
}

/// The front end every run mode shares: routes each arrival (dispatch
/// hash plus rebalancer on a partitioned plan, round-robin over the
/// virtual shards under a global lock), keeps the per-shard ordinal
/// that fault plans address, applies dispatch-side faults, and records
/// the hot-key sketches, bin fill and dispatch-drop accounting.
struct Dispatcher<'a> {
    n: usize,
    batch: usize,
    /// `None` under a global-lock plan.
    key: Option<&'a DispatchKey>,
    faults: &'a FaultPlan,
    policy: SupervisorPolicy,
    rebalancer: Rebalancer,
    /// Packets routed to each shard so far (the next one's `nth`).
    steered: Vec<u64>,
    /// Per-shard load at the batch boundary: packets routed this round
    /// (inline), or bins queued on the ring (threaded).
    loads: Vec<u64>,
    retries: Vec<u64>,
    dropped_seqs: Vec<u64>,
    dropped_per_shard: Vec<u64>,
    sketches: Vec<TopK<Vec<u64>>>,
    fill: Vec<Histogram>,
    /// Ring-full backoff time within `dispatch_ns`.
    wait_ns: u64,
    /// Dispatcher wall clock minus inline eval time.
    dispatch_ns: u64,
}

impl Dispatcher<'_> {
    /// The shard an arrival goes to.
    fn route(&mut self, seq: u64, pkt: &Packet) -> usize {
        let Some(key) = self.key else {
            return (seq % self.n as u64) as usize;
        };
        let w = if self.n > 1 {
            let h = dispatch_hash(key, pkt);
            self.rebalancer.route(h, (h % self.n as u64) as usize)
        } else {
            0
        };
        if !self.sketches.is_empty() {
            self.sketches[w].offer(dispatch_values(key, pkt));
        }
        w
    }

    /// Flush shard `w`'s bin: record its fill, push it over the ring,
    /// and account a whole-bin drop past the policy deadline. `Err(())`
    /// means the worker is gone.
    fn flush(&mut self, w: usize, bin: &mut Bin, tx: &Producer<Bin>) -> Result<(), ()> {
        if bin.is_empty() {
            return Ok(());
        }
        if let Some(h) = self.fill.get_mut(w) {
            h.observe(bin.len() as u64);
        }
        let out = std::mem::replace(bin, Vec::with_capacity(self.batch));
        let seqs: Vec<u64> = out.iter().map(|(s, _, _)| *s).collect();
        if !send_bin(
            tx,
            out,
            &self.policy,
            &mut self.retries[w],
            &mut self.wait_ns,
        )? {
            self.dropped_per_shard[w] += seqs.len() as u64;
            self.dropped_seqs.extend(seqs);
        }
        Ok(())
    }
}

/// Where the dispatcher hands routed packets.
enum Transport<'a> {
    /// One SPSC ring per worker thread, fed whole bins: threaded runs
    /// of a partitioned plan.
    Rings {
        tx: Vec<Producer<Bin>>,
        bins: Vec<Bin>,
    },
    /// Evaluated on the dispatcher thread as they arrive: sequential
    /// and single runs, and every global-lock run, whose virtual shards
    /// all step one state (`states.len() == 1`) in arrival order.
    Inline {
        workers: &'a mut [ShardWorker],
        states: &'a mut [BackendState],
    },
}

/// The back end every run mode shares: one shard's supervised
/// per-packet step and everything it accounts — retained outputs,
/// packet and busy-time counters, the quarantine buffer, the
/// consecutive-failure streak, restarts and telemetry. The program
/// state it steps is passed in, so a global-lock plan's virtual shards
/// can share one [`BackendState`].
struct ShardWorker {
    shard: usize,
    faults: FaultPlan,
    policy: SupervisorPolicy,
    label: &'static str,
    keep_outputs: bool,
    outputs: Vec<SeqOutput>,
    pkts: u64,
    busy_ns: u64,
    forwarded: u64,
    quarantine: Quarantine,
    fail_streak: u32,
    restarts: u64,
    tel: Option<WorkerTelemetry>,
}

impl ShardWorker {
    /// Evaluate one packet on `state` under supervision and book the
    /// outcome; the whole step is timed on the tracer's clock.
    fn step(
        &mut self,
        state: &mut BackendState,
        tracer: &Tracer,
        seq: u64,
        nth: u64,
        pkt: &Packet,
    ) {
        let t0 = tracer.now();
        let stepped = match supervised_step(state, self.shard, nth, pkt, &self.faults) {
            Ok(out) => {
                self.fail_streak = 0;
                Some(out)
            }
            Err(error) => {
                self.quarantine.push(QuarantineRecord {
                    seq,
                    shard: self.shard,
                    backend: self.label,
                    error,
                    packet: pkt.clone(),
                });
                self.fail_streak += 1;
                if self.fail_streak >= self.policy.restart_after {
                    state.refresh();
                    self.restarts += 1;
                    self.fail_streak = 0;
                }
                None
            }
        };
        let step_ns = tracer.now().saturating_duration_since(t0).as_nanos() as u64;
        self.busy_ns += step_ns;
        if let Some(tel) = self.tel.as_mut() {
            let outcome = match &stepped {
                Some((_, false)) => FlightOutcome::Forwarded,
                Some((_, true)) => FlightOutcome::Dropped,
                None => FlightOutcome::Quarantined,
            };
            tel.record(seq, step_ns, outcome, pkt);
            tel.maybe_flush(tracer);
        }
        if let Some((outputs, dropped)) = stepped {
            self.pkts += 1;
            if !dropped {
                self.forwarded += 1;
            }
            if self.keep_outputs {
                self.outputs.push(SeqOutput {
                    seq,
                    shard: self.shard,
                    outputs,
                    dropped,
                });
            }
        }
    }
}

/// The observable result of processing one packet, tagged with its
/// global arrival sequence number.
#[derive(Debug, Clone, PartialEq)]
pub struct SeqOutput {
    /// Global arrival index of the input packet.
    pub seq: u64,
    /// The shard that processed it.
    pub shard: usize,
    /// Packets emitted by `send`, in order.
    pub outputs: Vec<Packet>,
    /// Whether the packet was dropped.
    pub dropped: bool,
}

/// The merged result of a sharded run.
#[derive(Debug, Clone)]
pub struct ShardRun {
    /// Per-packet results, sorted by arrival sequence.
    pub outputs: Vec<SeqOutput>,
    /// Merged state: per-flow maps unioned, log counters delta-summed,
    /// replicated state verified, keyed by variable name.
    pub merged: BTreeMap<String, Value>,
    /// Packets processed by each shard.
    pub per_shard_pkts: Vec<u64>,
    /// Busy (processing) nanoseconds per shard.
    pub busy_ns: Vec<u64>,
    /// Whether the plan partitioned state across shards. `false` for a
    /// global-lock plan, whose virtual shards stepped one shared state
    /// in arrival order.
    pub partitioned: bool,
    /// Retained quarantine records, bounded by the policy's cap.
    pub quarantined: Vec<QuarantineRecord>,
    /// Arrival seqs of *all* quarantined packets (exact, sorted).
    pub quarantined_seqs: Vec<u64>,
    /// Arrival seqs dropped at dispatch after the ring retry deadline.
    pub dropped_seqs: Vec<u64>,
    /// Worker restarts performed by the supervisor.
    pub restarts: u64,
    /// Failed enqueue attempts (ring full) absorbed by dispatch backoff.
    pub retries: u64,
    /// Packets forwarded (processed and not dropped by the NF) —
    /// counted even when per-packet outputs are not retained
    /// ([`RunConfig::keep_outputs`] = false).
    pub forwarded: u64,
    /// New flows the skew-aware rebalancer migrated off overloaded
    /// shards (0 when rebalancing is off).
    pub migrations: u64,
    /// Dispatcher wall-clock nanoseconds from the first source pull to
    /// the last packet handed on, minus the time spent evaluating
    /// packets inline on the dispatcher thread; measured the same way
    /// in every mode, on the tracer's clock.
    pub dispatch_ns: u64,
    /// The share of [`ShardRun::dispatch_ns`] spent in bounded backoff
    /// on full rings — worker-bound time, not dispatch work.
    /// `dispatch_ns - dispatch_wait_ns` is the active dispatch-plane
    /// cost: source pulls, hashing, binning, and ring pushes. This is
    /// the quantity batched dispatch amortizes (`--bench stream`).
    pub dispatch_wait_ns: u64,
    /// Telemetry-plane summary: per-shard latency/occupancy histograms,
    /// hot keys, and the flight recorder. `None` when telemetry is off
    /// (disabled config or disabled tracer).
    pub stats: Option<RunStats>,
}

impl ShardRun {
    /// Total packets processed.
    pub fn total_pkts(&self) -> u64 {
        self.per_shard_pkts.iter().sum()
    }

    /// The run's critical path: with partitioned shards the slowest
    /// shard bounds completion; under the global lock the work is
    /// serialised, so the critical path is the sum.
    pub fn makespan_ns(&self) -> u64 {
        if self.partitioned {
            self.busy_ns.iter().copied().max().unwrap_or(0)
        } else {
            self.busy_ns.iter().sum()
        }
    }

    /// The externally observable behaviour, shard assignment erased —
    /// what a differential oracle compares across shard counts.
    pub fn output_signature(&self) -> Vec<(u64, Vec<Packet>, bool)> {
        self.outputs
            .iter()
            .map(|o| (o.seq, o.outputs.clone(), o.dropped))
            .collect()
    }

    /// Packets offered to the run: processed + quarantined + dropped.
    /// Always equals the input length — the accounting invariant the
    /// robustness suite pins.
    pub fn offered(&self) -> u64 {
        self.total_pkts() + self.quarantined_seqs.len() as u64 + self.dropped_seqs.len() as u64
    }

    /// Sorted arrival seqs excluded from `outputs` (quarantined at eval
    /// or dropped at dispatch) — what a chaos oracle filters from the
    /// fault-free reference input before comparing.
    pub fn excluded_seqs(&self) -> Vec<u64> {
        let mut seqs: Vec<u64> = self
            .quarantined_seqs
            .iter()
            .chain(&self.dropped_seqs)
            .copied()
            .collect();
        seqs.sort_unstable();
        seqs
    }

    /// One view over the run's fault/supervision counters — what the
    /// CLI fault-summary block and [`stats_json`](Self::stats_json)
    /// both read.
    pub fn fault_summary(&self) -> FaultSummary {
        FaultSummary {
            quarantined: self.quarantined_seqs.len() as u64,
            dropped: self.dropped_seqs.len() as u64,
            restarts: self.restarts,
            retries: self.retries,
            migrations: self.migrations,
        }
    }

    /// The `--stats-json` document: run-level accounting plus the
    /// telemetry plane's per-shard detail. `None` when telemetry was
    /// off for the run.
    pub fn stats_json(&self) -> Option<nf_support::json::Value> {
        use nf_support::json::Value as J;
        let stats = self.stats.as_ref()?;
        let faults = self.fault_summary();
        let int = |v: u64| J::Int(i64::try_from(v).unwrap_or(i64::MAX));
        Some(J::Object(vec![
            ("packets".into(), int(self.total_pkts())),
            ("offered".into(), int(self.offered())),
            ("partitioned".into(), J::Bool(self.partitioned)),
            ("quarantined".into(), int(faults.quarantined)),
            ("dropped".into(), int(faults.dropped)),
            ("restarts".into(), int(faults.restarts)),
            ("retries".into(), int(faults.retries)),
            ("migrations".into(), int(faults.migrations)),
            ("makespan_ns".into(), int(self.makespan_ns())),
            ("telemetry".into(), stats.to_json(&self.per_shard_pkts, &self.busy_ns)),
        ]))
    }
}

/// A sharded runtime instance for one NF.
pub struct ShardEngine {
    name: String,
    shards: usize,
    plan: ShardPlan,
    report: ShardingReport,
    tracer: Tracer,
    proto: BackendState,
    policy: SupervisorPolicy,
    telemetry: TelemetryConfig,
}

impl ShardEngine {
    /// Build an engine from NFL source: lints the program for the
    /// placement plan, then instantiates the selected backend. Shard
    /// count and tracer come from the [`Pipeline`].
    pub fn from_source(
        pipeline: &Pipeline,
        src: &str,
        backend: Backend,
    ) -> Result<ShardEngine, ShardError> {
        match backend {
            Backend::Interp => {
                let lint = nfl_lint::lint_source(pipeline.name(), src)
                    .map_err(ShardError::Build)?;
                // The lint analyses the (possibly socket-unfolded)
                // program; run the same text so state names line up.
                let program =
                    nfl_lang::parse_and_check(&lint.source).map_err(ShardError::Build)?;
                let nf_loop =
                    nfl_analysis::normalize(&program).map_err(|e| ShardError::Build(e.to_string()))?;
                let interp =
                    Interp::new(&nf_loop).map_err(|e| ShardError::Build(e.to_string()))?;
                Ok(ShardEngine {
                    name: pipeline.name().to_string(),
                    shards: pipeline.shards(),
                    plan: ShardPlan::from_report(&lint.sharding),
                    report: lint.sharding,
                    tracer: pipeline.tracer().clone(),
                    proto: BackendState::Interp(interp),
                    policy: SupervisorPolicy::default(),
                    telemetry: TelemetryConfig::default(),
                })
            }
            Backend::Model | Backend::Compiled => {
                let syn = pipeline
                    .synthesize(src)
                    .map_err(|e| ShardError::Build(e.to_string()))?;
                ShardEngine::from_synthesis(pipeline, &syn, backend)
            }
        }
    }

    /// Build an engine from an existing [`Synthesis`] (avoids
    /// re-running the pipeline when the caller already has one) for any
    /// backend: the interpreter runs the synthesis's normalised
    /// program, the model backend its synthesized model, and the
    /// compiled backend the model lowered by `nf-compile` against the
    /// program's initial configuration and state.
    pub fn from_synthesis(
        pipeline: &Pipeline,
        syn: &Synthesis,
        backend: Backend,
    ) -> Result<ShardEngine, ShardError> {
        let lint = nfl_lint::lint_program(&syn.name, &syn.nf_loop.program)
            .map_err(ShardError::Build)?;
        let interp =
            Interp::new(&syn.nf_loop).map_err(|e| ShardError::Build(e.to_string()))?;
        let tracer = pipeline.tracer().clone();
        let proto = match backend {
            Backend::Interp => BackendState::Interp(interp),
            Backend::Model => BackendState::Model {
                model: Arc::new(syn.model.clone()),
                state: nfactor_core::accuracy::initial_model_state(syn, &interp),
            },
            Backend::Compiled => {
                let init = nfactor_core::accuracy::initial_model_state(syn, &interp);
                let t0 = Instant::now();
                let prog = nf_compile::compile(&syn.model, &init)
                    .map_err(|e| ShardError::Build(e.to_string()))?;
                tracer.observe_ns("compile.ns", t0.elapsed().as_nanos() as u64);
                tracer.count("compiled.nodes", prog.node_count() as u64);
                tracer.count("compiled.table.entries", prog.entry_count() as u64);
                BackendState::Compiled {
                    state: CompiledState::new(&prog),
                    prog: Arc::new(prog),
                }
            }
        };
        Ok(ShardEngine {
            name: syn.name.clone(),
            shards: pipeline.shards(),
            plan: ShardPlan::from_report(&lint.sharding),
            report: lint.sharding,
            tracer,
            proto,
            policy: SupervisorPolicy::default(),
            telemetry: TelemetryConfig::default(),
        })
    }

    /// The NF name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of shards this engine fans out to.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The placement plan in force.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// The lint report the plan was derived from.
    pub fn report(&self) -> &ShardingReport {
        &self.report
    }

    /// The supervision policy in force.
    pub fn policy(&self) -> SupervisorPolicy {
        self.policy
    }

    /// Replace the supervision policy (restart threshold, quarantine
    /// cap, ring retry deadline).
    pub fn set_policy(&mut self, policy: SupervisorPolicy) {
        self.policy = policy;
    }

    /// The telemetry configuration in force.
    pub fn telemetry(&self) -> TelemetryConfig {
        self.telemetry
    }

    /// Replace the telemetry configuration (hot-key sketch capacity,
    /// flight-recorder depth, flush cadence, master switch).
    pub fn set_telemetry(&mut self, telemetry: TelemetryConfig) {
        self.telemetry = telemetry;
    }

    /// Whether runs collect telemetry: the config switch is on *and*
    /// the tracer records (a disabled tracer has no sink to flush to).
    fn telemetry_on(&self) -> bool {
        self.telemetry.enabled && self.tracer.is_enabled()
    }

    /// The one entry point: pull packets from `source` in
    /// [`BatchConfig::size`] batches and execute them per `cfg` —
    /// threaded, sequential, or the single-shard reference; fault-free
    /// or under a deterministic [`FaultPlan`]; with or without
    /// per-packet output retention and skew-aware rebalancing.
    ///
    /// Every mode runs the same dispatcher and the same per-packet
    /// worker step. Only a threaded run of a partitioned plan moves
    /// packets over rings to worker threads; everything else — and
    /// every global-lock plan, whose state is shared — is evaluated
    /// inline on the calling thread, in arrival order.
    pub fn run_with<S>(&self, source: S, cfg: &RunConfig) -> Result<ShardRun, ShardError>
    where
        S: WorkloadSource<Item = Packet>,
    {
        let mut source = source;
        let faults = cfg.fault_plan.clone().unwrap_or_default();
        let n = if cfg.mode == RunMode::Single {
            1
        } else {
            self.shards
        };
        let key = self.plan.dispatch();
        let batch = cfg.batch.size.max(1);
        let threaded = cfg.mode == RunMode::Threaded && key.is_some();
        let ring_bins = (RING_CAP / batch).max(2);
        // The divert high-water mark is in the transport's load unit:
        // bins queued on a ring, or packets routed in one round.
        let unit = if threaded { ring_bins } else { batch };
        let high_water = (unit as u64 * 3 / 4).max(1);
        let telemetry_on = self.telemetry_on();
        let rebalancer =
            Rebalancer::new(cfg.batch.rebalance && key.is_some() && n > 1, n, high_water);
        // The dispatcher-side hot-key sketches serve both the telemetry
        // plane and the rebalancer's divert decision; a global-lock
        // plan has no dispatch key, so its profile is empty.
        let sketches = if key.is_some() && (telemetry_on || rebalancer.enabled) {
            (0..n)
                .map(|_| TopK::new(self.telemetry.hotkeys_k))
                .collect()
        } else {
            Vec::new()
        };
        let fill = if telemetry_on {
            (0..n).map(|_| Histogram::new(&BATCH_FILL_BOUNDS)).collect()
        } else {
            Vec::new()
        };
        let mut d = Dispatcher {
            n,
            batch,
            key,
            faults: &faults,
            policy: self.policy,
            rebalancer,
            steered: vec![0; n],
            loads: vec![0; n],
            retries: vec![0; n],
            dropped_seqs: Vec::new(),
            dropped_per_shard: vec![0; n],
            sketches,
            fill,
            wait_ns: 0,
            dispatch_ns: 0,
        };
        let mut workers: Vec<ShardWorker> = (0..n)
            .map(|w| self.shard_worker(w, &faults, cfg.keep_outputs, telemetry_on))
            .collect();
        let (snapshots, source_err) = if threaded {
            self.run_rings(&mut source, &mut d, &mut workers, ring_bins)?
        } else {
            // A global-lock plan's virtual shards share one state.
            let mut states = vec![self.proto.clone(); if key.is_some() { n } else { 1 }];
            let source_err = self.dispatch(
                &mut source,
                &mut d,
                &mut Transport::Inline {
                    workers: &mut workers,
                    states: &mut states,
                },
            );
            (
                states.iter().map(BackendState::snapshot).collect(),
                source_err,
            )
        };
        if let Some(e) = source_err {
            return Err(ShardError::Workload(e));
        }
        self.assemble(workers, &snapshots, d)
    }

    /// A fresh supervised worker for shard `shard`.
    fn shard_worker(
        &self,
        shard: usize,
        faults: &FaultPlan,
        keep_outputs: bool,
        telemetry_on: bool,
    ) -> ShardWorker {
        let label = self.proto.label();
        ShardWorker {
            shard,
            faults: faults.clone(),
            policy: self.policy,
            label,
            keep_outputs,
            outputs: Vec::new(),
            pkts: 0,
            busy_ns: 0,
            forwarded: 0,
            quarantine: Quarantine::new(self.policy.quarantine_cap),
            fail_streak: 0,
            restarts: 0,
            tel: telemetry_on.then(|| WorkerTelemetry::new(shard, label, &self.telemetry)),
        }
    }

    /// The ring transport: one worker thread per shard, each owning
    /// its state and draining whole bins, while this thread
    /// dispatches. Returns the per-shard state snapshots (taken on the
    /// workers) and the source's mid-stream error, if any.
    fn run_rings(
        &self,
        source: &mut dyn WorkloadSource<Item = Packet>,
        d: &mut Dispatcher<'_>,
        workers: &mut Vec<ShardWorker>,
        ring_bins: usize,
    ) -> Result<(Vec<Snapshot>, Option<String>), ShardError> {
        std::thread::scope(|scope| {
            let mut tx = Vec::with_capacity(d.n);
            let mut handles = Vec::with_capacity(d.n);
            for mut worker in workers.drain(..) {
                let (producer, rx) = nf_support::spsc::ring::<Bin>(ring_bins);
                tx.push(producer);
                let w = worker.shard;
                let mut state = self.proto.clone();
                let tracer = self.tracer.clone();
                let handle = std::thread::Builder::new()
                    .name(format!("nf-shard-{w}"))
                    .spawn_scoped(scope, move || {
                        let wait_name = format!("shard.{w}.ring.wait.ns");
                        loop {
                            let wait = tracer.now();
                            let Some(bin) = rx.recv() else { break };
                            tracer.observe_ns(
                                &wait_name,
                                tracer.now().saturating_duration_since(wait).as_nanos() as u64,
                            );
                            if let Some(tel) = worker.tel.as_mut() {
                                // Bins still queued after this dequeue —
                                // the backlog signal.
                                tel.occupancy(rx.len() as u64);
                            }
                            for (seq, nth, pkt) in bin {
                                worker.step(&mut state, &tracer, seq, nth, &pkt);
                            }
                        }
                        let snapshot = state.snapshot();
                        (worker, snapshot)
                    })
                    .map_err(|e| ShardError::Thread(e.to_string()))?;
                handles.push(handle);
            }
            let bins = (0..d.n).map(|_| Vec::with_capacity(d.batch)).collect();
            let mut transport = Transport::Rings { tx, bins };
            let source_err = self.dispatch(source, d, &mut transport);
            // Closing the rings lets the workers drain and exit.
            drop(transport);
            let mut snapshots = Vec::with_capacity(d.n);
            for (i, handle) in handles.into_iter().enumerate() {
                match handle.join() {
                    Ok((worker, snapshot)) => {
                        workers.push(worker);
                        snapshots.push(snapshot);
                    }
                    Err(payload) => {
                        return Err(ShardError::Thread(format!(
                            "shard {i} panicked: {}",
                            panic_message(payload.as_ref())
                        )))
                    }
                }
            }
            Ok((snapshots, source_err))
        })
    }

    /// The one dispatch loop: pull a batch, assign arrival seqs, route
    /// each packet, apply dispatch-side faults, and hand it to the
    /// transport. Returns the source's mid-stream error, if any.
    fn dispatch(
        &self,
        source: &mut dyn WorkloadSource<Item = Packet>,
        d: &mut Dispatcher<'_>,
        transport: &mut Transport<'_>,
    ) -> Option<String> {
        let mut batch_buf: Vec<Packet> = Vec::with_capacity(d.batch);
        let mut seq = 0u64;
        let mut source_err = None;
        let dispatch_span = self.tracer.span("shard.dispatch");
        let d0 = self.tracer.now();
        'dispatch: loop {
            batch_buf.clear();
            match source.next_batch(&mut batch_buf, d.batch) {
                Ok(0) => break,
                Ok(_) => {}
                Err(e) => {
                    source_err = Some(e.to_string());
                    break;
                }
            }
            d.loads.fill(0);
            for mut pkt in batch_buf.drain(..) {
                let i = seq;
                seq += 1;
                let w = d.route(i, &pkt);
                d.loads[w] += 1;
                let nth = d.steered[w];
                d.steered[w] += 1;
                let (forced, garbage) = dispatch_faults(d.faults, w, nth);
                if !simulate_dispatch(forced, &d.policy, &mut d.retries[w]) {
                    d.dropped_seqs.push(i);
                    d.dropped_per_shard[w] += 1;
                    continue;
                }
                if garbage {
                    scramble_packet(&mut pkt, i);
                }
                match transport {
                    Transport::Rings { tx, bins } => {
                        bins[w].push((i, nth, pkt));
                        if bins[w].len() >= d.batch && d.flush(w, &mut bins[w], &tx[w]).is_err() {
                            // The worker exited early; its join
                            // reports why.
                            break 'dispatch;
                        }
                    }
                    Transport::Inline { workers, states } => {
                        let state = if states.len() == 1 {
                            &mut states[0]
                        } else {
                            &mut states[w]
                        };
                        workers[w].step(state, &self.tracer, i, nth, &pkt);
                    }
                }
            }
            // Batch boundary: the rebalancer watches queued bins per
            // ring, or this round's per-shard fill inline.
            match transport {
                Transport::Rings { tx, .. } => {
                    if d.rebalancer.enabled {
                        for (l, tx) in d.loads.iter_mut().zip(tx.iter()) {
                            *l = tx.len() as u64;
                        }
                    }
                }
                Transport::Inline { .. } => {
                    for (h, &c) in d.fill.iter_mut().zip(&d.loads) {
                        if c > 0 {
                            h.observe(c);
                        }
                    }
                }
            }
            d.rebalancer.boundary(&d.loads, &d.sketches);
        }
        let inline_ns: u64 = match transport {
            Transport::Rings { tx, bins } => {
                for (w, (tx, bin)) in tx.iter().zip(bins.iter_mut()).enumerate() {
                    if d.flush(w, bin, tx).is_err() {
                        break;
                    }
                }
                0
            }
            Transport::Inline { workers, .. } => workers.iter().map(|w| w.busy_ns).sum(),
        };
        let wall_ns = self.tracer.now().saturating_duration_since(d0).as_nanos() as u64;
        d.dispatch_ns = wall_ns.saturating_sub(inline_ns);
        dispatch_span.end();
        for (w, h) in d.fill.iter().enumerate() {
            if h.count > 0 {
                self.tracer
                    .merge_histogram(&format!("shard.{w}.batch.fill"), h);
            }
        }
        source_err
    }

    /// Sort outputs, merge the state snapshots (one per shard, or the
    /// global-lock plan's single one), fold the workers' fault
    /// accounting into the run, and assemble the telemetry plane's
    /// [`RunStats`] (hot-key sketches come from the dispatcher).
    fn assemble(
        &self,
        mut workers: Vec<ShardWorker>,
        snapshots: &[Snapshot],
        mut d: Dispatcher<'_>,
    ) -> Result<ShardRun, ShardError> {
        let mut outputs: Vec<SeqOutput> = workers
            .iter_mut()
            .flat_map(|w| std::mem::take(&mut w.outputs))
            .collect();
        outputs.sort_by_key(|o| o.seq);
        let initial = self.proto.snapshot();
        let merge_span = self.tracer.span("shard.merge");
        let m0 = self.tracer.now();
        let snapshots: Vec<&Snapshot> = snapshots.iter().collect();
        let merged = merge_states(&self.report, &initial, &snapshots)?;
        let merge_ns = self.tracer.now().saturating_duration_since(m0).as_nanos() as u64;
        merge_span.end();
        for w in &workers {
            self.tracer
                .count(&format!("shard.{}.pkts", w.shard), w.pkts);
        }
        let shard_stats: Vec<ShardStats> = workers
            .iter_mut()
            .filter_map(|w| w.tel.take().map(|t| t.finish(&self.tracer)))
            .collect();
        let (quarantined, quarantined_seqs, restarts) =
            self.fold_faults(&mut workers, &d.retries, &d.dropped_per_shard);
        d.dropped_seqs.sort_unstable();
        let migrations = d.rebalancer.migrations;
        if migrations > 0 {
            self.tracer.count("shard.rebalance.migrations", migrations);
        }
        let stats = (!shard_stats.is_empty()).then(|| {
            RunStats::assemble(
                shard_stats,
                d.sketches,
                d.key,
                d.dispatch_ns,
                merge_ns,
                &self.tracer,
            )
        });
        Ok(ShardRun {
            outputs,
            merged,
            per_shard_pkts: workers.iter().map(|w| w.pkts).collect(),
            busy_ns: workers.iter().map(|w| w.busy_ns).collect(),
            partitioned: d.key.is_some(),
            quarantined,
            quarantined_seqs,
            dropped_seqs: d.dropped_seqs,
            restarts,
            retries: d.retries.iter().sum(),
            forwarded: workers.iter().map(|w| w.forwarded).sum(),
            migrations,
            dispatch_ns: d.dispatch_ns,
            dispatch_wait_ns: d.wait_ns,
            stats,
        })
    }

    /// Drain the workers' quarantine/restart accounting, emitting
    /// nonzero per-shard supervision metrics along the way. Returns
    /// (records sorted by seq and capped, sorted seqs, restarts).
    fn fold_faults(
        &self,
        workers: &mut [ShardWorker],
        retries: &[u64],
        dropped_per_shard: &[u64],
    ) -> (Vec<QuarantineRecord>, Vec<u64>, u64) {
        let mut records = Vec::new();
        let mut seqs = Vec::new();
        let mut restarts = 0u64;
        for (w, worker) in workers.iter_mut().enumerate() {
            let (mut r, mut q) = std::mem::take(&mut worker.quarantine).into_parts();
            if !q.is_empty() {
                self.tracer
                    .count(&format!("shard.{w}.quarantined"), q.len() as u64);
            }
            if worker.restarts > 0 {
                self.tracer
                    .count(&format!("shard.{w}.restarts"), worker.restarts);
            }
            records.append(&mut r);
            seqs.append(&mut q);
            restarts += worker.restarts;
        }
        for (w, r) in retries.iter().enumerate() {
            if *r > 0 {
                self.tracer.count(&format!("shard.{w}.retries"), *r);
            }
        }
        for (w, d) in dropped_per_shard.iter().enumerate() {
            if *d > 0 {
                self.tracer.count(&format!("shard.{w}.dropped"), *d);
            }
        }
        records.sort_by_key(|r| r.seq);
        records.truncate(self.policy.quarantine_cap);
        seqs.sort_unstable();
        (records, seqs, restarts)
    }
}

/// Merge per-shard state snapshots into one view, per the report's
/// verdicts.
fn merge_states(
    report: &ShardingReport,
    initial: &BTreeMap<String, Value>,
    shards: &[&BTreeMap<String, Value>],
) -> Result<BTreeMap<String, Value>, ShardError> {
    let mut merged = BTreeMap::new();
    for (name, init) in initial {
        let verdict = report.get(name).map(|s| s.verdict());
        let values: Vec<&Value> = shards.iter().filter_map(|s| s.get(name)).collect();
        let Some(first) = values.first() else {
            merged.insert(name.clone(), init.clone());
            continue;
        };
        let out = match verdict {
            Some(StateShard::PerFlow) => merge_partitioned_map(name, init, &values)?,
            Some(StateShard::LogOnly) => merge_log(name, init, &values)?,
            Some(StateShard::Shared) => (*first).clone(),
            // Read-only state and configs/consts (no verdict) must be
            // identical everywhere — drift means a placement bug.
            Some(StateShard::ReadOnly) | None => {
                if let Some(bad) = values.iter().find(|v| **v != *first) {
                    return Err(ShardError::Merge(format!(
                        "replicated `{name}` diverged across shards: {first:?} vs {bad:?}"
                    )));
                }
                (*first).clone()
            }
        };
        merged.insert(name.clone(), out);
    }
    Ok(merged)
}

/// Union a partitioned map's per-shard copies. Entries that changed
/// from their initial value must come from exactly one shard.
fn merge_partitioned_map(
    name: &str,
    init: &Value,
    values: &[&Value],
) -> Result<Value, ShardError> {
    let Value::Map(init_map) = init else {
        // A per-flow verdict on a non-map is unexpected; keep the first
        // copy rather than invent semantics.
        return Ok((*values[0]).clone());
    };
    let mut union = init_map.clone();
    for v in values {
        let Value::Map(m) = v else {
            return Err(ShardError::Merge(format!(
                "partitioned `{name}` is not a map on some shard"
            )));
        };
        for (k, val) in m {
            if init_map.get(k) == Some(val) {
                continue; // unchanged initial entry, owned by no one
            }
            match union.get(k) {
                Some(existing) if existing != val && init_map.get(k) != Some(existing) => {
                    return Err(ShardError::Merge(format!(
                        "partitioned `{name}` key {k:?} written by multiple shards"
                    )));
                }
                _ => {
                    union.insert(k.clone(), val.clone());
                }
            }
        }
    }
    // Entries deleted (map_remove) on their owning shard must not
    // survive via another shard's untouched initial copy.
    let mut removed: Vec<ValueKey> = Vec::new();
    for k in init_map.keys() {
        if values.iter().any(|v| match v {
            Value::Map(m) => !m.contains_key(k),
            _ => false,
        }) {
            removed.push(k.clone());
        }
    }
    for k in removed {
        union.remove(&k);
    }
    Ok(Value::Map(union))
}

/// Merge log-only state by summing per-shard deltas over the initial
/// value (integers; integer-valued map entries likewise).
fn merge_log(name: &str, init: &Value, values: &[&Value]) -> Result<Value, ShardError> {
    match init {
        Value::Int(base) => {
            let mut total = *base;
            for v in values {
                let Value::Int(x) = v else {
                    return Err(ShardError::Merge(format!(
                        "log-only `{name}` is not an integer on some shard"
                    )));
                };
                total += x - base;
            }
            Ok(Value::Int(total))
        }
        Value::Map(init_map) => {
            let mut out = init_map.clone();
            for v in values {
                let Value::Map(m) = v else {
                    return Err(ShardError::Merge(format!(
                        "log-only `{name}` is not a map on some shard"
                    )));
                };
                for (k, val) in m {
                    let base = init_map.get(k).and_then(|b| b.as_int()).unwrap_or(0);
                    let Some(x) = val.as_int() else {
                        return Err(ShardError::Merge(format!(
                            "log-only `{name}` entry {k:?} is not an integer"
                        )));
                    };
                    let cur = out.get(k).and_then(|c| c.as_int()).unwrap_or(base);
                    out.insert(k.clone(), Value::Int(cur + (x - base)));
                }
            }
            Ok(Value::Map(out))
        }
        other => {
            // Non-numeric log state: all shards must agree or the merge
            // has no meaning.
            if let Some(bad) = values.iter().find(|v| **v != other) {
                return Err(ShardError::Merge(format!(
                    "log-only `{name}` has non-mergeable type and diverged: {bad:?}"
                )));
            }
            Ok(other.clone())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nf_packet::{PacketGen, TcpFlags};
    use nf_support::workload::SliceSource;

    fn engine_for(src: &str, shards: usize) -> ShardEngine {
        ShardEngine::from_source(&pipeline("rl", shards), src, Backend::Interp).unwrap()
    }

    fn pipeline(name: &str, shards: usize) -> Pipeline {
        match Pipeline::builder().name(name).shards(shards).build() {
            Ok(p) => p,
            Err(e) => unreachable!("builder: {e}"),
        }
    }

    const RATELIMITER_ISH: &str = r#"
        config MAX = 3;
        state buckets = map();
        state passed = 0;
        fn cb(pkt: packet) {
            let src = pkt.ip.src;
            if src not in buckets { buckets[src] = MAX; }
            if buckets[src] > 0 {
                buckets[src] = buckets[src] - 1;
                passed = passed + 1;
                send(pkt);
            } else {
                drop(pkt);
            }
        }
        fn main() { sniff(cb); }
    "#;

    #[test]
    fn threaded_matches_single_on_per_flow_nf() {
        let engine =
            ShardEngine::from_source(&pipeline("rl", 4), RATELIMITER_ISH, Backend::Interp)
                .unwrap();
        assert!(engine.plan().partitioned());
        let packets = PacketGen::new(42).batch(300);
        let sharded = engine.run_with(SliceSource::new(&packets), &RunConfig::threaded()).unwrap();
        let single = engine.run_with(SliceSource::new(&packets), &RunConfig::single()).unwrap();
        assert_eq!(sharded.output_signature(), single.output_signature());
        assert_eq!(sharded.merged, single.merged);
        assert_eq!(sharded.total_pkts(), 300);
        assert_eq!(sharded.per_shard_pkts.len(), 4);
    }

    #[test]
    fn sequential_matches_threaded() {
        let engine =
            ShardEngine::from_source(&pipeline("rl", 4), RATELIMITER_ISH, Backend::Interp)
                .unwrap();
        let packets = PacketGen::new(7).batch(200);
        let seq = engine.run_with(SliceSource::new(&packets), &RunConfig::sequential()).unwrap();
        let thr = engine.run_with(SliceSource::new(&packets), &RunConfig::threaded()).unwrap();
        assert_eq!(seq.output_signature(), thr.output_signature());
        assert_eq!(seq.merged, thr.merged);
        assert!(seq.partitioned);
    }

    #[test]
    fn global_lock_matches_single_on_shared_nf() {
        let engine =
            ShardEngine::from_source(&pipeline("alloc", 4), ALLOC, Backend::Interp).unwrap();
        assert!(!engine.plan().partitioned());
        let packets = PacketGen::new(3).batch(250);
        let sharded = engine.run_with(SliceSource::new(&packets), &RunConfig::threaded()).unwrap();
        let single = engine.run_with(SliceSource::new(&packets), &RunConfig::single()).unwrap();
        assert_eq!(sharded.output_signature(), single.output_signature());
        assert_eq!(sharded.merged, single.merged);
        assert!(!sharded.partitioned);
    }

    #[test]
    fn log_counters_delta_sum_across_shards() {
        let engine =
            ShardEngine::from_source(&pipeline("rl", 4), RATELIMITER_ISH, Backend::Interp)
                .unwrap();
        let packets = PacketGen::new(9).batch(120);
        let sharded = engine.run_with(SliceSource::new(&packets), &RunConfig::threaded()).unwrap();
        let single = engine.run_with(SliceSource::new(&packets), &RunConfig::single()).unwrap();
        // `passed` is log-only: per-shard copies must sum to the
        // single-threaded count.
        assert_eq!(sharded.merged.get("passed"), single.merged.get("passed"));
        let sent = sharded.outputs.iter().filter(|o| !o.dropped).count() as i64;
        assert_eq!(sharded.merged.get("passed"), Some(&Value::Int(sent)));
    }

    #[test]
    fn map_remove_does_not_resurrect_across_shards() {
        // Every packet toggles its flow's entry: insert on first sight,
        // remove on second. With entries created and removed on the
        // owning shard, the merged map must equal the single-threaded
        // result (no resurrection from other shards' initial copies).
        let src = r#"
            state m = map();
            fn cb(pkt: packet) {
                let k = pkt.ip.src;
                if k in m { map_remove(m, k); drop(pkt); } else { m[k] = 1; send(pkt); }
            }
            fn main() { sniff(cb); }
        "#;
        let engine = ShardEngine::from_source(&pipeline("toggle", 4), src, Backend::Interp).unwrap();
        let packets = PacketGen::new(5).batch(300);
        let sharded = engine.run_with(SliceSource::new(&packets), &RunConfig::threaded()).unwrap();
        let single = engine.run_with(SliceSource::new(&packets), &RunConfig::single()).unwrap();
        assert_eq!(sharded.merged, single.merged);
        assert_eq!(sharded.output_signature(), single.output_signature());
    }

    #[test]
    fn tracer_records_per_shard_metrics() {
        let tracer = Tracer::enabled();
        let p = match Pipeline::builder()
            .name("rl")
            .shards(2)
            .tracer(tracer.clone())
            .build()
        {
            Ok(p) => p,
            Err(e) => unreachable!("builder: {e}"),
        };
        let engine = ShardEngine::from_source(&p, RATELIMITER_ISH, Backend::Interp).unwrap();
        let packets = PacketGen::new(1).batch(50);
        engine.run_with(SliceSource::new(&packets), &RunConfig::threaded()).unwrap();
        let metrics = tracer.metrics();
        let total: u64 = (0..2)
            .filter_map(|w| metrics.counter(&format!("shard.{w}.pkts")))
            .sum();
        assert_eq!(total, 50);
    }

    /// The chaos oracle: everything the faulted run did not exclude
    /// (quarantine or dispatch drop) must match, positionally, a
    /// fault-free reference run over the surviving packets — outputs
    /// and merged state alike.
    fn assert_matches_reference(engine: &ShardEngine, packets: &[Packet], run: &ShardRun) {
        let excluded = run.excluded_seqs();
        let kept: Vec<Packet> = packets
            .iter()
            .enumerate()
            .filter(|(i, _)| excluded.binary_search(&(*i as u64)).is_err())
            .map(|(_, p)| p.clone())
            .collect();
        let reference = engine.run_with(SliceSource::new(&kept), &RunConfig::single()).unwrap();
        assert_eq!(run.outputs.len(), reference.outputs.len());
        for (got, want) in run.outputs.iter().zip(&reference.outputs) {
            assert_eq!(got.outputs, want.outputs);
            assert_eq!(got.dropped, want.dropped);
        }
        assert_eq!(run.merged, reference.merged);
    }

    #[test]
    fn injected_panic_is_quarantined_not_fatal() {
        // Before supervision this run died with `ShardError::Thread`;
        // now the packet is quarantined and everything else proceeds.
        let engine =
            ShardEngine::from_source(&pipeline("rl", 4), RATELIMITER_ISH, Backend::Interp)
                .unwrap();
        let packets = PacketGen::new(42).batch(300);
        let faults = FaultPlan::parse("panic@1:3").unwrap();
        let run = engine.run_with(SliceSource::new(&packets), &RunConfig::threaded().with_faults(faults.clone())).unwrap();
        assert_eq!(run.quarantined_seqs.len(), 1);
        assert_eq!(run.quarantined.len(), 1);
        assert_eq!(run.quarantined[0].shard, 1);
        assert!(run.quarantined[0].error.contains("injected fault: panic"));
        assert_eq!(run.offered(), 300);
        assert_matches_reference(&engine, &packets, &run);
    }

    #[test]
    fn organic_mid_fire_error_rolls_back_partial_writes() {
        // `total` is bumped before the missing-key read faults; without
        // the revert the counter would leak one per bad packet.
        let src = r#"
            state total = 0;
            state m = map();
            fn cb(pkt: packet) {
                total = total + 1;
                if m[pkt.ip.src] > 0 { send(pkt); } else { drop(pkt); }
            }
            fn main() { sniff(cb); }
        "#;
        let engine =
            ShardEngine::from_source(&pipeline("leak", 1), src, Backend::Interp).unwrap();
        let packets = PacketGen::new(8).batch(10);
        let run = engine.run_with(SliceSource::new(&packets), &RunConfig::single()).unwrap();
        assert_eq!(run.total_pkts(), 0);
        assert_eq!(run.quarantined_seqs.len(), 10);
        assert_eq!(run.offered(), 10);
        assert_eq!(run.merged.get("total"), Some(&Value::Int(0)));
        // Every third consecutive failure trips a supervised restart.
        assert_eq!(run.restarts, 3);
    }

    #[test]
    fn consecutive_injected_errors_trip_a_restart() {
        let engine =
            ShardEngine::from_source(&pipeline("rl", 2), RATELIMITER_ISH, Backend::Interp)
                .unwrap();
        let packets = PacketGen::new(7).batch(200);
        let faults = FaultPlan::parse("err@0:0,err@0:1,err@0:2").unwrap();
        let run = engine.run_with(SliceSource::new(&packets), &RunConfig::threaded().with_faults(faults.clone())).unwrap();
        assert_eq!(run.quarantined_seqs.len(), 3);
        assert_eq!(run.restarts, 1);
        assert_matches_reference(&engine, &packets, &run);
    }

    #[test]
    fn compiled_error_is_quarantined_like_every_backend() {
        let engine =
            ShardEngine::from_source(&pipeline("rl", 2), RATELIMITER_ISH, Backend::Compiled)
                .unwrap();
        let packets = PacketGen::new(11).batch(120);
        let faults = FaultPlan::parse("err@0:2,err@1:5").unwrap();
        let run = engine.run_with(SliceSource::new(&packets), &RunConfig::threaded().with_faults(faults.clone())).unwrap();
        // Each injected compiled-engine error is quarantined, exactly as
        // on interp and model, and the survivors match a fault-free run.
        assert_eq!(run.quarantined_seqs.len(), 2);
        assert_eq!(run.quarantined.len(), 2);
        assert!(run.quarantined.iter().all(|r| r.backend == "compiled"));
        assert_eq!(run.offered(), 120);
        assert_matches_reference(&engine, &packets, &run);
    }

    /// A shared-state NF: every new source takes the next id, so the
    /// plan falls back to the global lock.
    const ALLOC: &str = r#"
        state next = 0;
        state m = map();
        fn cb(pkt: packet) {
            if pkt.ip.src in m { send(pkt); } else {
                m[pkt.ip.src] = next;
                next = next + 1;
                drop(pkt);
            }
        }
        fn main() { sniff(cb); }
    "#;

    #[test]
    fn global_lock_quarantine_does_not_stall_later_packets() {
        // A quarantined packet under the global lock is skipped; every
        // later packet still runs, in arrival order.
        let engine =
            ShardEngine::from_source(&pipeline("alloc", 4), ALLOC, Backend::Interp).unwrap();
        assert!(!engine.plan().partitioned());
        let packets = PacketGen::new(3).batch(100);
        // Round-robin: shard 1's packet 0 is seq 1, shard 2's packet 5
        // is seq 2 + 4*5 = 22.
        let faults = FaultPlan::parse("panic@1:0,err@2:5").unwrap();
        let run = engine.run_with(SliceSource::new(&packets), &RunConfig::threaded().with_faults(faults.clone())).unwrap();
        assert_eq!(run.quarantined_seqs, vec![1, 22]);
        assert_matches_reference(&engine, &packets, &run);
        let seq = engine.run_with(SliceSource::new(&packets), &RunConfig::sequential().with_faults(faults.clone())).unwrap();
        assert_eq!(run.output_signature(), seq.output_signature());
        assert_eq!(run.merged, seq.merged);
    }

    #[test]
    fn global_lock_restarts_count_per_virtual_shard_in_every_mode() {
        // Three consecutive failures in arrival order, but only two on
        // any one virtual shard: below `restart_after` (3) everywhere,
        // so no mode may restart.
        let engine =
            ShardEngine::from_source(&pipeline("alloc", 2), ALLOC, Backend::Interp).unwrap();
        assert!(!engine.plan().partitioned());
        let packets = PacketGen::new(3).batch(100);
        let faults = FaultPlan::parse("err@0:0,err@1:0,err@0:1").unwrap();
        let threaded = engine
            .run_with(SliceSource::new(&packets), &RunConfig::threaded().with_faults(faults.clone()))
            .unwrap();
        let sequential = engine
            .run_with(SliceSource::new(&packets), &RunConfig::sequential().with_faults(faults))
            .unwrap();
        assert_eq!(threaded.fault_summary(), sequential.fault_summary());
        assert_eq!(threaded.fault_summary().quarantined, 3);
        assert_eq!(threaded.fault_summary().restarts, 0);
        assert_eq!(threaded.per_shard_pkts, sequential.per_shard_pkts);
    }

    #[test]
    fn ring_overflow_drops_past_deadline_with_accounting() {
        let engine =
            ShardEngine::from_source(&pipeline("rl", 2), RATELIMITER_ISH, Backend::Interp)
                .unwrap();
        let packets = PacketGen::new(5).batch(100);
        // The default overflow burst outlasts the injected deadline:
        // the packet drops, with retry accounting.
        let plan = FaultPlan::parse("ring-overflow@0:1").unwrap();
        let run = engine.run_with(SliceSource::new(&packets), &RunConfig::threaded().with_faults(plan.clone())).unwrap();
        assert_eq!(run.dropped_seqs.len(), 1);
        assert_eq!(run.offered(), 100);
        assert!(run.retries > u64::from(INJECTED_RING_DEADLINE));
        assert_matches_reference(&engine, &packets, &run);
        // A bounded burst is absorbed by backoff retries instead.
        let plan = FaultPlan::parse("ring-overflow@0:1:64").unwrap();
        let run = engine.run_with(SliceSource::new(&packets), &RunConfig::threaded().with_faults(plan.clone())).unwrap();
        assert!(run.dropped_seqs.is_empty());
        assert!(run.retries >= 64);
        assert_eq!(run.total_pkts(), 100);
    }

    /// A source that yields a few packets then fails, for the
    /// mid-stream error path.
    struct FailingSource {
        left: usize,
    }

    impl WorkloadSource for FailingSource {
        type Item = Packet;

        fn next_batch(
            &mut self,
            out: &mut Vec<Packet>,
            max: usize,
        ) -> Result<usize, nf_support::workload::WorkloadError> {
            if self.left == 0 {
                return Err(nf_support::workload::WorkloadError::at(
                    640,
                    "truncated record",
                ));
            }
            let n = self.left.min(max);
            let gen = PacketGen::new(9).batch(n);
            out.extend(gen);
            self.left -= n;
            Ok(n)
        }
    }

    #[test]
    fn batch_size_does_not_change_behaviour() {
        let engine = engine_for(RATELIMITER_ISH, 4);
        let packets = PacketGen::new(13).batch(400);
        let base = engine
            .run_with(SliceSource::new(&packets), &RunConfig::single())
            .unwrap();
        for size in [1usize, 7, 32, 256] {
            let batch = BatchConfig { size, ..BatchConfig::default() };
            for mode in [RunMode::Threaded, RunMode::Sequential] {
                let cfg = RunConfig { mode, ..RunConfig::threaded().with_batch(batch) };
                let run = engine.run_with(SliceSource::new(&packets), &cfg).unwrap();
                assert_eq!(
                    run.output_signature(),
                    base.output_signature(),
                    "batch {size} {mode:?}"
                );
                assert_eq!(run.merged, base.merged, "batch {size} {mode:?}");
                assert_eq!(run.total_pkts(), 400);
                assert_eq!(run.forwarded, base.forwarded);
            }
        }
    }

    #[test]
    fn rebalancing_migrates_new_flows_and_preserves_outputs() {
        let engine = engine_for(RATELIMITER_ISH, 4);
        // One heavy flow interleaved with a stream of fresh sources:
        // the heavy hitter keeps its shard hot, so new flows hashing
        // there get pinned elsewhere.
        let mut packets = Vec::new();
        for i in 0..600u32 {
            let src = if i % 2 == 0 { 0x0a00_0001 } else { 0x2000_0000 + i };
            packets.push(Packet::tcp(src, 1000, 0x0a00_00fe, 80, TcpFlags(TcpFlags::SYN)));
        }
        let single = engine
            .run_with(SliceSource::new(&packets), &RunConfig::single())
            .unwrap();
        let batch = BatchConfig { size: 2, ..BatchConfig::default() };
        let cfg = RunConfig::sequential().with_batch(batch).with_rebalance(true);
        let run = engine.run_with(SliceSource::new(&packets), &cfg).unwrap();
        assert!(run.migrations > 0, "skewed load should migrate new flows");
        assert_eq!(run.fault_summary().migrations, run.migrations);
        assert_eq!(run.output_signature(), single.output_signature());
        assert_eq!(run.merged, single.merged);
        // Rebalancing in the threaded dispatcher preserves the same
        // invariant (divert timing is racy, placement is not observable).
        let tcfg = RunConfig::threaded().with_batch(batch).with_rebalance(true);
        let trun = engine.run_with(SliceSource::new(&packets), &tcfg).unwrap();
        assert_eq!(trun.output_signature(), single.output_signature());
        assert_eq!(trun.merged, single.merged);
    }

    #[test]
    fn keep_outputs_off_still_counts_forwarded() {
        let engine = engine_for(RATELIMITER_ISH, 2);
        let packets = PacketGen::new(5).batch(300);
        let kept = engine
            .run_with(SliceSource::new(&packets), &RunConfig::threaded())
            .unwrap();
        let mut cfg = RunConfig::threaded();
        cfg.keep_outputs = false;
        let lean = engine.run_with(SliceSource::new(&packets), &cfg).unwrap();
        assert!(lean.outputs.is_empty());
        assert_eq!(lean.total_pkts(), kept.total_pkts());
        let kept_forwarded =
            kept.outputs.iter().filter(|o| !o.dropped).count() as u64;
        assert_eq!(kept.forwarded, kept_forwarded);
        assert_eq!(lean.forwarded, kept_forwarded);
    }

    #[test]
    fn workload_error_surfaces_mid_run() {
        let engine = engine_for(RATELIMITER_ISH, 2);
        for cfg in [RunConfig::threaded(), RunConfig::sequential()] {
            let err = engine
                .run_with(FailingSource { left: 70 }, &cfg)
                .unwrap_err();
            match err {
                ShardError::Workload(m) => {
                    assert!(m.contains("byte offset 640"), "{m}")
                }
                other => panic!("expected workload error, got {other:?}"),
            }
        }
    }
}
