//! Set-up: NFL source text to a ready `ShardEngine`, and the traced
//! split of that time into pipeline stages, lint, compile and the rest
//! of the engine build.
//!
//! The split calls each layer's public functions in the order
//! `Pipeline::synthesize` and `ShardEngine::from_synthesis` call them,
//! with a timer around each call; nothing inside the program is
//! instrumented.

use nf_shard::{Backend, ShardEngine};
use nf_trace::Tracer;
use nfactor_core::pipeline::normalize_with_unfold;
use nfactor_core::{Pipeline, Synthesis};
use nfl_analysis::pdg::{default_boundary, Pdg};
use nfl_interp::Interp;
use nfl_slicer::statealyzer::statealyzer;
use nfl_slicer::static_slice::{packet_slice_budgeted, slice_union, state_slice_budgeted};
use nfl_symex::SymExec;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Whether a run records traces. Untraced runs build every pipeline —
/// and so every engine — with a disabled tracer, which also keeps the
/// shard telemetry plane off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tracing {
    Off,
    On,
}

pub fn pipeline(name: &str, shards: usize, tracing: Tracing) -> Result<Pipeline, String> {
    let tracer = match tracing {
        Tracing::Off => Tracer::disabled(),
        Tracing::On => Tracer::enabled(),
    };
    Pipeline::builder()
        .name(name)
        .shards(shards)
        .tracer(tracer)
        .build()
        .map_err(|e| format!("{name}: pipeline: {e}"))
}

/// Source text to a ready engine: what `setup_s` times.
pub fn build(
    pipeline: &Pipeline,
    src: &str,
    backend: Backend,
) -> Result<(Synthesis, ShardEngine), String> {
    let name = pipeline.name();
    let syn = pipeline
        .synthesize(src)
        .map_err(|e| format!("{name}: synthesize: {e}"))?;
    let engine = ShardEngine::from_synthesis(pipeline, &syn, backend)
        .map_err(|e| format!("{name}: engine: {e}"))?;
    Ok((syn, engine))
}

/// One timed pass over every set-up layer of one NF, in nanoseconds,
/// plus the exact sizes the layers produce.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTimes {
    pub frontend: f64,
    pub structure: f64,
    pub slice: f64,
    pub symex: f64,
    pub model: f64,
    pub lint: f64,
    pub compile: f64,
    /// `from_synthesis` minus its lint and compile calls.
    pub engine_other: f64,
    /// `Synthesis::metrics.slicing_time`, the pipeline's own timer.
    pub slice_reported: f64,
    /// `Synthesis::metrics.se_time_slice`.
    pub symex_reported: f64,
    pub paths: u64,
    pub entries: u64,
    pub nodes: u64,
}

impl StageTimes {
    /// Every layer of the split; should add up to one `build`.
    pub fn total(&self) -> f64 {
        self.frontend
            + self.structure
            + self.slice
            + self.symex
            + self.model
            + self.lint
            + self.compile
            + self.engine_other
    }

    pub fn add(&mut self, o: &StageTimes) {
        self.frontend += o.frontend;
        self.structure += o.structure;
        self.slice += o.slice;
        self.symex += o.symex;
        self.model += o.model;
        self.lint += o.lint;
        self.compile += o.compile;
        self.engine_other += o.engine_other;
        self.slice_reported += o.slice_reported;
        self.symex_reported += o.symex_reported;
        self.paths += o.paths;
        self.entries += o.entries;
        self.nodes += o.nodes;
    }
}

fn timed<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *acc += t.elapsed().as_nanos() as f64;
    out
}

fn ns(d: Duration) -> f64 {
    d.as_nanos() as f64
}

/// Time every set-up layer of one NF from outside. The stage calls
/// replay `Pipeline::synthesize` with the pipeline's own config; their
/// result is checked against the pipeline's so the replay cannot drift
/// from what it times.
pub fn profile_stages(
    pipeline: &Pipeline,
    src: &str,
    backend: Backend,
) -> Result<StageTimes, String> {
    let name = pipeline.name();
    let cfg = pipeline.config();
    let quiet = Tracer::disabled();
    let mut st = StageTimes::default();

    let program = timed(&mut st.frontend, || nfl_lang::parse_and_check(src))
        .map_err(|e| format!("{name}: frontend: {e}"))?;
    let (nf_loop, type_info) = timed(&mut st.structure, || {
        let nf_loop = normalize_with_unfold(&program).map_err(|e| e.to_string())?;
        let info = nfl_lang::types::check(&nf_loop.program).map_err(|e| e.to_string())?;
        Ok::<_, String>((nf_loop, info))
    })
    .map_err(|e| format!("{name}: structure: {e}"))?;
    let union = timed(&mut st.slice, || {
        let (program, func) = (&nf_loop.program, &nf_loop.func);
        let pdg = Pdg::build(program, func, &default_boundary(program, func));
        let (pkt, _) = packet_slice_budgeted(&pdg, program, func, &cfg.budget, &quiet);
        let classes = statealyzer(&nf_loop, &pkt.stmts, &type_info, cfg.statealyzer_input);
        let (state, _) =
            state_slice_budgeted(&pdg, program, func, &classes.ois_vars, &cfg.budget, &quiet);
        slice_union(&pkt, &state)
    });
    let (sliced, exploration) = timed(&mut st.symex, || {
        let sliced = nfactor_core::filter_loop(&nf_loop, &union.stmts);
        let stats = SymExec::new(&sliced)
            .with_limits(cfg.limits)
            .with_budget(cfg.budget)
            .explore();
        (sliced, stats)
    });
    let exploration = exploration.map_err(|e| format!("{name}: symex: {e}"))?;
    // The model stage includes the pipeline's Table 2 line counts.
    let model = timed(&mut st.model, || {
        let model = nf_model::Model::from_paths(name, &exploration.paths);
        for path in &exploration.paths {
            let executed = path.executed.iter().copied().collect();
            black_box(nfl_lang::pretty::slice_loc(&sliced.program, &executed));
        }
        black_box((program.loc(), union.loc(&nf_loop.program)));
        model
    });

    let syn = pipeline
        .synthesize(src)
        .map_err(|e| format!("{name}: synthesize: {e}"))?;
    if exploration.paths.len() != syn.exploration.paths.len()
        || model.entry_count() != syn.model.entry_count()
    {
        return Err(format!(
            "{name}: the stage replay diverged from Pipeline::synthesize"
        ));
    }
    st.slice_reported = ns(syn.metrics.slicing_time);
    st.symex_reported = ns(syn.metrics.se_time_slice);
    st.paths = syn.exploration.paths.len() as u64;
    st.entries = syn.model.entry_count() as u64;

    timed(&mut st.lint, || {
        nfl_lint::lint_program(&syn.name, &syn.nf_loop.program)
    })
    .map_err(|e| format!("{name}: lint: {e}"))?;
    if backend == Backend::Compiled {
        let interp = Interp::new(&syn.nf_loop).map_err(|e| format!("{name}: interp: {e}"))?;
        let init = nfactor_core::accuracy::initial_model_state(&syn, &interp);
        let prog = timed(&mut st.compile, || nf_compile::compile(&syn.model, &init))
            .map_err(|e| format!("{name}: compile: {e}"))?;
        st.nodes = prog.node_count() as u64;
    }
    let mut engine_ns = 0.0;
    timed(&mut engine_ns, || {
        ShardEngine::from_synthesis(pipeline, &syn, backend)
    })
    .map_err(|e| format!("{name}: engine: {e}"))?;
    st.engine_other = engine_ns - st.lint - st.compile;
    Ok(st)
}

/// Decision-tree nodes the compiled backend builds for `syn`.
pub fn compiled_nodes(syn: &Synthesis) -> Result<u64, String> {
    let interp = Interp::new(&syn.nf_loop).map_err(|e| e.to_string())?;
    let init = nfactor_core::accuracy::initial_model_state(syn, &interp);
    let prog = nf_compile::compile(&syn.model, &init).map_err(|e| e.to_string())?;
    Ok(prog.node_count() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nf_packet::PacketGen;
    use nf_shard::{RunConfig, SliceSource};

    #[test]
    fn untraced_runs_never_enable_a_tracer() {
        let p = pipeline("firewall", 2, Tracing::Off).expect("pipeline");
        assert!(!p.tracer().is_enabled());
        let (_, engine) =
            build(&p, &nf_corpus::firewall::source(), Backend::Compiled).expect("engine");
        let packets = PacketGen::new(3).batch(300);
        let run = engine
            .run_with(SliceSource::new(&packets), &RunConfig::threaded())
            .expect("run");
        assert!(run.stats.is_none(), "telemetry ran without tracing");
        assert!(pipeline("firewall", 2, Tracing::On)
            .expect("pipeline")
            .tracer()
            .is_enabled());
    }

    #[test]
    fn stage_split_covers_the_whole_pipeline() {
        let p = pipeline("fig1-lb", 2, Tracing::Off).expect("pipeline");
        let st =
            profile_stages(&p, &nf_corpus::fig1_lb::source(), Backend::Compiled).expect("profile");
        assert!(st.paths > 0 && st.entries > 0 && st.nodes > 0);
        assert!(st.frontend > 0.0 && st.slice > 0.0 && st.symex > 0.0 && st.lint > 0.0);
    }
}
