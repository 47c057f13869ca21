//! Output checks against an independent reference: a bare pass of the
//! original program (`nfl-interp`) or of the synthesized model
//! (`nf-model`) over the same packets, as in the paper's §5 accuracy
//! experiment. The reference is never the backend under test.
//!
//! Only the model's own state variables are compared — the scope the
//! differential suites use. The interpreter also advances log-only
//! counters the model prunes, and the model is allowed to drop them.

use crate::inputs::Trace;
use nf_model::ModelState;
use nf_packet::NfwReader;
use nf_shard::{ShardRun, WorkloadSource};
use nfactor_core::Synthesis;
use nfl_interp::{Interp, Value};
use std::collections::BTreeMap;
use std::fmt::Write;

/// The state variables a run's merged state is compared on.
pub fn scope_of(syn: &Synthesis) -> Vec<String> {
    let mut scope = syn.model.state_scalars();
    scope.extend(syn.model.state_maps());
    scope.sort();
    scope.dedup();
    scope
}

/// What a checked run must agree on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Observed {
    /// Packets processed and not dropped by the NF.
    pub forwarded: u64,
    /// Arrival seqs of packets the NF failed on (quarantined).
    pub failed_seqs: Vec<u64>,
    /// Packets dropped at dispatch (always 0 for the reference).
    pub ring_dropped: u64,
    /// FNV-1a digest of the scoped state's debug rendering.
    pub digest: u64,
}

impl Observed {
    pub fn of_run(run: &ShardRun, scope: &[String]) -> Observed {
        let mut failed_seqs = run.quarantined_seqs.clone();
        failed_seqs.sort_unstable();
        Observed {
            forwarded: run.forwarded,
            failed_seqs,
            ring_dropped: run.dropped_seqs.len() as u64,
            digest: digest(run.merged.iter(), scope),
        }
    }

    /// How many packets this run got wrong against `reference`: the
    /// forwarded-count difference, failures on one side only, packets
    /// dropped at dispatch, and one more when the states differ.
    pub fn mismatches(&self, reference: &Observed) -> u64 {
        let one_sided = self
            .failed_seqs
            .iter()
            .filter(|s| reference.failed_seqs.binary_search(s).is_err())
            .count()
            + reference
                .failed_seqs
                .iter()
                .filter(|s| self.failed_seqs.binary_search(s).is_err())
                .count();
        self.forwarded.abs_diff(reference.forwarded)
            + one_sided as u64
            + self.ring_dropped
            + u64::from(self.digest != reference.digest)
    }
}

struct Fnv(u64);

impl Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

/// Digest of the variables in `scope`, in name order. Map values are
/// `BTreeMap`s, so the rendering is deterministic.
pub fn digest<'a>(vars: impl Iterator<Item = (&'a String, &'a Value)>, scope: &[String]) -> u64 {
    let scoped: BTreeMap<&String, &Value> = vars.filter(|(k, _)| scope.contains(k)).collect();
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    write!(h, "{scoped:?}").expect("hashing cannot fail");
    h.0
}

/// Entries across every map of a merged state.
pub fn map_entries(merged: &BTreeMap<String, Value>) -> u64 {
    merged
        .values()
        .map(|v| match v {
            Value::Map(m) => m.len() as u64,
            _ => 0,
        })
        .sum()
}

/// The independent implementation a run is checked against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reference {
    /// A bare `Interp::process` pass: the original program.
    Interp,
    /// A bare `ModelState::step` pass: the synthesized model. Used for
    /// the packet workloads: fw-interp tests the interpreter itself; on
    /// fig1-lb the interpreter copies a global map on every `in` test
    /// and lookup, so its pass is quadratic; and on the 1M-packet
    /// firewall trace an interpreter pass would add ~14 s to every run.
    Model,
}

enum Evaluator {
    Interp(Interp),
    Model(ModelState),
}

/// Run the reference over `trace`.
///
/// `expect_fail` lists the arrival seqs the NF is known to fail on.
/// An evaluator may change state before it reaches the failing
/// statement, so each of those packets runs against a saved copy of
/// the state that is put back afterwards — the rollback the shard
/// supervisor performs.
pub fn reference(
    kind: Reference,
    syn: &Synthesis,
    trace: &Trace,
    scope: &[String],
    expect_fail: &[u64],
) -> Result<Observed, String> {
    let interp = Interp::new(&syn.nf_loop).map_err(|e| format!("reference interp: {e}"))?;
    let mut ev = match kind {
        Reference::Interp => Evaluator::Interp(interp),
        Reference::Model => {
            Evaluator::Model(nfactor_core::accuracy::initial_model_state(syn, &interp))
        }
    };
    let mut reader = NfwReader::open(trace.path_str()).map_err(|e| e.to_string())?;
    let mut buf = Vec::with_capacity(256);
    let (mut seq, mut forwarded, mut failed_seqs) = (0u64, 0u64, Vec::new());
    loop {
        buf.clear();
        if reader
            .next_batch(&mut buf, 256)
            .map_err(|e| e.to_string())?
            == 0
        {
            break;
        }
        for pkt in &buf {
            let must_fail = expect_fail.binary_search(&seq).is_ok();
            let ok = match &mut ev {
                Evaluator::Interp(interp) => {
                    let saved = must_fail.then(|| (interp.globals.clone(), interp.packets_seen()));
                    match interp.process(pkt) {
                        Ok(step) => Some(!step.dropped),
                        Err(_) => {
                            if let Some((globals, seen)) = saved {
                                interp.globals = globals;
                                interp.rewind_packets_seen(seen);
                            }
                            None
                        }
                    }
                }
                Evaluator::Model(state) => {
                    let saved = must_fail.then(|| state.clone());
                    match state.step(&syn.model, pkt) {
                        Ok(step) => Some(step.output.is_some()),
                        Err(_) => {
                            if let Some(saved) = saved {
                                *state = saved;
                            }
                            None
                        }
                    }
                }
            };
            match ok {
                Some(fwd) => forwarded += u64::from(fwd),
                None => failed_seqs.push(seq),
            }
            seq += 1;
        }
    }
    if seq != trace.packets {
        return Err(format!("reference read {seq} of {} packets", trace.packets));
    }
    let digest = match &ev {
        Evaluator::Interp(interp) => digest(interp.globals.iter(), scope),
        Evaluator::Model(state) => {
            let vars: BTreeMap<String, Value> = state
                .scalars
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .chain(
                    state
                        .maps
                        .iter()
                        .filter(|(k, _)| scope.contains(k))
                        .map(|(k, m)| (k.clone(), Value::Map(m.clone()))),
                )
                .collect();
            digest(vars.iter(), scope)
        }
    };
    Ok(Observed {
        forwarded,
        failed_seqs,
        ring_dropped: 0,
        digest,
    })
}
