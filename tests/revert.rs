//! Per-packet undo, for every backend: after any step — `Ok` or `Err`
//! — `revert` restores the exact pre-step state. The shard supervisor
//! relies on this to make a quarantined packet leave no trace, so it is
//! checked here on the backends directly: the interpreter (globals and
//! packet counter), the model evaluator, and the compiled engine, over
//! the 8 corpus NFs, one NF that fails after writing, and a fixed-seed
//! batch of grammar-generated NFs.

use nfactor::compile::{compile, CompiledState};
use nfactor::core::accuracy::initial_model_state;
use nfactor::core::{Pipeline, Synthesis};
use nfactor::fuzz::{fuzz_pipeline, gen_program, GrammarConfig};
use nfactor::interp::Interp;
use nfactor::model::ModelState;
use nfactor::packet::packet::Transport;
use nfactor::packet::{Packet, PacketGen};
use nfactor::support::Rng;

const PACKETS: usize = 200;
const GENERATED: u64 = 40;

/// A seeded stream in which every fifth packet has no transport layer,
/// so NFs that write state before reading a port fail mid-packet.
fn packets(seed: u64) -> Vec<Packet> {
    let mut pkts = PacketGen::new(seed).batch(PACKETS);
    for p in pkts.iter_mut().skip(4).step_by(5) {
        p.ip_proto = 1;
        p.transport = Transport::Other;
    }
    pkts
}

/// Per backend (interp, model, compiled): packets that failed, and
/// failures that had already written state when they failed.
type Tally = [(usize, usize); 3];

/// Step `b`, revert, and demand the exact pre-step state back; then step
/// again to advance the stream, reverting a failure as the supervisor
/// would. Returns `(failed, wrote before failing)`.
fn round<B, S: PartialEq + std::fmt::Debug>(
    b: &mut B,
    snap: &dyn Fn(&B) -> S,
    step: &dyn Fn(&mut B) -> bool,
    revert: fn(&mut B),
    what: &str,
) -> (bool, bool) {
    let pre = snap(b);
    let failed = !step(b);
    let dirty = failed && snap(b) != pre;
    revert(b);
    assert_eq!(snap(b), pre, "{what}: state after step + revert");
    if !step(b) {
        revert(b);
    }
    (failed, dirty)
}

/// Drive every backend of `syn` through the seeded stream, checking
/// step + revert on every packet.
fn check_revert(name: &str, syn: &Synthesis, seed: u64) -> Tally {
    let mut interp = Interp::new(&syn.nf_loop).unwrap_or_else(|e| panic!("{name}: {e}"));
    let mut ms = initial_model_state(syn, &interp);
    let prog = compile(&syn.model, &ms).unwrap_or_else(|e| panic!("{name}: compile: {e}"));
    let mut cs = CompiledState::new(&prog);
    let mut tally = Tally::default();
    for (i, pkt) in packets(seed).iter().enumerate() {
        let outcomes = [
            round(
                &mut interp,
                &|it: &Interp| it.globals.clone(),
                &|it: &mut Interp| it.process(pkt).is_ok(),
                Interp::revert,
                &format!("{name}: interp packet {i}"),
            ),
            round(
                &mut ms,
                &|ms: &ModelState| ms.snapshot(),
                &|ms: &mut ModelState| ms.step(&syn.model, pkt).is_ok(),
                ModelState::revert,
                &format!("{name}: model packet {i}"),
            ),
            round(
                &mut cs,
                &|cs: &CompiledState| cs.snapshot(&prog),
                &|cs: &mut CompiledState| cs.step(&prog, pkt).is_ok(),
                CompiledState::revert,
                &format!("{name}: compiled packet {i}"),
            ),
        ];
        for (t, (failed, dirty)) in tally.iter_mut().zip(outcomes) {
            *t = (t.0 + usize::from(failed), t.1 + usize::from(dirty));
        }
    }
    // Reverted packets are not counted as seen.
    assert_eq!(
        interp.packets_seen(),
        (PACKETS - tally[0].0) as u64,
        "{name}"
    );
    tally
}

/// Sum two tallies.
fn add(a: Tally, b: Tally) -> Tally {
    std::array::from_fn(|i| (a[i].0 + b[i].0, a[i].1 + b[i].1))
}

/// Writes a scalar and a map entry, then reads a port: a packet with no
/// transport layer fails after both writes (in the interpreter, which
/// writes as it goes; the model and compiled engines fail before their
/// commit).
const WRITE_THEN_FAULT: &str = r#"
    state seen = 0;
    state last = map();
    fn cb(pkt: packet) {
        seen = seen + 1;
        last[pkt.ip.src] = seen;
        if pkt.tcp.dport == 80 { send(pkt); }
    }
    fn main() { sniff(cb); }
"#;

#[test]
fn revert_restores_pre_step_state_on_the_corpus() {
    let corpus = [
        ("fig1-lb", nfactor::corpus::fig1_lb::source()),
        ("balance", nfactor::corpus::balance::source(6)),
        ("snort", nfactor::corpus::snort::source(25)),
        ("nat", nfactor::corpus::nat::source()),
        ("firewall", nfactor::corpus::firewall::source()),
        ("ratelimiter", nfactor::corpus::ratelimiter::source()),
        ("portknock", nfactor::corpus::portknock::source()),
        ("router", nfactor::corpus::router::source()),
        ("write-then-fault", WRITE_THEN_FAULT.to_string()),
    ];
    let mut total = Tally::default();
    for (name, src) in corpus {
        let pipeline = Pipeline::builder().name(name).build().unwrap();
        let syn = pipeline
            .synthesize(&src)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        total = add(total, check_revert(name, &syn, 0x5eed));
    }
    assert!(total.iter().all(|&(failed, _)| failed > 0), "{total:?}");
    assert!(
        total[0].1 > 0,
        "no interp step failed after a write: {total:?}"
    );
}

#[test]
fn revert_restores_pre_step_state_on_generated_nfs() {
    let (mut checked, mut total) = (0, Tally::default());
    for case in 0..GENERATED {
        let prog = gen_program(&mut Rng::new(0xdead_0000 + case), GrammarConfig::default());
        let name = format!("gen-{case}");
        let Ok(syn) = fuzz_pipeline(&name).and_then(|p| p.synthesize(&prog.source)) else {
            continue;
        };
        if syn.model.completeness.reason().is_some() {
            continue;
        }
        total = add(total, check_revert(&name, &syn, case));
        checked += 1;
    }
    assert!(
        checked >= GENERATED / 2,
        "only {checked} of {GENERATED} generated NFs synthesized"
    );
    assert!(total.iter().all(|&(failed, _)| failed > 0), "{total:?}");
}
