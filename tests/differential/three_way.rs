//! The three-way differential: for every corpus NF, the concrete
//! interpreter, the synthesized model, and the compiled decision-tree
//! engine must be observationally identical — same per-packet outputs
//! in arrival order, same final state — across shard counts {1, 4} and
//! both the threaded and sequential run modes.
//!
//! State comparison is scoped to the model's own state variables
//! (`state_scalars` ∪ `state_maps`): the interpreter also advances
//! variables the model provably prunes (log-only counters that never
//! influence forwarding), which is exactly the abstraction the model
//! is allowed to make.

use crate::harness::{
    engines_from_synthesis, for_each_backend_pair, reply_stream, Mode, StateScope,
};
use nfactor::packet::{Packet, PacketGen};
use nfactor::shard::Backend;

const PACKETS: usize = 250;
const SEED: u64 = 0x7717;

fn three_way(name: &str, src: &str) {
    three_way_on(name, src, &PacketGen::new(SEED).batch(PACKETS));
}

fn three_way_on(name: &str, src: &str, packets: &[Packet]) {
    let (syn, engines) = engines_from_synthesis(
        name,
        src,
        &[Backend::Interp, Backend::Model, Backend::Compiled],
        &[1, 4],
    );
    let mut scope: Vec<String> = syn.model.state_scalars();
    scope.extend(syn.model.state_maps());
    for_each_backend_pair(
        name,
        &engines,
        &[Mode::Threaded, Mode::Sequential],
        packets,
        &StateScope::Restrict(scope),
    );
}

#[test]
fn three_way_firewall() {
    three_way("firewall", &nfactor::corpus::firewall::source());
}

/// Reply-direction traffic drives the firewall's inbound branch and
/// its pinhole lookup on every backend.
#[test]
fn three_way_firewall_replies() {
    three_way_on(
        "firewall",
        &nfactor::corpus::firewall::source(),
        &reply_stream(SEED, PACKETS),
    );
}

#[test]
fn three_way_portknock() {
    three_way("portknock", &nfactor::corpus::portknock::source());
}

#[test]
fn three_way_ratelimiter() {
    three_way("ratelimiter", &nfactor::corpus::ratelimiter::source());
}

#[test]
fn three_way_router() {
    three_way("router", &nfactor::corpus::router::source());
}

#[test]
fn three_way_snort() {
    three_way("snort", &nfactor::corpus::snort::source(25));
}

#[test]
fn three_way_fig1_lb() {
    three_way("fig1-lb", &nfactor::corpus::fig1_lb::source());
}

#[test]
fn three_way_nat() {
    three_way("nat", &nfactor::corpus::nat::source());
}

#[test]
fn three_way_balance() {
    three_way("balance", &nfactor::corpus::balance::source(6));
}
