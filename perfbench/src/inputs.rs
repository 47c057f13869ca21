//! The benchmark's inputs: seeded `.nfw` traces written before any
//! timing starts, the fig1-lb port-exhaustion rule that sizes the
//! lb-exhaust trace, and the timing wrapper around a workload source.

use nf_packet::{Field, NfwWriter, Packet, PacketGen};
use nf_shard::{WorkloadError, WorkloadSource};
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// A `.nfw` trace on disk.
#[derive(Debug, Clone)]
pub struct Trace {
    pub path: PathBuf,
    pub packets: u64,
    pub bytes: u64,
}

impl Trace {
    pub fn path_str(&self) -> &str {
        self.path.to_str().expect("work paths are UTF-8")
    }
}

/// A per-run scratch directory inside the benchmark's own directory,
/// removed with everything in it when dropped.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn create() -> std::io::Result<WorkDir> {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("work")
            .join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    pub fn file(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Succeeds only once no other run is using it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn finish(path: PathBuf, w: NfwWriter) -> std::io::Result<Trace> {
    let packets = w.finish()?;
    let bytes = std::fs::metadata(&path)?.len();
    Ok(Trace {
        path,
        packets,
        bytes,
    })
}

/// The first `n` packets of `PacketGen::new(seed)`.
pub fn write_random(path: PathBuf, seed: u64, n: u64) -> std::io::Result<Trace> {
    let mut w = NfwWriter::create(path.to_str().expect("UTF-8 path"), seed)?;
    let mut gen = PacketGen::new(seed);
    for _ in 0..n {
        w.push(&gen.next_packet())?;
    }
    finish(path, w)
}

/// fig1-lb's new-connection rule, replayed outside the program.
///
/// A packet to `LB_PORT` whose 4-tuple has no `f2b_nat` entry opens a
/// connection and takes port `cur_port`, which starts at 10000. Port
/// 65536 does not fit `tcp.sport`, so once the pool of 55,536 ports is
/// spent every further new connection fails in eval, is rolled back,
/// and leaves no entry behind: the next packet of that 4-tuple fails
/// again.
#[derive(Debug)]
pub struct LbRule {
    pool: u64,
    opened: u64,
    live: HashSet<(u64, u64, u64, u64)>,
}

/// fig1-lb's `LB_PORT`.
const LB_PORT: u64 = 80;
/// Ports from fig1-lb's initial `cur_port` (10000) to 65535.
const LB_PORT_POOL: u64 = 65_536 - 10_000;

impl LbRule {
    pub fn new(pool: u64) -> LbRule {
        LbRule {
            pool,
            opened: 0,
            live: HashSet::new(),
        }
    }

    /// Feed the next packet; true when fig1-lb must fail on it.
    pub fn fails(&mut self, pkt: &Packet) -> bool {
        let f = |field| pkt.get(field).unwrap_or(u64::MAX);
        if f(Field::TcpDport) != LB_PORT {
            return false;
        }
        let tuple = (
            f(Field::IpSrc),
            f(Field::TcpSport),
            f(Field::IpDst),
            f(Field::TcpDport),
        );
        if self.live.contains(&tuple) {
            return false;
        }
        if self.opened == self.pool {
            return true;
        }
        self.opened += 1;
        self.live.insert(tuple);
        false
    }
}

/// A seeded trace for fig1-lb that ends on the `k`-th packet the
/// exhausted port pool rejects, so every seed carries exactly `k`
/// failures. Returns the trace and the arrival seqs that must fail.
pub fn write_lb_exhaust(path: PathBuf, seed: u64, k: u64) -> std::io::Result<(Trace, Vec<u64>)> {
    let mut w = NfwWriter::create(path.to_str().expect("UTF-8 path"), seed)?;
    let mut gen = PacketGen::new(seed);
    let mut rule = LbRule::new(LB_PORT_POOL);
    let mut failing = Vec::new();
    let mut seq = 0u64;
    while (failing.len() as u64) < k {
        let pkt = gen.next_packet();
        if rule.fails(&pkt) {
            failing.push(seq);
        }
        w.push(&pkt)?;
        seq += 1;
    }
    Ok((finish(path, w)?, failing))
}

/// A [`WorkloadSource`] wrapper that counts the packets it hands out,
/// times every pull, and notes when the stream ended.
pub struct TimedSource<S> {
    inner: S,
    pub offered: u64,
    pub pull_ns: u64,
    pub ended_at: Option<Instant>,
}

impl<S> TimedSource<S> {
    pub fn new(inner: S) -> TimedSource<S> {
        TimedSource {
            inner,
            offered: 0,
            pull_ns: 0,
            ended_at: None,
        }
    }
}

impl<S: WorkloadSource<Item = Packet>> WorkloadSource for TimedSource<S> {
    type Item = Packet;

    fn next_batch(&mut self, out: &mut Vec<Packet>, max: usize) -> Result<usize, WorkloadError> {
        let t = Instant::now();
        let n = self.inner.next_batch(out, max)?;
        let end = Instant::now();
        self.pull_ns += (end - t).as_nanos() as u64;
        self.offered += n as u64;
        if n == 0 && self.ended_at.is_none() {
            self.ended_at = Some(end);
        }
        Ok(n)
    }

    fn size_hint(&self) -> Option<u64> {
        self.inner.size_hint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nf_packet::TcpFlags;
    use nf_shard::{Backend, RunConfig, ShardEngine, SliceSource};
    use nfactor_core::Pipeline;

    #[test]
    fn timed_source_counts_exactly_the_packets_offered() {
        let packets = PacketGen::new(11).batch(1000);
        let pipeline = Pipeline::builder()
            .name("firewall")
            .shards(2)
            .build()
            .expect("pipeline");
        let engine =
            ShardEngine::from_source(&pipeline, &nf_corpus::firewall::source(), Backend::Compiled)
                .expect("engine");
        let mut timed = TimedSource::new(SliceSource::new(&packets));
        let mut cfg = RunConfig::threaded();
        cfg.keep_outputs = false;
        let run = engine.run_with(&mut timed, &cfg).expect("run");
        assert_eq!(timed.offered, 1000);
        assert_eq!(run.offered(), timed.offered);
        assert!(timed.ended_at.is_some(), "the engine drained the source");

        // Direct pulls in odd-sized batches count the same way.
        let mut direct = TimedSource::new(SliceSource::new(&packets));
        let mut buf = Vec::new();
        while direct.next_batch(&mut buf, 7).expect("pull") > 0 {}
        assert_eq!(direct.offered, 1000);
        assert_eq!(buf.len(), 1000);
    }

    #[test]
    fn lb_rule_fails_new_connections_once_the_pool_is_spent() {
        let pkt = |sport| Packet::tcp(1, sport, 2, 80, TcpFlags::syn());
        let mut rule = LbRule::new(2);
        assert!(!rule.fails(&pkt(1000)));
        assert!(!rule.fails(&pkt(1001)));
        assert!(!rule.fails(&pkt(1000)), "an open connection keeps its port");
        assert!(rule.fails(&pkt(1002)), "pool spent");
        assert!(
            rule.fails(&pkt(1002)),
            "a failed connection leaves no entry"
        );
        assert!(
            !rule.fails(&Packet::tcp(1, 1003, 2, 443, TcpFlags::syn())),
            "not LB_PORT"
        );
        assert!(!rule.fails(&Packet::udp(3, 1004, 2, 443)));
        assert!(
            rule.fails(&Packet::udp(3, 1004, 2, 80)),
            "UDP carries the same port fields"
        );
    }
}
