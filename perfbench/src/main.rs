//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <synth-corpus|fw-stream|fw-interp|lb-exhaust>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics, measured with
//! tracing off; with `--trace 1` the per-layer profile. Either way the
//! last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! See `README.md` beside this crate for the workloads and the layer map.

mod check;
mod inputs;
mod metrics;
mod setup;
mod workload;

use metrics::{Outcome, END_TO_END, PER_LAYER};
use nf_support::json::Value as J;
use workload::{Workload, WORKLOADS};

struct Args {
    workload: Workload,
    name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .ok_or_else(|| format!("missing {flag}"))
    };
    let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
    let name = get("--workload")?.clone();
    let workload = Workload::parse(&name)
        .ok_or_else(|| format!("unknown workload `{name}` (one of {})", names.join(", ")))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is out of range"));
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    Ok(Args {
        workload,
        name,
        seed,
        seconds,
        trace,
    })
}

/// The commit the benchmark was built from, read from the checkout's
/// `.git` when there is one.
fn git_rev() -> String {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: std::path::PathBuf| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(git.join("HEAD")) else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(git.join(reference))
        .or_else(|| {
            read(git.join("packed-refs"))?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn int(v: u64) -> J {
    J::Int(i64::try_from(v).unwrap_or(i64::MAX))
}

fn run(args: &Args) -> Result<Outcome, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let shards = nproc;
    let prepared = workload::prepare(args.workload, args.seed, shards)?;
    let mut out = Outcome::default();
    let mut record = vec![
        ("workload".to_string(), J::Str(args.name.clone())),
        ("seed".into(), int(args.seed)),
        ("trace_packets".into(), int(prepared.trace_packets)),
        ("trace_bytes".into(), int(prepared.trace_bytes)),
        ("nproc".into(), int(nproc as u64)),
        ("shards".into(), int(shards as u64)),
        ("git_rev".into(), J::Str(git_rev())),
        (
            "profile".into(),
            J::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .into(),
            ),
        ),
        ("k".into(), int(prepared.k)),
        ("traced".into(), J::Bool(args.trace)),
    ];
    let tally = if args.trace {
        let s = workload::profile(&prepared, args.seconds, &mut out)?;
        let coverage = out.values["setup.coverage"];
        record.push(("setup_ms".into(), J::Float(s.setup_ms)));
        record.push(("setup_coverage".into(), J::Float(coverage)));
        let tolerance = workload::COVERAGE_TOLERANCE;
        record.push(("coverage_tolerance".into(), J::Float(tolerance)));
        if (coverage - 1.0).abs() > tolerance {
            eprintln!(
                "warning: set-up layers add up to {coverage:.3} of a build, outside ±{tolerance}"
            );
        }
        s.tally
    } else {
        let s = workload::measure(&prepared, args.seconds, &mut out)?;
        record.push(("rounds".into(), int(s.rounds as u64)));
        record.push(("passes".into(), int(s.passes as u64)));
        s.tally
    };
    record.push(("offered".into(), int(tally.attempted)));
    record.push(("failures".into(), int(tally.failed)));
    record.push(("expected_failures".into(), int(tally.expected_failures)));
    println!("# perfbench {}", J::Object(record).render());
    let defs = if args.trace { PER_LAYER } else { END_TO_END };
    for d in defs {
        if let Some(v) = out.values.get(d.name) {
            println!("#   {:<30} {:>16.6} {}", d.name, v, d.unit);
        }
    }
    println!(
        "#   failures {} of {} offered ({} quarantined as the reference also fails)",
        tally.failed, tally.attempted, tally.expected_failures
    );
    out.correct = tally.failed == 0;
    out.attempted = tally.attempted;
    out.failed = tally.failed;
    Ok(out)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let defs = if args.trace { PER_LAYER } else { END_TO_END };
    match run(&args).and_then(|out| Ok((out.render(defs)?, out.correct))) {
        Ok((line, correct)) => {
            println!("{line}");
            if !correct {
                eprintln!("perfbench: outputs disagree with the reference");
                std::process::exit(3);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
