//! `hmtx-perfbench`: one workload of the benchmark described by
//! `BENCHMARK.json`, run from outside the program through the crates'
//! public functions and the release binaries.
//!
//! ```text
//! hmtx-perfbench --workload NAME --seed N --seconds S --trace 0|1
//!                [--serve-bin PATH --router-bin PATH] [--source-id ID]
//!                [--plant-job-delay-us N] [--plant-request-delay-us N]
//! ```
//!
//! Normally started by `perfbench/run.py`, which builds the binaries first.
//! The last stdout line is the result object; the lines before it carry
//! the provenance and the sample counts behind every quantile. A failed
//! correctness check exits 1 without a result.

mod model;
mod serve;
mod sim;
mod stats;
mod steal;
mod sweep;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use steal::Steal;
use trace::Tracer;

/// Metric name → value; units come from the tables below.
pub type Metrics = BTreeMap<&'static str, f64>;

/// Set-ups per run; the median is reported as `setup_s`.
pub const SETUP_REPS: usize = 9;

/// The end-to-end metrics every workload reports with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
    ("pass_s", "s"),
    ("rate_per_s", "1/s"),
    ("p50_ms", "ms"),
];

/// The per-layer metrics every workload reports with `--trace 1`. A layer
/// the workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("jobspec.materialize_s", "s"),
    ("workloads.build_image_s", "s"),
    ("machine.construct_s", "s"),
    ("runtime.codegen_s", "s"),
    ("sim.run_s", "s"),
    ("sim.run_s.seq", "ratio"),
    ("sim.run_s.hmtx", "ratio"),
    ("sim.run_s.hytm", "ratio"),
    ("jobspec.render_s", "s"),
    ("sim.cycles", "count"),
    ("machine.instructions", "count"),
    ("machine.wrong_path_instructions", "count"),
    ("machine.mispredictions", "count"),
    ("mem.loads", "count"),
    ("mem.stores", "count"),
    ("mem.l1_hits", "count"),
    ("mem.l1_misses", "count"),
    ("mem.l2_hits", "count"),
    ("mem.peer_transfers", "count"),
    ("core.commits", "count"),
    ("core.aborts", "count"),
    ("runtime.recoveries", "count"),
    ("hytm.fast_commits", "count"),
    ("hytm.slow_commits", "count"),
    ("hytm.demotions", "count"),
    ("mem.l1_hit_ratio", "ratio"),
    ("core.commit_ratio", "ratio"),
    ("hytm.fast_ratio", "ratio"),
    ("sim.ns_per_instr", "ns"),
    ("sim.ns_per_access", "ns"),
    ("router.self_ms", "ms"),
    ("router.forwarded", "count"),
    ("router.failovers", "count"),
    ("router.retry_rounds", "count"),
    ("serve.self_ms", "ms"),
    ("net.ping_ms", "ms"),
    ("types.key_us", "us"),
    ("proto.parse_us", "us"),
    ("serve.mem_hits", "count"),
    ("serve.misses", "count"),
    ("serve.executed", "count"),
    ("serve.coalesced_hits", "count"),
    ("serve.rejected_busy", "count"),
    ("serve.errors", "count"),
    ("serve.hit_ratio", "ratio"),
    ("serve.repeat_miss_ratio", "ratio"),
    ("serve.miss_overhead_ms", "ms"),
    ("client.p99_ms", "ms"),
    ("client.p999_ms", "ms"),
    ("client.lag_p99_ms", "ms"),
    ("client.ref_p50_ms", "ms"),
    ("client.max_rps", "1/s"),
    ("client.hit_p50_ms", "ms"),
    ("client.miss_p50_ms", "ms"),
    ("client.miss_p99_ms", "ms"),
    ("model.states", "count"),
    ("model.transitions", "count"),
    ("model.frontier_peak", "count"),
    ("model.canon_s", "s"),
    ("model.states_per_s", "1/s"),
    ("unaccounted_share", "ratio"),
    ("host.steal_share", "ratio"),
    ("trace.overhead_share", "ratio"),
];

pub const WORKLOADS: &[&str] = &["sim-sweep", "serve-hot", "serve-mix", "model-check"];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    pub serve_bin: Option<PathBuf>,
    pub router_bin: Option<PathBuf>,
    pub source_id: String,
    pub plant_job_delay: Duration,
    pub plant_request_delay: Duration,
}

/// What a workload hands back: the work attempted, the metrics, the exact
/// work-count fingerprint (for workloads whose counts must repeat), and
/// the sample evidence behind the reported quantiles.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub e2e: Metrics,
    pub layers: Metrics,
    pub counts: Option<String>,
    pub details: Vec<(String, String)>,
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("hmtx-perfbench: {msg}");
    eprintln!(
        "usage: hmtx-perfbench --workload {{{}}} --seed N --seconds S --trace 0|1 \
         [--serve-bin PATH --router-bin PATH] [--source-id ID] \
         [--plant-job-delay-us N] [--plant-request-delay-us N]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: Duration::from_secs(10),
        trace: false,
        serve_bin: None,
        router_bin: None,
        source_id: "unknown".into(),
        plant_job_delay: Duration::ZERO,
        plant_request_delay: Duration::ZERO,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .clone();
        let num = |v: &str| v.parse::<u64>().map_err(|_| format!("bad {flag} `{v}`"));
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = num(&value)?,
            "--seconds" => args.seconds = Duration::from_secs(num(&value)?.max(1)),
            "--trace" => args.trace = num(&value)? != 0,
            "--serve-bin" => args.serve_bin = Some(value.into()),
            "--router-bin" => args.router_bin = Some(value.into()),
            "--source-id" => args.source_id = value,
            "--plant-job-delay-us" => args.plant_job_delay = Duration::from_micros(num(&value)?),
            "--plant-request-delay-us" => {
                args.plant_request_delay = Duration::from_micros(num(&value)?);
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload `{}`", args.workload));
    }
    Ok(args)
}

/// Peak resident set (VmHWM) of `pids`, summed, in MB.
pub fn peak_rss_mb(pids: &[u32]) -> f64 {
    pids.iter()
        .filter_map(|pid| std::fs::read_to_string(format!("/proc/{pid}/status")).ok())
        .filter_map(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .sum::<f64>()
        / 1024.0
}

/// JSON describing a sample set: count, median, quartiles and extremes.
pub fn sample_detail(samples: &[f64]) -> String {
    let q = |p| stats::quantile(samples, p).map_or(0.0, |q| q.value);
    format!(
        r#"{{"n":{},"median":{},"q1":{},"q3":{},"min":{},"max":{}}}"#,
        samples.len(),
        num(q(0.5)),
        num(q(0.25)),
        num(q(0.75)),
        num(q(1e-12)),
        num(q(1.0)),
    )
}

/// JSON for one quantile with the evidence behind it.
pub fn quantile_detail(samples: &[f64], p: f64) -> String {
    match stats::quantile(samples, p) {
        Some(q) => format!(
            r#"{{"value":{},"n":{},"beyond":{}}}"#,
            num(q.value),
            q.n,
            q.beyond
        ),
        None => r#"{"value":0,"n":0,"beyond":0}"#.into(),
    }
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives.
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0.0".into()
    }
}

fn host_cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn json_str(s: &str) -> String {
    hmtx_types::Json::Str(s.to_string()).compact()
}

/// Exact work counts must repeat between runs of the same source: the
/// first run records them under `.bench_state/`, later runs compare.
fn check_repeatable(args: &Args, fingerprint: &str) -> Result<(), String> {
    let dir = PathBuf::from(".bench_state");
    let path = dir.join(format!("{}.counts", args.workload));
    let existing = std::fs::read_to_string(&path).unwrap_or_default();
    let prefix = format!("{}\t", args.source_id);
    if let Some(line) = existing.lines().find(|l| l.starts_with(&prefix)) {
        let recorded = &line[prefix.len()..];
        if recorded != fingerprint {
            return Err(format!(
                "nondeterministic: exact work counts drifted between runs of the same source\n  \
                 recorded: {recorded}\n  this run: {fingerprint}"
            ));
        }
        return Ok(());
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let mut text = existing;
    let _ = writeln!(text, "{prefix}{fingerprint}");
    std::fs::write(&path, text).map_err(|e| format!("writing {}: {e}", path.display()))
}

fn run(args: &Args) -> Result<String, String> {
    let tracer = Tracer::new(args.trace);
    let steal = Steal::new();
    let outcome = std::thread::scope(|s| {
        let sampler = s.spawn(|| steal.sample());
        let outcome = match args.workload.as_str() {
            "sim-sweep" => sweep::run(args, &tracer, &steal),
            "serve-hot" => serve::run_hot(args, &tracer, &steal),
            "serve-mix" => serve::run_mix(args, &tracer, &steal),
            "model-check" => model::run(args, &tracer, &steal),
            _ => unreachable!("validated in parse_args"),
        };
        steal.stop();
        sampler.thread().unpark();
        outcome
    })?;
    if let Some(fp) = &outcome.counts {
        check_repeatable(args, fp)?;
    }
    if args.trace {
        let path = PathBuf::from(".bench_trace")
            .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        tracer
            .write(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }

    let (table, metrics) = if args.trace {
        (PER_LAYER, &outcome.layers)
    } else {
        (END_TO_END, &outcome.e2e)
    };
    let mut out = String::new();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let _ = writeln!(
        out,
        r#"{{"provenance":{{"workload":{},"seed":{},"seconds":{},"trace":{},"nproc":{},"cpu_model":{},"source":{},"runs":1,"plant_job_delay_us":{},"plant_request_delay_us":{}}}}}"#,
        json_str(&args.workload),
        args.seed,
        args.seconds.as_secs(),
        u8::from(args.trace),
        nproc,
        json_str(&host_cpu_model()),
        json_str(&args.source_id),
        args.plant_job_delay.as_micros(),
        args.plant_request_delay.as_micros(),
    );
    let details: Vec<String> = outcome
        .details
        .iter()
        .map(|(k, v)| format!("{}:{v}", json_str(k)))
        .collect();
    let _ = writeln!(out, r#"{{"details":{{{}}}}}"#, details.join(","));
    let body: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let value = metrics.get(name).copied().unwrap_or(0.0);
            format!(r#""{name}":{{"value":{},"unit":"{unit}"}}"#, num(value))
        })
        .collect();
    let _ = write!(
        out,
        r#"{{"correct":true,"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
        outcome.attempted.max(1),
        outcome.failed,
        body.join(",")
    );
    Ok(out)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => return usage(&e),
    };
    match run(&args) {
        Ok(out) => {
            println!("{out}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("hmtx-perfbench: {}: FAILED: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}
