//! The `model-check` workload: `hmtx_modelcheck::check` exhausts the
//! c4-l4-v2 protocol model with the CLI defaults (symmetry reduction on).

use std::time::{Duration, Instant};

use hmtx_explore::model_kernel;
use hmtx_modelcheck::check;
use hmtx_types::{ModelCheckConfig, ModelCheckReport};

use crate::stats::median;
use crate::steal::Steal;
use crate::trace::Tracer;
use crate::{peak_rss_mb, Args, Metrics, Outcome};

fn workload_config(symmetry: bool) -> ModelCheckConfig {
    ModelCheckConfig {
        cores: 4,
        lines: 4,
        vid_bits: 2,
        symmetry,
        ..ModelCheckConfig::default()
    }
}

fn fingerprint(r: &ModelCheckReport) -> String {
    format!(
        "states={} transitions={} frontier_peak={}",
        r.reachable, r.transitions, r.frontier_peak
    )
}

/// One timed exhaustive check (start, seconds); an unexhausted or violated
/// model is an incorrect result.
fn timed_check(cfg: &ModelCheckConfig) -> Result<((Instant, f64), ModelCheckReport), String> {
    let t0 = Instant::now();
    let report = check(cfg);
    let secs = t0.elapsed().as_secs_f64();
    if !report.exhausted {
        return Err(format!("{} did not exhaust", cfg.kernel_name()));
    }
    if !report.is_clean() {
        return Err(format!("{} has violations:\n{report}", cfg.kernel_name()));
    }
    Ok(((t0, secs), report))
}

pub fn run(args: &Args, tracer: &Tracer, steal: &Steal) -> Result<Outcome, String> {
    let cfg = workload_config(true);
    // Set-up: build the model kernel and warm the checker on the CLI's
    // default (smallest) model.
    let mut setups = Vec::new();
    for _ in 0..crate::SETUP_REPS {
        let t0 = Instant::now();
        let kernel = model_kernel(&cfg);
        std::hint::black_box(&kernel);
        timed_check(&ModelCheckConfig::default())?;
        setups.push((t0, Instant::now(), t0.elapsed().as_secs_f64()));
    }
    let setups = steal.unstarved(setups);

    let deadline = Instant::now() + args.seconds;
    let mut times = Vec::new();
    let mut first: Option<ModelCheckReport> = None;
    // Traced, untraced and traced checks alternate: the overhead of tracing
    // is their difference, with host drift hitting both alike.
    let mut traced_times = Vec::new();
    let mut group = 0;
    while times.len() + traced_times.len() < 2 || Instant::now() < deadline {
        group += 1;
        let traced = tracer.enabled() && traced_times.len() < times.len();
        let span = traced.then(|| tracer.span("model.check", group, 0));
        let ((t0, secs), report) = timed_check(&cfg)?;
        drop(span);
        if traced {
            traced_times.push(secs);
        } else {
            times.push((t0, t0 + Duration::from_secs_f64(secs), secs));
        }
        match &first {
            None => first = Some(report),
            Some(f) if fingerprint(f) != fingerprint(&report) => {
                return Err(format!(
                    "nondeterministic: check gave {} then {}",
                    fingerprint(f),
                    fingerprint(&report)
                ));
            }
            Some(_) => {}
        }
    }
    let report = first.expect("at least one check ran");
    let checks = (times.len() + traced_times.len()) as u64;

    let steals: Vec<f64> = times.iter().map(|t| steal.share(t.0, t.1)).collect();
    let times = steal.unstarved(times);
    let mut e2e = Metrics::new();
    let exhaust = median(&times);
    e2e.insert("setup_s", median(&setups));
    e2e.insert("peak_rss_mb", peak_rss_mb(&[std::process::id()]));
    e2e.insert("ok_ratio", 1.0);
    e2e.insert("pass_s", exhaust);
    e2e.insert("p50_ms", exhaust * 1e3);
    e2e.insert("rate_per_s", report.reachable as f64 / exhaust);

    let mut layers = Metrics::new();
    if tracer.enabled() {
        let traced = median(&traced_times);
        let span = tracer.span("model.check.no_symmetry", group + 1, 0);
        let ((_, no_sym), _) = timed_check(&workload_config(false))?;
        drop(span);
        let canon = traced - no_sym;
        layers.insert("model.states", report.reachable as f64);
        layers.insert("model.transitions", report.transitions as f64);
        layers.insert("model.frontier_peak", report.frontier_peak as f64);
        layers.insert("model.canon_s", canon);
        layers.insert("model.states_per_s", report.reachable as f64 / traced);
        layers.insert("unaccounted_share", (traced - canon.max(0.0)) / traced);
        layers.insert("trace.overhead_share", traced / exhaust - 1.0);
        layers.insert("host.steal_share", median(&steals));
    }

    Ok(Outcome {
        attempted: checks,
        failed: 0,
        e2e,
        layers,
        counts: Some(fingerprint(&report)),
        details: vec![
            ("pass_s".into(), crate::sample_detail(&times)),
            ("steal_share".into(), crate::sample_detail(&steals)),
        ],
    })
}
