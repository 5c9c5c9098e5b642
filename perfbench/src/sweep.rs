//! The `sim-sweep` workload: the 80-job standard-scale sweep through
//! `run_job` + `render_report`, in an order the seed permutes, on one
//! thread. No socket is involved; the simulator layers do the work.

use std::collections::BTreeMap;
use std::time::Instant;

use hmtx_bench::{materialize, standard_sweep};
use hmtx_types::{BenchRef, JobSpec, WireParadigm, WireScale};

use crate::sim::{run_one, run_plain, Bodies, Counts, SimProfile};
use crate::stats::{median, Rng};
use crate::steal::Steal;
use crate::trace::Tracer;
use crate::{peak_rss_mb, quantile_detail, sample_detail, Args, Metrics, Outcome};

/// One sweep's results: start, end and wall time, per-job times, per-spec
/// counts.
struct Sweep {
    start: Instant,
    end: Instant,
    wall: f64,
    job_walls: Vec<f64>,
    counts: BTreeMap<String, Counts>,
    instructions: u64,
}

/// Every job's committed outputs must equal the sequential job's outputs
/// for the same workload.
fn check_outputs(outputs: &BTreeMap<String, (JobSpec, Vec<u64>)>) -> Result<(), String> {
    let seq: BTreeMap<u32, &Vec<u64>> = outputs
        .values()
        .filter(|(s, _)| s.paradigm == WireParadigm::Sequential)
        .filter_map(|(s, o)| match s.benchmark {
            BenchRef::Suite(i) => Some((i, o)),
            _ => None,
        })
        .collect();
    for (key, (spec, out)) in outputs {
        let BenchRef::Suite(i) = spec.benchmark else {
            continue;
        };
        let reference = seq
            .get(&i)
            .ok_or_else(|| format!("no sequential job for suite workload {i}"))?;
        if out != *reference {
            return Err(format!(
                "job {key} committed {} outputs that differ from the sequential job's {}",
                out.len(),
                reference.len()
            ));
        }
    }
    Ok(())
}

/// Runs every spec once; traced when `bodies` is given.
fn one_sweep(
    specs: &[JobSpec],
    args: &Args,
    bodies: Option<&Bodies>,
    tracer: &Tracer,
    group: &mut u64,
    profile: &mut SimProfile,
) -> Result<Sweep, String> {
    let mut outputs = BTreeMap::new();
    let mut counts = BTreeMap::new();
    let mut job_walls = Vec::with_capacity(specs.len());
    let mut instructions = 0;
    let t0 = Instant::now();
    for spec in specs {
        *group += 1;
        let out = run_one(spec, bodies, args.plant_job_delay, tracer, *group, profile)?;
        job_walls.push(out.wall);
        instructions += out.counts.instructions;
        counts.insert(spec.key(), out.counts);
        outputs.insert(spec.key(), (*spec, out.outputs));
    }
    let end = Instant::now();
    check_outputs(&outputs)?;
    Ok(Sweep {
        start: t0,
        end,
        wall: (end - t0).as_secs_f64(),
        job_walls,
        counts,
        instructions,
    })
}

pub fn run(args: &Args, tracer: &Tracer, steal: &Steal) -> Result<Outcome, String> {
    let mut rng = Rng::new(args.seed);
    // Set-up: build and materialize the job list and the suite's workloads,
    // and run every workload's sequential baseline once, so lazy
    // initialisation and first-touch costs are paid before timing.
    let mut setups = Vec::new();
    let mut specs = Vec::new();
    for _ in 0..crate::SETUP_REPS {
        let t0 = Instant::now();
        specs = standard_sweep(WireScale::Standard);
        for spec in &specs {
            std::hint::black_box(materialize(spec));
        }
        std::hint::black_box(Bodies::new());
        for spec in specs
            .iter()
            .filter(|s| s.paradigm == WireParadigm::Sequential)
        {
            run_plain(spec, std::time::Duration::ZERO)?;
        }
        setups.push((t0, Instant::now(), t0.elapsed().as_secs_f64()));
    }
    let setups = steal.unstarved(setups);

    let deadline = Instant::now() + args.seconds;
    let mut sweeps: Vec<Sweep> = Vec::new();
    let mut traced_sweeps: Vec<Sweep> = Vec::new();
    let mut profile = SimProfile::default();
    let bodies = tracer.enabled().then(Bodies::new);
    let mut group = 0;
    // Traced, untraced and traced sweeps alternate: the overhead of tracing
    // is their difference, with host drift hitting both alike.
    while sweeps.len() + traced_sweeps.len() < 2 || Instant::now() < deadline {
        rng.shuffle(&mut specs);
        let traced = bodies.is_some() && traced_sweeps.len() < sweeps.len();
        let sweep = one_sweep(
            &specs,
            args,
            bodies.as_ref().filter(|_| traced),
            tracer,
            &mut group,
            &mut profile,
        )?;
        if traced {
            traced_sweeps.push(sweep);
        } else {
            sweeps.push(sweep);
        }
    }

    // Exact counts must repeat from sweep to sweep.
    let all: Vec<&Sweep> = sweeps.iter().chain(traced_sweeps.iter()).collect();
    let first = all[0];
    for s in &all[1..] {
        if s.counts != first.counts {
            let key = first
                .counts
                .iter()
                .find(|(k, c)| s.counts.get(*k) != Some(c))
                .map_or("?", |(k, _)| k.as_str());
            return Err(format!(
                "nondeterministic: job {key} changed its work counts between sweeps"
            ));
        }
    }
    let mut total = Counts::default();
    for c in first.counts.values() {
        total.add(c);
    }

    let steals: Vec<f64> = sweeps.iter().map(|s| steal.share(s.start, s.end)).collect();
    let timed = steal.unstarved(sweeps.iter().map(|s| (s.start, s.end, s)).collect());
    let walls: Vec<f64> = timed.iter().map(|s| s.wall).collect();
    let job_walls: Vec<f64> = timed
        .iter()
        .flat_map(|s| s.job_walls.iter().copied())
        .collect();
    let busy: f64 = job_walls.iter().sum();
    let instructions: u64 = timed.iter().map(|s| s.instructions).sum();
    let jobs = (all.len() * specs.len()) as u64;

    let mut e2e = Metrics::new();
    e2e.insert("setup_s", median(&setups));
    e2e.insert("peak_rss_mb", peak_rss_mb(&[std::process::id()]));
    e2e.insert("ok_ratio", 1.0);
    e2e.insert("pass_s", median(&walls));
    e2e.insert("rate_per_s", instructions as f64 / busy);
    e2e.insert("p50_ms", median(&job_walls) * 1e3);

    let mut layers = Metrics::new();
    if tracer.enabled() {
        let n = traced_sweeps.len() as f64;
        profile.metrics(n, &mut layers);
        let traced_walls: Vec<f64> = traced_sweeps.iter().map(|s| s.wall).collect();
        let traced_wall = traced_walls.iter().sum::<f64>() / n;
        // The replicated set-up steps run outside `run_job`, so the layers
        // a traced sweep accounts for are `run_job` + render (`run_job`
        // splits into set-up steps and `sim.run_s`) plus those copies.
        let copies = profile.materialize + profile.construct + profile.image + profile.codegen;
        let accounted = (profile.accounted() + copies) / n;
        layers.insert("unaccounted_share", (traced_wall - accounted) / traced_wall);
        layers.insert("host.steal_share", median(&steals));
        layers.insert(
            "trace.overhead_share",
            median(&traced_walls) / median(&walls) - 1.0,
        );
    }

    Ok(Outcome {
        attempted: jobs,
        failed: 0,
        e2e,
        layers,
        counts: Some(total.fingerprint()),
        details: vec![
            ("pass_s".into(), sample_detail(&walls)),
            ("steal_share".into(), sample_detail(&steals)),
            ("p50_ms".into(), quantile_detail(&job_walls, 0.5)),
            ("job_p90_s".into(), quantile_detail(&job_walls, 0.9)),
            ("setup_s".into(), sample_detail(&setups)),
        ],
    })
}
