//! The simulator layers, driven in-process through `hmtx_bench`'s public
//! job API: `materialize` → machine construction → guest image → runtime
//! codegen → simulate (`run_job`) → `render_report`.
//!
//! Untraced, a job is exactly what the server's worker does: `run_job`
//! then `render_report(..).compact()`. Traced, the benchmark additionally
//! repeats the set-up steps `run_job` performs internally, each under its
//! own span, and takes `sim.run_s` as `run_job`'s time minus theirs.

use std::thread::sleep;
use std::time::{Duration, Instant};

use hmtx_bench::{materialize, render_report, run_job};
use hmtx_machine::Machine;
use hmtx_runtime::{build_paradigm, squeezed_config, LoopEnv, Paradigm};
use hmtx_types::{BenchRef, HytmConfig, JobSpec, SimError, WireParadigm, WireScale};
use hmtx_workloads::{suite, Scale, Workload};

use crate::trace::{SpanGuard, Tracer};
use crate::Metrics;

/// Exact work counts of one job (or a sum of jobs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub cycles: u64,
    pub instructions: u64,
    pub wrong_path: u64,
    pub mispredictions: u64,
    pub loads: u64,
    pub stores: u64,
    pub l1_hits: u64,
    pub l1_misses: u64,
    pub l2_hits: u64,
    pub peer_transfers: u64,
    pub commits: u64,
    pub aborts: u64,
    pub recoveries: u64,
    pub fast_commits: u64,
    pub slow_commits: u64,
    pub demotions: u64,
}

impl Counts {
    pub fn add(&mut self, o: &Counts) {
        self.cycles += o.cycles;
        self.instructions += o.instructions;
        self.wrong_path += o.wrong_path;
        self.mispredictions += o.mispredictions;
        self.loads += o.loads;
        self.stores += o.stores;
        self.l1_hits += o.l1_hits;
        self.l1_misses += o.l1_misses;
        self.l2_hits += o.l2_hits;
        self.peer_transfers += o.peer_transfers;
        self.commits += o.commits;
        self.aborts += o.aborts;
        self.recoveries += o.recoveries;
        self.fast_commits += o.fast_commits;
        self.slow_commits += o.slow_commits;
        self.demotions += o.demotions;
    }

    pub fn fingerprint(&self) -> String {
        format!("{self:?}")
    }
}

/// Paradigm class for the `sim.run_s` shares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Seq,
    Hmtx,
    Hytm,
}

impl Class {
    pub fn of(spec: &JobSpec) -> Class {
        match spec.paradigm {
            WireParadigm::Sequential => Class::Seq,
            WireParadigm::Hytm => Class::Hytm,
            _ => Class::Hmtx,
        }
    }
}

/// One finished job: its rendered report, committed outputs and counts.
pub struct JobOutcome {
    pub report: String,
    pub outputs: Vec<u64>,
    pub counts: Counts,
    /// `run_job` + render, seconds.
    pub wall: f64,
}

/// The benchmark's wrapper around `run_job`. `plant` is a fixed delay
/// added after every call; the comparison's self-test uses it to plant a
/// known regression, and it is zero otherwise.
fn run_job_wrapped(
    spec: &JobSpec,
    plant: Duration,
) -> Result<hmtx_bench::runner::JobResult, SimError> {
    let result = run_job(spec);
    if !plant.is_zero() {
        sleep(plant);
    }
    result
}

fn finish(result: &hmtx_bench::runner::JobResult, report: String, wall: f64) -> JobOutcome {
    let stats = result.machine.stats();
    let mem = result.machine.mem().stats();
    let (outputs, hytm) = match &result.report {
        Some(r) => (r.outputs.clone(), r.hytm.as_ref()),
        None => (result.machine.committed_output().to_vec(), None),
    };
    let counts = Counts {
        cycles: result.cycles,
        instructions: stats.instructions,
        wrong_path: stats.wrong_path_instructions,
        mispredictions: stats.mispredictions,
        loads: mem.loads,
        stores: mem.stores,
        l1_hits: mem.l1_hits,
        l1_misses: mem.l1_misses,
        l2_hits: mem.l2_hits,
        peer_transfers: mem.peer_transfers,
        commits: mem.commits,
        aborts: mem.aborts,
        recoveries: result.recoveries,
        fast_commits: hytm.map_or(0, |m| m.fast_commits),
        slow_commits: hytm.map_or(0, |m| m.slow_commits),
        demotions: hytm.map_or(0, |m| m.demotions()),
    };
    JobOutcome {
        report,
        outputs,
        counts,
        wall,
    }
}

/// Runs one job untraced: the server worker's path.
pub fn run_plain(spec: &JobSpec, plant: Duration) -> Result<JobOutcome, String> {
    let t0 = Instant::now();
    let result = run_job_wrapped(spec, plant).map_err(|e| e.to_string())?;
    let report = render_report(spec, &result).compact();
    let wall = t0.elapsed().as_secs_f64();
    Ok(finish(&result, report, wall))
}

/// Seconds per simulator layer, summed over the jobs added.
#[derive(Debug, Default, Clone)]
pub struct SimProfile {
    pub materialize: f64,
    pub construct: f64,
    pub image: f64,
    pub codegen: f64,
    pub run_job: f64,
    pub render: f64,
    pub run_by_class: [f64; 3],
    pub counts: Counts,
}

impl SimProfile {
    /// `run_job`'s self time: its span minus the set-up steps it repeats.
    pub fn run_self(&self) -> f64 {
        self.run_job - self.materialize - self.construct - self.image - self.codegen
    }

    /// Every layer time the traced job path accounts for.
    pub fn accounted(&self) -> f64 {
        self.run_job + self.render
    }

    /// Writes the simulator-layer metrics, each divided by `per` (the
    /// number of sweeps the profile covers, 1 for a set of keys).
    pub fn metrics(&self, per: f64, m: &mut Metrics) {
        let per = per.max(1.0);
        let run = self.run_self();
        m.insert("jobspec.materialize_s", self.materialize / per);
        m.insert("machine.construct_s", self.construct / per);
        m.insert("workloads.build_image_s", self.image / per);
        m.insert("runtime.codegen_s", self.codegen / per);
        m.insert("sim.run_s", run / per);
        m.insert("jobspec.render_s", self.render / per);
        let class_total: f64 = self.run_by_class.iter().sum();
        let share = |x: f64| {
            if class_total > 0.0 {
                x / class_total
            } else {
                0.0
            }
        };
        m.insert("sim.run_s.seq", share(self.run_by_class[0]));
        m.insert("sim.run_s.hmtx", share(self.run_by_class[1]));
        m.insert("sim.run_s.hytm", share(self.run_by_class[2]));
        let c = &self.counts;
        let per_count = |x: u64| x as f64 / per;
        m.insert("sim.cycles", per_count(c.cycles));
        m.insert("machine.instructions", per_count(c.instructions));
        m.insert("machine.wrong_path_instructions", per_count(c.wrong_path));
        m.insert("machine.mispredictions", per_count(c.mispredictions));
        m.insert("mem.loads", per_count(c.loads));
        m.insert("mem.stores", per_count(c.stores));
        m.insert("mem.l1_hits", per_count(c.l1_hits));
        m.insert("mem.l1_misses", per_count(c.l1_misses));
        m.insert("mem.l2_hits", per_count(c.l2_hits));
        m.insert("mem.peer_transfers", per_count(c.peer_transfers));
        m.insert("core.commits", per_count(c.commits));
        m.insert("core.aborts", per_count(c.aborts));
        m.insert("runtime.recoveries", per_count(c.recoveries));
        m.insert("hytm.fast_commits", per_count(c.fast_commits));
        m.insert("hytm.slow_commits", per_count(c.slow_commits));
        m.insert("hytm.demotions", per_count(c.demotions));
        let ratio = |a: u64, b: u64| if b > 0 { a as f64 / b as f64 } else { 0.0 };
        m.insert(
            "mem.l1_hit_ratio",
            ratio(c.l1_hits, c.l1_hits + c.l1_misses),
        );
        m.insert("core.commit_ratio", ratio(c.commits, c.commits + c.aborts));
        m.insert(
            "hytm.fast_ratio",
            ratio(c.fast_commits, c.fast_commits + c.slow_commits),
        );
        let ns = |base: u64| {
            if base > 0 {
                run * 1e9 / base as f64
            } else {
                0.0
            }
        };
        m.insert("sim.ns_per_instr", ns(c.instructions));
        m.insert("sim.ns_per_access", ns(c.loads + c.stores));
    }
}

/// The suite bodies per scale, built once per traced sweep so the
/// replicated set-up steps can reach each workload's `LoopBody`.
pub struct Bodies {
    quick: Vec<Box<dyn Workload>>,
    standard: Vec<Box<dyn Workload>>,
}

impl Bodies {
    pub fn new() -> Bodies {
        Bodies {
            quick: suite(Scale::Quick),
            standard: suite(Scale::Standard),
        }
    }

    fn get(&self, spec: &JobSpec) -> Option<&dyn Workload> {
        let BenchRef::Suite(i) = spec.benchmark else {
            return None;
        };
        let set = match spec.scale {
            WireScale::Quick => &self.quick,
            _ => &self.standard,
        };
        set.get(i as usize).map(AsRef::as_ref)
    }
}

/// Runs one job: traced through [`run_traced`] when `bodies` is given
/// (tracing is on), else through [`run_plain`].
pub fn run_one(
    spec: &JobSpec,
    bodies: Option<&Bodies>,
    plant: Duration,
    tracer: &Tracer,
    group: u64,
    profile: &mut SimProfile,
) -> Result<JobOutcome, String> {
    match bodies {
        None => run_plain(spec, plant),
        Some(b) => run_traced(spec, b, plant, tracer, group, profile),
    }
}

/// Runs `f` inside `span`; returns its value and seconds.
fn time<T>(span: SpanGuard<'_>, f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let value = f();
    let secs = t0.elapsed().as_secs_f64();
    drop(span);
    (value, secs)
}

/// Runs one job traced: the set-up steps `run_job` performs internally are
/// repeated outside it, each under its own span, then the job runs through
/// the same path as [`run_plain`]. `group` ties the job's spans together.
fn run_traced(
    spec: &JobSpec,
    bodies: &Bodies,
    plant: Duration,
    tracer: &Tracer,
    group: u64,
    profile: &mut SimProfile,
) -> Result<JobOutcome, String> {
    let body = bodies
        .get(spec)
        .ok_or_else(|| format!("spec {} is not a suite job", spec.key()))?;
    let job_span = tracer.span("job", group, 0);
    let parent = job_span.id;
    let timed = |name: &'static str| tracer.span(name, group, parent);

    let ((sim_job, base), t_mat) = time(timed("jobspec.materialize"), || materialize(spec));
    let mut cfg = sim_job.config.apply(&base);
    let class = Class::of(spec);
    let paradigm = match class {
        Class::Seq => Paradigm::Sequential,
        _ => body.meta().paradigm,
    };
    if class == Class::Hytm && !cfg.hytm.enabled {
        cfg.hytm = HytmConfig::paper_default();
    }
    let workers = match paradigm {
        Paradigm::Sequential | Paradigm::Dswp => 1,
        Paradigm::Doall | Paradigm::Doacross => cfg.num_cores,
        Paradigm::PsDswp => cfg.num_cores.saturating_sub(1).max(1),
    };
    let (run_cfg, max_vid) = squeezed_config(&cfg);
    let mut env = LoopEnv::new(max_vid, workers).with_pipeline_window(run_cfg.pipeline_window);
    if class == Class::Hytm {
        env = env.with_vid_watchdog(run_cfg.hytm.watchdog_spins);
    }
    let (machine, t_con) = time(timed("machine.construct"), || Machine::try_new(run_cfg));
    let mut machine = machine.map_err(|e| e.to_string())?;
    let ((), t_img) = time(timed("workloads.build_image"), || {
        body.build_image(&mut machine, &env);
    });
    let (generated, t_gen) = time(timed("runtime.codegen"), || {
        build_paradigm(paradigm, body, &env, 1)
    });
    generated.map_err(|e| e.to_string())?;
    drop(machine);

    let (result, t_run) = time(timed("run_job"), || run_job_wrapped(spec, plant));
    let result = result.map_err(|e| e.to_string())?;
    let (report, t_render) = time(timed("jobspec.render"), || {
        render_report(spec, &result).compact()
    });
    drop(job_span);

    let out = finish(&result, report, t_run + t_render);
    profile.materialize += t_mat;
    profile.construct += t_con;
    profile.image += t_img;
    profile.codegen += t_gen;
    profile.run_job += t_run;
    profile.render += t_render;
    let run_self = t_run - t_mat - t_con - t_img - t_gen;
    profile.run_by_class[class as usize] += run_self;
    profile.counts.add(&out.counts);
    Ok(out)
}
