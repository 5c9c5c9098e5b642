//! The serving workloads: `hmtx-router` in front of `nproc`
//! `hmtx-serve --mem-only --workers 1` backends, driven over `nproc`
//! connections (the host's core count bounds every client, connection and
//! worker count, so no workload oversubscribes the machine).
//!
//! * `serve-hot` warms the 80 quick-scale sweep keys, then measures a
//!   closed loop over them, an open loop at a fixed reference rate, and a
//!   rate ladder. No simulation runs while measuring: the work is
//!   forwarding, the poll loop, key hashing, the cache hit and the codec.
//! * `serve-mix` starts fresh servers with a small per-node memory cache
//!   and runs a seeded closed-loop stream in which ~30% of requests carry
//!   a fresh key (one no cache holds: a short simulation) and the rest
//!   repeat one of the connection's last 64 keys (a hit, unless it was
//!   evicted).

use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::thread::{scope, sleep};
use std::time::{Duration, Instant};

use hmtx_bench::standard_sweep;
use hmtx_cluster::{Ring, DEFAULT_REPLICAS};
use hmtx_server::proto::result_response;
use hmtx_server::{Client, Request};
use hmtx_types::{
    BenchRef, JobSpec, Json, StatsSnapshot, WireBase, WireParadigm, WireScale, WireVariant,
};

use crate::sim::{run_one, Bodies, SimProfile};
use crate::stats::{median, quantile, Rng};
use crate::steal::Steal;
use crate::trace::Tracer;
use crate::{peak_rss_mb, quantile_detail, sample_detail, Args, Metrics, Outcome};

/// The `serve-hot` reference rate, requests per second over all connections.
const REF_RATE: f64 = 3000.0;
/// Latency limit on a ladder step's p99. A step also fails when its send
/// backlog at the end exceeds `BACKLOG_MS`: the offered rate outran the
/// cluster. A failed step is retried once before the ladder stops, so one
/// scheduling stall on the shared host does not end the climb.
const LIMIT_MS: f64 = 10.0;
const BACKLOG_MS: f64 = 2.0;
/// Ladder rates are `LADDER_BASE * LADDER_STEP^k`: a fixed grid, so runs
/// report comparable rates.
const LADDER_BASE: f64 = 1000.0;
const LADDER_STEP: f64 = 1.06;
const LADDER_STEP_SECS: f64 = 0.5;
/// Each climb starts at this share of the closed-loop capacity; grid steps
/// that halve the rate, and the grid's floor (about 60 req/s).
const LADDER_START: f64 = 0.75;
const LADDER_HALVE: i32 = 12;
const LADDER_MIN_K: i32 = -48;
/// The open-loop generator's own wake-up lateness (p99) above which a
/// measurement is marked invalid: the generator, not the system, fell
/// behind its schedule.
const MAX_GENERATOR_LAG_MS: f64 = 2.0;
/// `serve-mix`: per-node memory-cache capacity (small enough to evict),
/// share of fresh keys in percent, per-connection repeat window, and the
/// completions per block behind `pass_s` (one block per steal window).
const MIX_MEM_CACHE: usize = 48;
const MIX_FRESH_PCT: u64 = 30;
const MIX_HISTORY: usize = 64;
const MIX_BLOCK_OPS: usize = 200;
/// At most this many fresh keys per connection are re-simulated in-process
/// to check the served bytes.
const MIX_SAMPLES_PER_CONN: usize = 48;

/// Span groups of client requests: one range per loop, then the
/// connection and the request's number on it.
const PASS_GROUPS: u64 = 1 << 56;
const OPEN_LOOP_GROUPS: u64 = 2 << 56;
const MIX_GROUPS: u64 = 3 << 56;

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

struct Proc {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    addr: String,
}

fn spawn(bin: &Path, args: &[String]) -> Result<Proc, String> {
    let mut child = Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("starting {}: {e}", bin.display()))?;
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
    let mut line = String::new();
    let read = stdout.read_line(&mut line);
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .map(str::to_string);
    match (read, addr) {
        (Ok(_), Some(addr)) => Ok(Proc {
            child,
            _stdout: stdout,
            addr,
        }),
        _ => {
            let _ = child.kill();
            let _ = child.wait();
            Err(format!("{} did not report its address", bin.display()))
        }
    }
}

/// A router and its backends; every process is killed and reaped on drop.
struct Cluster {
    backends: Vec<Proc>,
    router: Option<Proc>,
}

impl Cluster {
    fn start(args: &Args, mem_cache: Option<usize>) -> Result<Cluster, String> {
        let serve = args.serve_bin.as_deref().ok_or("--serve-bin is required")?;
        let router = args
            .router_bin
            .as_deref()
            .ok_or("--router-bin is required")?;
        let mut cluster = Cluster {
            backends: Vec::new(),
            router: None,
        };
        for _ in 0..nproc() {
            let mut a: Vec<String> = ["--addr", "127.0.0.1:0", "--workers", "1", "--mem-only"]
                .map(String::from)
                .to_vec();
            if let Some(n) = mem_cache {
                a.extend(["--mem-cache".into(), n.to_string()]);
            }
            cluster.backends.push(spawn(serve, &a)?);
        }
        let list = cluster.backend_addrs().join(",");
        cluster.router = Some(spawn(
            router,
            &[
                "--addr".into(),
                "127.0.0.1:0".into(),
                "--backends".into(),
                list,
            ],
        )?);
        Ok(cluster)
    }

    fn addr(&self) -> &str {
        &self.router.as_ref().expect("router started").addr
    }

    fn backend_addrs(&self) -> Vec<String> {
        self.backends.iter().map(|b| b.addr.clone()).collect()
    }

    fn pids(&self) -> Vec<u32> {
        self.backends
            .iter()
            .chain(self.router.iter())
            .map(|p| p.child.id())
            .collect()
    }

    /// The router's `cluster` frame: aggregate backend stats and the
    /// router's own counters.
    fn counters(&self) -> Result<(StatsSnapshot, [u64; 3]), String> {
        let mut c = Client::connect(self.addr()).map_err(|e| e.to_string())?;
        let bytes = c.request(&Request::Cluster).map_err(|e| e.to_string())?;
        let text = String::from_utf8_lossy(&bytes);
        let v = Json::parse(&text).map_err(|e| e.to_string())?;
        let agg = v.get("aggregate").ok_or("cluster frame has no aggregate")?;
        let agg = StatsSnapshot::from_json(agg).map_err(|e| e.to_string())?;
        let r = v.get("router").ok_or("cluster frame has no router block")?;
        let n = |k: &str| r.get(k).and_then(Json::as_u64).unwrap_or(0);
        Ok((agg, [n("forwarded"), n("failovers"), n("retry_rounds")]))
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        for p in self.backends.iter_mut().chain(self.router.iter_mut()) {
            let _ = p.child.kill();
            let _ = p.child.wait();
        }
    }
}

/// One prepared request: its spec, content key and request bytes.
#[derive(Clone)]
struct Job {
    spec: JobSpec,
    key: String,
    payload: Vec<u8>,
}

impl Job {
    fn new(spec: JobSpec) -> Job {
        Job {
            key: spec.key(),
            payload: Request::Job {
                spec,
                deadline_ms: None,
            }
            .to_bytes(),
            spec,
        }
    }
}

/// A client connection through the benchmark's request wrapper. `plant`
/// is a per-request delay for the comparison's self-test, zero otherwise.
struct Conn {
    client: Client,
    plant: Duration,
}

impl Conn {
    fn open(addr: &str, plant: Duration) -> Result<Conn, String> {
        let client = Client::connect(addr).map_err(|e| format!("connecting {addr}: {e}"))?;
        Ok(Conn { client, plant })
    }

    fn call(&mut self, payload: &[u8]) -> Result<Vec<u8>, String> {
        if !self.plant.is_zero() {
            sleep(self.plant);
        }
        self.client.request_raw(payload).map_err(|e| e.to_string())
    }
}

/// Whether `resp` is a result: `busy` (the admission queue was full) is a
/// refused operation, and any other reply to a job is a wrong output.
fn served(resp: &[u8], key: &str) -> Result<bool, String> {
    if resp.starts_with(br#"{"type":"result""#) {
        Ok(true)
    } else if resp.starts_with(br#"{"type":"busy""#) {
        Ok(false)
    } else {
        let head = String::from_utf8_lossy(&resp[..resp.len().min(120)]).into_owned();
        Err(format!("job {key} was answered `{head}`"))
    }
}

/// Checks one response against the expected bytes: a result must be
/// byte-identical to them; see [`served`] for the other replies.
fn check(resp: &[u8], expected: &[u8], key: &str) -> Result<bool, String> {
    if !served(resp, key)? {
        return Ok(false);
    }
    if resp != expected {
        return Err(format!(
            "response for {key} is not byte-identical to the in-process report ({} vs {} bytes)",
            resp.len(),
            expected.len()
        ));
    }
    Ok(true)
}

/// [`check`] for a key the cluster holds in memory: a hit never waits for
/// a worker, so even `busy` is a defect.
fn check_hit(resp: &[u8], expected: &[u8], key: &str) -> Result<(), String> {
    if check(resp, expected, key)? {
        Ok(())
    } else {
        Err(format!("warm key {key} was refused"))
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The in-process reference response for each job; traced, the jobs run
/// through the layer-by-layer path and fill `profile`.
fn expected_responses(
    jobs: &[Job],
    tracer: &Tracer,
    profile: &mut SimProfile,
) -> Result<HashMap<String, Vec<u8>>, String> {
    let bodies = tracer.enabled().then(Bodies::new);
    let mut out = HashMap::new();
    for (i, job) in jobs.iter().enumerate() {
        let group = 1_000_000 + i as u64;
        let o = run_one(
            &job.spec,
            bodies.as_ref(),
            Duration::ZERO,
            tracer,
            group,
            profile,
        )?;
        out.insert(
            job.key.clone(),
            result_response(&job.key, o.report.as_bytes()),
        );
    }
    Ok(out)
}

/// Samples of one open-loop phase.
#[derive(Default)]
struct OpenLoop {
    /// (scheduled send, completion, response time from the *scheduled*
    /// send in ms): no coordinated omission, a stall delays later sends and
    /// is charged to them.
    latency: Vec<(Instant, Instant, f64)>,
    /// The generator's own lateness waking for an idle connection, ms.
    lag: Vec<f64>,
    /// Median send lateness over the phase's last tenth, ms: a growing
    /// backlog shows here.
    backlog_ms: f64,
    attempted: u64,
    failed: u64,
}

/// Runs an open loop at `rate` for `secs`; with `tracer`, each request
/// runs inside a span.
#[allow(clippy::too_many_arguments)]
fn open_loop(
    addr: &str,
    jobs: &[Job],
    expected: &HashMap<String, Vec<u8>>,
    rate: f64,
    secs: f64,
    seed: u64,
    plant: Duration,
    tracer: Option<&Tracer>,
) -> Result<OpenLoop, String> {
    let n = nproc();
    let start = Instant::now() + Duration::from_millis(2);
    let per_conn = ((rate * secs) / n as f64).floor().max(1.0) as usize;
    let results: Vec<Result<(OpenLoop, Vec<f64>), String>> = scope(|s| {
        let handles: Vec<_> = (0..n)
            .map(|c| {
                s.spawn(move || -> Result<(OpenLoop, Vec<f64>), String> {
                    let mut conn = Conn::open(addr, plant)?;
                    let mut rng = Rng::new(seed ^ (c as u64 + 1).wrapping_mul(0x9e37));
                    let mut out = OpenLoop::default();
                    let mut lateness = Vec::with_capacity(per_conn);
                    let mut prev_done = start;
                    for i in 0..per_conn {
                        let due = start + Duration::from_secs_f64((i * n + c) as f64 / rate);
                        let now = Instant::now();
                        if now < due {
                            sleep(due - now);
                        }
                        let sent = Instant::now();
                        out.lag
                            .push(ms(sent.saturating_duration_since(due.max(prev_done))));
                        lateness.push(ms(sent.saturating_duration_since(due)));
                        let job = &jobs[rng.below(jobs.len() as u64) as usize];
                        let group = OPEN_LOOP_GROUPS | (c as u64) << 32 | i as u64;
                        let span = tracer.map(|t| t.span("client.open_loop_request", group, 0));
                        let resp = conn.call(&job.payload)?;
                        drop(span);
                        let done = Instant::now();
                        prev_done = done;
                        out.attempted += 1;
                        if !check(&resp, &expected[&job.key], &job.key)? {
                            out.failed += 1;
                        }
                        out.latency
                            .push((due, done, ms(done.saturating_duration_since(due))));
                    }
                    Ok((out, lateness))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("open-loop client thread panicked"))
            .collect()
    });
    let mut total = OpenLoop::default();
    let mut tails = Vec::new();
    for r in results {
        let (o, lateness) = r?;
        let tail = lateness.len() - lateness.len() / 10;
        tails.extend_from_slice(&lateness[tail.min(lateness.len().saturating_sub(1))..]);
        total.latency.extend(o.latency);
        total.lag.extend(o.lag);
        total.attempted += o.attempted;
        total.failed += o.failed;
    }
    total.backlog_ms = median(&tails);
    Ok(total)
}

/// One climb's context: the target, the request mix, and where step
/// records and operation counts go.
struct Ladder<'a> {
    addr: &'a str,
    jobs: &'a [Job],
    expected: &'a HashMap<String, Vec<u8>>,
    seed: u64,
    plant: Duration,
    steps: &'a mut Vec<String>,
    attempted: u64,
    failed: u64,
}

impl Ladder<'_> {
    /// Climbs the rate grid from step `k` and returns the highest rate
    /// that met the limit, or `None` if even the grid's floor missed it or
    /// time ran out first. A failed step is retried once; a failure before
    /// any success halves the rate instead. Gives up at `until`.
    fn climb(&mut self, mut k: i32, until: Instant) -> Result<Option<f64>, String> {
        let mut max_rps = None;
        let mut retried = false;
        loop {
            let rate = LADDER_BASE * LADDER_STEP.powi(k);
            let seed = self.seed ^ ((k as u64) << 1 | u64::from(retried));
            let step = open_loop(
                self.addr,
                self.jobs,
                self.expected,
                rate,
                LADDER_STEP_SECS,
                seed,
                self.plant,
                None,
            )?;
            self.attempted += step.attempted;
            self.failed += step.failed;
            let latency: Vec<f64> = step.latency.iter().map(|l| l.2).collect();
            let p99 = quantile(&latency, 0.99).map_or(f64::INFINITY, |q| q.value);
            // A refused request misses the limit.
            let ok = step.failed == 0 && p99 <= LIMIT_MS && step.backlog_ms <= BACKLOG_MS;
            self.steps.push(format!(
                r#"{{"rate":{},"p99_ms":{},"backlog_ms":{},"ok":{ok}}}"#,
                crate::num(rate),
                crate::num(p99),
                crate::num(step.backlog_ms),
            ));
            if ok {
                max_rps = Some(rate);
            }
            if Instant::now() >= until {
                return Ok(max_rps);
            }
            if ok {
                k += 1;
                retried = false;
            } else if !retried {
                retried = true;
            } else if max_rps.is_some() || k == LADDER_MIN_K {
                return Ok(max_rps);
            } else {
                k = (k - LADDER_HALVE).max(LADDER_MIN_K);
                retried = false;
            }
        }
    }
}

/// Samples with the interval each covers: (start, end, value).
type Samples = Vec<(Instant, Instant, f64)>;

/// Closed loop over the hot keys until `until`: every connection walks all
/// of them in its own seeded order, again and again, with no barrier, so a
/// stall on one connection does not idle the others; with `tracer`, each
/// request runs inside a span. Every reply must be the key's expected
/// result. Returns each request's send, completion and latency in ms.
fn hot_loop(
    addr: &str,
    jobs: &[Job],
    expected: &HashMap<String, Vec<u8>>,
    until: Instant,
    seed: u64,
    plant: Duration,
    tracer: Option<&Tracer>,
) -> Result<Samples, String> {
    let n = nproc();
    let results: Vec<Result<Samples, String>> = scope(|s| {
        let handles: Vec<_> = (0..n)
            .map(|c| {
                s.spawn(move || -> Result<Samples, String> {
                    let mut conn = Conn::open(addr, plant)?;
                    let mut rng = Rng::new(seed ^ (c as u64 + 1).wrapping_mul(0x51_7cc1));
                    let mut order: Vec<usize> = (0..jobs.len()).collect();
                    let mut requests = Vec::new();
                    while Instant::now() < until {
                        rng.shuffle(&mut order);
                        for &j in &order {
                            let job = &jobs[j];
                            let group = PASS_GROUPS | (c as u64) << 32 | requests.len() as u64;
                            let span = tracer.map(|t| t.span("client.request", group, 0));
                            let sent = Instant::now();
                            let resp = conn.call(&job.payload)?;
                            let done = Instant::now();
                            drop(span);
                            requests.push((sent, done, ms(done - sent)));
                            check_hit(&resp, &expected[&job.key], &job.key)?;
                        }
                    }
                    Ok(requests)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop client thread panicked"))
            .collect()
    });
    let mut requests = Vec::new();
    for r in results {
        requests.extend(r?);
    }
    Ok(requests)
}

/// Throughput over the unstarved steal windows from `start` to `end`: the
/// seconds per `block` completions in each window, and the completions per
/// second over all of them.
fn window_rates(
    steal: &Steal,
    start: Instant,
    end: Instant,
    mut done_at: Vec<Instant>,
    block: usize,
) -> (Vec<f64>, f64) {
    let windows = steal.unstarved(
        steal
            .windows(start, end)
            .into_iter()
            .map(|w| (w.0, w.1, (w.0, w.1)))
            .collect(),
    );
    done_at.sort();
    let done_in = |(a, b): &(Instant, Instant)| {
        done_at.partition_point(|t| t < b) - done_at.partition_point(|t| t < a)
    };
    let blocks = windows
        .iter()
        .map(|w| (w.1 - w.0).as_secs_f64() * block as f64 / done_in(w).max(1) as f64)
        .collect();
    let done: usize = windows.iter().map(done_in).sum();
    let secs: f64 = windows.iter().map(|w| (w.1 - w.0).as_secs_f64()).sum();
    (blocks, done as f64 / secs)
}

/// Latencies (ms) of the same requests sent through the router and
/// directly to each key's home backend, and of pings.
struct Replay {
    routed: Vec<f64>,
    direct: Vec<f64>,
    ping: Vec<f64>,
}

/// Closed-loop replay of `jobs` through the router, directly to each key's
/// home backend, and as pings, interleaved block by block until `until`.
fn replay(cluster: &Cluster, jobs: &[Job], until: Instant) -> Result<Replay, String> {
    let addrs = cluster.backend_addrs();
    let ring = Ring::new(&addrs, DEFAULT_REPLICAS);
    let mut routed_conn = Conn::open(cluster.addr(), Duration::ZERO)?;
    let mut direct: Vec<Conn> = addrs
        .iter()
        .map(|a| Conn::open(a, Duration::ZERO))
        .collect::<Result<_, _>>()?;
    let ping = Request::Ping.to_bytes();
    let (mut r, mut d, mut p) = (Vec::new(), Vec::new(), Vec::new());
    let timed = |conn: &mut Conn, payload: &[u8]| -> Result<f64, String> {
        let t0 = Instant::now();
        let resp = conn.call(payload)?;
        let t = ms(t0.elapsed());
        if resp.starts_with(br#"{"type":"busy""#) || resp.starts_with(br#"{"type":"error""#) {
            return Err("replay request was refused".into());
        }
        Ok(t)
    };
    // One untimed round first, so every replayed key is a cache hit.
    for job in jobs {
        timed(&mut routed_conn, &job.payload)?;
    }
    while r.is_empty() || Instant::now() < until {
        for job in jobs {
            r.push(timed(&mut routed_conn, &job.payload)?);
        }
        for job in jobs {
            let home = ring.home(&job.key);
            d.push(timed(&mut direct[home], &job.payload)?);
        }
        for i in 0..jobs.len() {
            let b = i % direct.len();
            p.push(timed(&mut direct[b], &ping)?);
        }
    }
    Ok(Replay {
        routed: r,
        direct: d,
        ping: p,
    })
}

/// Per-call cost of `JobSpec::key` and `Request::parse` over `jobs`, µs.
fn key_and_parse_us(jobs: &[Job]) -> (f64, f64) {
    let per_call = |f: &dyn Fn(&Job)| {
        let mut samples = Vec::new();
        for _ in 0..15 {
            let t0 = Instant::now();
            for job in jobs {
                f(job);
            }
            samples.push(t0.elapsed().as_secs_f64() * 1e6 / jobs.len() as f64);
        }
        median(&samples)
    };
    let key = per_call(&|j| {
        std::hint::black_box(j.spec.key());
    });
    let parse = per_call(&|j| {
        std::hint::black_box(Request::parse(&j.payload).expect("request bytes parse"));
    });
    (key, parse)
}

/// Requests every job once over `nproc` connections; each reply must be
/// the job's expected result.
fn warm(
    cluster: &Cluster,
    jobs: &[Job],
    expected: &HashMap<String, Vec<u8>>,
) -> Result<(), String> {
    let n = nproc();
    let addr = cluster.addr();
    let results: Vec<Result<(), String>> = scope(|s| {
        let handles: Vec<_> = (0..n)
            .map(|c| {
                s.spawn(move || -> Result<(), String> {
                    let mut conn = Conn::open(addr, Duration::ZERO)?;
                    for job in jobs.iter().skip(c).step_by(n) {
                        let resp = conn.call(&job.payload)?;
                        if !check(&resp, &expected[&job.key], &job.key)? {
                            return Err(format!("warming {} was refused", job.key));
                        }
                    }
                    Ok(())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("warm thread panicked"))
            .collect()
    });
    results.into_iter().collect()
}

/// Starts a cluster `SETUP_REPS` times, running `warm` on each, and keeps
/// the last one; returns it with the seconds of the set-ups the host did
/// not starve.
fn setup_cluster(
    args: &Args,
    steal: &Steal,
    mem_cache: Option<usize>,
    mut warm: impl FnMut(&Cluster) -> Result<(), String>,
) -> Result<(Cluster, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..crate::SETUP_REPS {
        drop(last.take());
        let t0 = Instant::now();
        let cluster = Cluster::start(args, mem_cache)?;
        warm(&cluster)?;
        times.push((t0, Instant::now(), t0.elapsed().as_secs_f64()));
        last = Some(cluster);
    }
    Ok((last.expect("at least one set-up"), steal.unstarved(times)))
}

/// Serving-layer counters as deltas between two `cluster` frames;
/// returns the server misses.
fn counter_metrics(
    before: &(StatsSnapshot, [u64; 3]),
    after: &(StatsSnapshot, [u64; 3]),
    m: &mut Metrics,
) -> u64 {
    let d = |f: fn(&StatsSnapshot) -> u64| f(&after.0) - f(&before.0);
    m.insert("router.forwarded", (after.1[0] - before.1[0]) as f64);
    m.insert("router.failovers", (after.1[1] - before.1[1]) as f64);
    m.insert("router.retry_rounds", (after.1[2] - before.1[2]) as f64);
    m.insert("serve.mem_hits", d(|s| s.mem_hits) as f64);
    m.insert("serve.misses", d(|s| s.misses) as f64);
    m.insert("serve.executed", d(|s| s.executed) as f64);
    m.insert("serve.coalesced_hits", d(|s| s.coalesced_hits) as f64);
    m.insert("serve.rejected_busy", d(|s| s.rejected_busy) as f64);
    m.insert("serve.errors", d(|s| s.errors) as f64);
    let requests = d(|s| s.job_requests);
    if requests > 0 {
        m.insert(
            "serve.hit_ratio",
            d(|s| s.mem_hits) as f64 / requests as f64,
        );
    }
    d(|s| s.misses)
}

/// Router, server and network self times from a replay, plus the key and
/// parse costs; returns the part of `p50` the layers account for.
fn layer_times(cluster: &Cluster, jobs: &[Job], secs: f64, m: &mut Metrics) -> Result<f64, String> {
    let rep = replay(
        cluster,
        jobs,
        Instant::now() + Duration::from_secs_f64(secs),
    )?;
    let (r, d, p) = (median(&rep.routed), median(&rep.direct), median(&rep.ping));
    m.insert("router.self_ms", r - d);
    m.insert("serve.self_ms", d - p);
    m.insert("net.ping_ms", p);
    let (key, parse) = key_and_parse_us(jobs);
    m.insert("types.key_us", key);
    m.insert("proto.parse_us", parse);
    Ok(r)
}

/// The 80 quick-scale sweep keys.
fn sweep_jobs() -> Vec<Job> {
    standard_sweep(WireScale::Quick)
        .into_iter()
        .map(Job::new)
        .collect()
}

pub fn run_hot(args: &Args, tracer: &Tracer, steal: &Steal) -> Result<Outcome, String> {
    let jobs = sweep_jobs();
    let mut profile = SimProfile::default();
    let expected = expected_responses(&jobs, tracer, &mut profile)?;

    let (cluster, setups) = setup_cluster(args, steal, None, |c| warm(c, &jobs, &expected))?;
    let addr = cluster.addr().to_string();
    let secs = args.seconds.as_secs_f64();
    let plant = args.plant_request_delay;

    let mut e2e = Metrics::new();
    let mut layers = Metrics::new();
    let mut details = vec![("setup_s".to_string(), sample_detail(&setups))];

    // The end-to-end figures come from a closed loop: an open loop on a
    // shared two-CPU host swings by 100x when the hypervisor withholds CPU,
    // a closed loop only by the CPU share lost.
    let measured = Instant::now();
    let pass_secs = if tracer.enabled() { 0.15 } else { 1.0 } * secs;
    let until = measured + Duration::from_secs_f64(pass_secs);
    let requests = hot_loop(&addr, &jobs, &expected, until, args.seed, plant, None)?;
    let done_at = requests.iter().map(|r| r.1).collect();
    let (passes, rate) = window_rates(steal, measured, Instant::now(), done_at, jobs.len());
    let mut attempted = requests.len() as u64;
    let latencies = steal.unstarved(requests);
    e2e.insert("pass_s", median(&passes));
    e2e.insert("rate_per_s", rate);
    e2e.insert("p50_ms", median(&latencies));
    details.push(("pass_s".into(), sample_detail(&passes)));
    details.push(("p50_ms".into(), quantile_detail(&latencies, 0.5)));
    details.push(("p99_ms".into(), quantile_detail(&latencies, 0.99)));
    details.push((
        "pass_steal_share".into(),
        crate::num(steal.share(measured, until)),
    ));

    let mut failed = 0;
    if tracer.enabled() {
        // The same loop with a span around every request.
        let until = Instant::now() + Duration::from_secs_f64(pass_secs);
        let traced = hot_loop(
            &addr,
            &jobs,
            &expected,
            until,
            args.seed,
            plant,
            Some(tracer),
        )?;
        attempted += traced.len() as u64;
        let traced_lat = steal.unstarved(traced);
        layers.insert(
            "trace.overhead_share",
            median(&traced_lat) / median(&latencies) - 1.0,
        );

        // Open loop at the reference rate, timed from each request's
        // scheduled send.
        let before = cluster.counters()?;
        let reference = open_loop(
            &addr,
            &jobs,
            &expected,
            REF_RATE,
            secs * 0.25,
            args.seed,
            plant,
            Some(tracer),
        )?;
        attempted += reference.attempted;
        failed += reference.failed;
        let after = cluster.counters()?;
        counter_metrics(&before, &after, &mut layers);
        let ref_latency = steal.unstarved(reference.latency);
        let lag = quantile(&reference.lag, 0.99).map_or(0.0, |q| q.value);
        let q = |p| quantile(&ref_latency, p).map_or(0.0, |q| q.value);
        layers.insert("client.ref_p50_ms", q(0.5));
        layers.insert("client.p99_ms", q(0.99));
        layers.insert("client.p999_ms", q(0.999));
        layers.insert("client.lag_p99_ms", lag);
        layers.insert("client.hit_p50_ms", median(&latencies));
        details.push(("client.p99_ms".into(), quantile_detail(&ref_latency, 0.99)));
        details.push((
            "client.p999_ms".into(),
            quantile_detail(&ref_latency, 0.999),
        ));

        let routed = layer_times(&cluster, &jobs, secs * 0.15, &mut layers)?;
        profile.metrics(1.0, &mut layers);
        let p50 = median(&latencies);
        layers.insert("unaccounted_share", (p50 - routed) / p50);

        // Rate ladder on a fixed grid, climbed repeatedly from below the
        // closed-loop capacity; `client.max_rps` is the median of the climbs.
        let k0 = ((rate * LADDER_START / LADDER_BASE).ln() / LADDER_STEP.ln())
            .floor()
            .max(f64::from(LADDER_MIN_K)) as i32;
        let ladder_end = Instant::now() + Duration::from_secs_f64(secs * 0.3);
        // A climb that starts in time may finish a few steps late.
        let hard_end = ladder_end + Duration::from_secs_f64(6.0 * LADDER_STEP_SECS);
        let mut climbs = Vec::new();
        let mut steps = Vec::new();
        while climbs.is_empty() && Instant::now() < hard_end
            || Instant::now() + Duration::from_secs_f64(4.0 * LADDER_STEP_SECS) <= ladder_end
        {
            let mut ctx = Ladder {
                addr: &addr,
                jobs: &jobs,
                expected: &expected,
                seed: args.seed ^ (steps.len() as u64) << 32,
                plant,
                steps: &mut steps,
                attempted: 0,
                failed: 0,
            };
            let best = ctx.climb(k0, hard_end)?;
            attempted += ctx.attempted;
            failed += ctx.failed;
            climbs.extend(best);
        }
        // No rate met the limit: the grid's floor stands in, and the run
        // is marked invalid.
        let floor_missed = climbs.is_empty();
        if floor_missed {
            climbs.push(LADDER_BASE * LADDER_STEP.powi(LADDER_MIN_K));
        }
        layers.insert("client.max_rps", median(&climbs));
        layers.insert("host.steal_share", steal.share(measured, Instant::now()));
        let valid =
            lag <= MAX_GENERATOR_LAG_MS && reference.backlog_ms <= BACKLOG_MS && !floor_missed;
        details.push((
            "generator".into(),
            format!(
                r#"{{"lag_p99_ms":{},"backlog_ms":{},"floor_missed":{floor_missed},"valid":{valid}}}"#,
                crate::num(lag),
                crate::num(reference.backlog_ms),
            ),
        ));
        details.push(("ladder".into(), format!("[{}]", steps.join(","))));
        details.push(("client.max_rps".into(), sample_detail(&climbs)));
        if !valid {
            eprintln!(
                "hmtx-perfbench: serve-hot: INVALID open-loop measurement: generator lag p99 \
                 {lag:.3} ms, backlog {:.3} ms at the reference rate, ladder floor missed: \
                 {floor_missed}",
                reference.backlog_ms
            );
        }
    }

    e2e.insert("setup_s", median(&setups));
    e2e.insert("peak_rss_mb", peak_rss_mb(&cluster.pids()));
    e2e.insert(
        "ok_ratio",
        (attempted - failed) as f64 / attempted.max(1) as f64,
    );
    drop(cluster);
    Ok(Outcome {
        attempted,
        failed,
        e2e,
        layers,
        counts: None,
        details,
    })
}

/// Queue latencies fresh keys draw from, so every seed samples the same
/// range; a quick-scale job's host cost is flat across it.
const FRESH_LATENCIES: u64 = 2048;
/// Distinct fresh keys: every suite workload under every queue latency.
/// The key stream cycles through them, so it never runs out; a key comes
/// round again only after `FRESH_POOL - 1` other fresh keys, long after
/// the cluster's memory caches (`MIX_MEM_CACHE` per node) evicted it, so
/// it is a miss again.
const FRESH_POOL: u64 = 8 * FRESH_LATENCIES;

/// The seeded order in which fresh keys take queue latencies.
fn latency_order(seed: u64) -> Vec<u64> {
    let mut order: Vec<u64> = (1..=FRESH_LATENCIES).collect();
    Rng::new(seed ^ 0x01a7_e4c9).shuffle(&mut order);
    order
}

/// The `k`-th fresh key of a run: a suite workload under a queue-latency
/// variant, the same for `k` and `k + FRESH_POOL`.
fn fresh_spec(order: &[u64], seed: u64, k: u64) -> JobSpec {
    let k = k % FRESH_POOL;
    let block = k / 8;
    let mut perm: Vec<u32> = (0..8).collect();
    Rng::new(seed ^ block.wrapping_mul(0x2545_f491)).shuffle(&mut perm);
    JobSpec {
        benchmark: BenchRef::Suite(perm[(k % 8) as usize]),
        paradigm: WireParadigm::Paper,
        scale: WireScale::Quick,
        base: WireBase::Test,
        variant: WireVariant::QueueLatency(order[block as usize]),
        fault: None,
    }
}

/// One closed-loop client's record.
#[derive(Default)]
struct MixConn {
    /// (send, completion, latency ms, fresh key?)
    ops: Vec<(Instant, Instant, f64, bool)>,
    failed: u64,
    /// Fresh keys sent; the connection's next phase continues after them.
    fresh: u64,
    /// Sampled fresh keys and the bytes served for them.
    sampled: Vec<(Job, Vec<u8>)>,
}

/// One `serve-mix` phase's parameters, shared by its clients.
#[derive(Clone, Copy)]
struct MixPhase<'a> {
    addr: &'a str,
    seed: u64,
    phase: u64,
    until: Instant,
    plant: Duration,
    tracer: Option<&'a Tracer>,
}

/// Connection `c` of `n`: its `i`-th fresh key is the stream's
/// `(first + i) * n + c`-th.
fn mix_client(p: MixPhase<'_>, c: usize, n: usize, first: u64) -> Result<MixConn, String> {
    let mut conn = Conn::open(p.addr, p.plant)?;
    let order = latency_order(p.seed);
    let mut rng = Rng::new(p.seed ^ (0xc0ffee + c as u64) ^ (p.phase << 40));
    let mut history: VecDeque<(Job, Vec<u8>)> = VecDeque::with_capacity(MIX_HISTORY);
    let mut out = MixConn::default();
    while Instant::now() < p.until {
        let fresh = history.is_empty() || rng.below(100) < MIX_FRESH_PCT;
        let group = MIX_GROUPS | (c as u64) << 32 | out.ops.len() as u64;
        let span = p.tracer.map(|t| t.span("client.request", group, 0));
        let t0 = Instant::now();
        if fresh {
            let k = (first + out.fresh) * n as u64 + c as u64;
            let job = Job::new(fresh_spec(&order, p.seed, k));
            out.fresh += 1;
            let resp = conn.call(&job.payload)?;
            let done = Instant::now();
            drop(span);
            out.ops.push((t0, done, ms(done - t0), true));
            if !served(&resp, &job.key)? {
                out.failed += 1;
                continue;
            }
            if out.sampled.len() < MIX_SAMPLES_PER_CONN && rng.below(8) == 0 {
                out.sampled.push((job.clone(), resp.clone()));
            }
            if history.len() == MIX_HISTORY {
                history.pop_front();
            }
            history.push_back((job, resp));
        } else {
            let (job, first) = &history[rng.below(history.len() as u64) as usize];
            let resp = conn.call(&job.payload)?;
            let done = Instant::now();
            drop(span);
            out.ops.push((t0, done, ms(done - t0), false));
            if !check(&resp, first, &job.key)? {
                out.failed += 1;
            }
        }
    }
    Ok(out)
}

/// Runs every client until `p.until`; connection `c` starts at its
/// `first[c]`-th fresh key.
fn mix_phase(p: MixPhase<'_>, first: &[u64]) -> Result<Vec<MixConn>, String> {
    let n = nproc();
    let results: Vec<Result<MixConn, String>> = scope(|s| {
        let handles: Vec<_> = (0..n)
            .map(|c| s.spawn(move || mix_client(p, c, n, first[c])))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("mix client thread panicked"))
            .collect()
    });
    results.into_iter().collect()
}

/// Latencies (ms) of the unstarved hits and misses among `conns`' requests.
fn hits_and_misses(conns: &[MixConn], steal: &Steal) -> (Vec<f64>, Vec<f64>) {
    let ops: Vec<_> = conns
        .iter()
        .flat_map(|c| c.ops.iter().map(|o| (o.0, o.1, (o.2, o.3))))
        .collect();
    let timed = steal.unstarved(ops);
    let pick = |fresh| timed.iter().filter(|o| o.1 == fresh).map(|o| o.0).collect();
    (pick(false), pick(true))
}

pub fn run_mix(args: &Args, tracer: &Tracer, steal: &Steal) -> Result<Outcome, String> {
    let n = nproc();
    if FRESH_POOL < 4 * (MIX_MEM_CACHE * n) as u64 {
        return Err(format!(
            "{n} nodes cache too many keys for the {FRESH_POOL}-key fresh pool to stay fresh"
        ));
    }
    // Set-up: a fresh cluster simulates the 80 quick-scale sweep keys (no
    // queue-latency variant among them, so none is a fresh key).
    let setup_jobs = sweep_jobs();
    let setup_expected =
        expected_responses(&setup_jobs, &Tracer::new(false), &mut SimProfile::default())?;
    let (cluster, setups) = setup_cluster(args, steal, Some(MIX_MEM_CACHE), |cluster| {
        warm(cluster, &setup_jobs, &setup_expected)
    })?;
    let addr = cluster.addr().to_string();
    let secs = args.seconds.as_secs_f64();
    let phase = |phase, secs, tracer| MixPhase {
        addr: &addr,
        seed: args.seed,
        phase,
        until: Instant::now() + Duration::from_secs_f64(secs),
        plant: args.plant_request_delay,
        tracer,
    };
    // Traced, an untraced half runs first and the traced half is compared
    // against it; the counters cover the measured (last) phase only.
    let mut first = vec![0; n];
    let plain = if tracer.enabled() {
        let conns = mix_phase(phase(1, secs * 0.5, None), &first)?;
        first = conns.iter().map(|c| c.fresh).collect();
        Some(conns)
    } else {
        None
    };
    let phase_secs = if plain.is_some() { secs * 0.5 } else { secs };
    let before = cluster.counters()?;
    let start = Instant::now();
    let traced = tracer.enabled().then_some(tracer);
    let conns = mix_phase(phase(0, phase_secs, traced), &first)?;
    let end = Instant::now();
    let after = cluster.counters()?;
    let rss = peak_rss_mb(&cluster.pids());

    let (hits, misses) = hits_and_misses(&conns, steal);
    let all: Vec<f64> = hits.iter().chain(misses.iter()).copied().collect();
    let done_at: Vec<Instant> = conns
        .iter()
        .flat_map(|c| c.ops.iter().map(|o| o.1))
        .collect();
    let mut attempted = done_at.len() as u64;
    let (blocks, rate) = window_rates(steal, start, end, done_at, MIX_BLOCK_OPS);
    let mut failed: u64 = conns.iter().map(|c| c.failed).sum();
    let fresh: u64 = conns.iter().map(|c| c.fresh).sum();
    if let Some(plain) = &plain {
        attempted += plain.iter().map(|c| c.ops.len() as u64).sum::<u64>();
        failed += plain.iter().map(|c| c.failed).sum::<u64>();
    }

    // Served bytes of sampled fresh keys must equal an in-process run.
    let mut profile = SimProfile::default();
    let bodies = tracer.enabled().then(Bodies::new);
    let mut inproc = Vec::new();
    for (i, (job, served)) in conns.iter().flat_map(|c| c.sampled.iter()).enumerate() {
        let group = 3_000_000 + i as u64;
        let o = run_one(
            &job.spec,
            bodies.as_ref(),
            Duration::ZERO,
            tracer,
            group,
            &mut profile,
        )?;
        inproc.push(o.wall * 1e3);
        let expected = result_response(&job.key, o.report.as_bytes());
        check(served, &expected, &job.key)?;
    }

    let mut e2e = Metrics::new();
    e2e.insert("setup_s", median(&setups));
    e2e.insert("peak_rss_mb", rss);
    e2e.insert(
        "ok_ratio",
        (attempted - failed) as f64 / attempted.max(1) as f64,
    );
    e2e.insert("pass_s", median(&blocks));
    e2e.insert("rate_per_s", rate);
    e2e.insert("p50_ms", median(&hits));

    let mut layers = Metrics::new();
    if let Some(plain) = plain {
        let (plain_hits, _) = hits_and_misses(&plain, steal);
        layers.insert(
            "trace.overhead_share",
            median(&hits) / median(&plain_hits) - 1.0,
        );
        let server_misses = counter_metrics(&before, &after, &mut layers);
        let repeats = conns.iter().map(|c| c.ops.len() as u64).sum::<u64>() - fresh;
        if repeats > 0 {
            layers.insert(
                "serve.repeat_miss_ratio",
                server_misses.saturating_sub(fresh) as f64 / repeats as f64,
            );
        }
        // Replay the most recent keys (the ones still cached) to split the
        // hit path into router, server and network time.
        let recent: Vec<Job> = conns
            .iter()
            .flat_map(|c| c.sampled.iter().rev().take(16).map(|(j, _)| j.clone()))
            .collect();
        let routed = layer_times(&cluster, &recent, secs * 0.15, &mut layers)?;
        profile.metrics(1.0, &mut layers);
        let miss_p50 = median(&misses);
        layers.insert("serve.miss_overhead_ms", miss_p50 - median(&inproc));
        layers.insert(
            "client.p99_ms",
            quantile(&all, 0.99).map_or(0.0, |q| q.value),
        );
        layers.insert(
            "client.p999_ms",
            quantile(&all, 0.999).map_or(0.0, |q| q.value),
        );
        layers.insert("client.hit_p50_ms", median(&hits));
        layers.insert("client.miss_p50_ms", miss_p50);
        layers.insert(
            "client.miss_p99_ms",
            quantile(&misses, 0.99).map_or(0.0, |q| q.value),
        );
        let hit_p50 = median(&hits);
        layers.insert("unaccounted_share", (hit_p50 - routed) / hit_p50);
        layers.insert("host.steal_share", steal.share(start, end));
    }
    drop(cluster);

    Ok(Outcome {
        attempted,
        failed,
        e2e,
        layers,
        counts: None,
        details: vec![
            ("setup_s".into(), sample_detail(&setups)),
            ("pass_s".into(), sample_detail(&blocks)),
            ("p50_ms".into(), quantile_detail(&hits, 0.5)),
            ("miss_p50_ms".into(), quantile_detail(&misses, 0.5)),
            ("miss_p99_ms".into(), quantile_detail(&misses, 0.99)),
            ("all_p99_ms".into(), quantile_detail(&all, 0.99)),
            ("inprocess_check_ms".into(), sample_detail(&inproc)),
            ("steal_share".into(), crate::num(steal.share(start, end))),
        ],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_keys_are_distinct_within_the_pool_and_cycle() {
        let order = latency_order(7);
        let keys: std::collections::HashSet<String> = (0..FRESH_POOL)
            .map(|k| fresh_spec(&order, 7, k).key())
            .collect();
        assert_eq!(keys.len() as u64, FRESH_POOL);
        for k in [0, 1, 4095, FRESH_POOL - 1] {
            assert_eq!(
                fresh_spec(&order, 7, k),
                fresh_spec(&order, 7, k + 3 * FRESH_POOL)
            );
        }
    }
}
