//! Host starvation. On a shared host the hypervisor can withhold CPU time
//! from the machine while it is runnable (the `steal` column of
//! `/proc/stat`); a sample taken then measures the host, not the program.
//!
//! One policy covers every workload: a side thread reads the cumulative
//! steal time every [`WINDOW`], and a sample (a sweep, a check, a pass, a
//! request) is starved when the steal share over the windows covering it
//! exceeds [`MAX_STEAL_SHARE`]. Starved samples are set aside while
//! unstarved ones remain.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Steal share above which a sample is taken to be host-starved.
const MAX_STEAL_SHARE: f64 = 0.03;

/// Interval between the side thread's readings.
const WINDOW: Duration = Duration::from_millis(500);

pub struct Steal {
    /// (when, cumulative steal seconds), in time order.
    readings: Mutex<Vec<(Instant, f64)>>,
    done: AtomicBool,
    cpus: f64,
}

impl Steal {
    pub fn new() -> Steal {
        let steal = Steal {
            readings: Mutex::new(Vec::new()),
            done: AtomicBool::new(false),
            cpus: std::thread::available_parallelism().map_or(1, |n| n.get()) as f64,
        };
        steal.read();
        steal
    }

    fn read(&self) {
        let mut readings = self.readings.lock().expect("steal readings");
        readings.push((Instant::now(), steal_secs()));
    }

    /// Reads every [`WINDOW`] until [`Steal::stop`]; runs on a side thread.
    pub fn sample(&self) {
        while !self.done.load(Ordering::SeqCst) {
            std::thread::park_timeout(WINDOW);
            self.read();
        }
    }

    /// Ends [`Steal::sample`] at its next wake-up (unpark its thread to
    /// end it at once).
    pub fn stop(&self) {
        self.done.store(true, Ordering::SeqCst);
    }

    /// The side thread's readings, and one taken now.
    fn readings(&self) -> Vec<(Instant, f64)> {
        let mut r = self.readings.lock().expect("steal readings").clone();
        r.push((Instant::now(), steal_secs()));
        r
    }

    /// Steal share of the machine's CPU time over the windows covering
    /// `[a, b]`.
    fn share_in(&self, r: &[(Instant, f64)], a: Instant, b: Instant) -> f64 {
        let i = r.partition_point(|x| x.0 <= a).saturating_sub(1);
        let j = r.partition_point(|x| x.0 < b).min(r.len() - 1);
        let wall = (r[j].0 - r[i].0).as_secs_f64() * self.cpus;
        if wall > 0.0 {
            (r[j].1 - r[i].1) / wall
        } else {
            0.0
        }
    }

    /// Steal share over the windows covering `[a, b]`.
    pub fn share(&self, a: Instant, b: Instant) -> f64 {
        self.share_in(&self.readings(), a, b)
    }

    /// The values of the samples the host did not starve, or of all of
    /// them if it starved every one.
    pub fn unstarved<T>(&self, samples: Vec<(Instant, Instant, T)>) -> Vec<T> {
        let r = self.readings();
        let clean = samples
            .iter()
            .any(|s| self.share_in(&r, s.0, s.1) <= MAX_STEAL_SHARE);
        samples
            .into_iter()
            .filter(|s| !clean || self.share_in(&r, s.0, s.1) <= MAX_STEAL_SHARE)
            .map(|s| s.2)
            .collect()
    }

    /// The windows from `a` to `b` with their steal shares.
    pub fn windows(&self, a: Instant, b: Instant) -> Vec<(Instant, Instant, f64)> {
        let r = self.readings();
        r.windows(2)
            .filter(|w| a <= w[0].0 && w[1].0 <= b)
            .map(|w| (w[0].0, w[1].0, self.share_in(&r, w[0].0, w[1].0)))
            .collect()
    }
}

/// Cumulative steal seconds from `/proc/stat` (0 where it is absent).
fn steal_secs() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .next()
                .and_then(|l| l.split_whitespace().nth(8))
                .and_then(|v| v.parse::<f64>().ok())
        })
        .map_or(0.0, |jiffies| jiffies / 100.0)
}
