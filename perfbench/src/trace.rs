//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name, a start and end relative to the run's epoch, the span
//! that caused it, and the group (one job or one request) it belongs to.
//! Spans stay in memory and are written out once, when the run ends, so
//! recording costs no I/O inside the measured region. Client threads
//! share one tracer. With tracing off, [`Tracer::span`] returns an inert
//! guard and records nothing.

use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub group: u64,
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    next_id: AtomicU64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(1),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span; it closes when the guard drops. `parent` 0 is a root.
    pub fn span(&self, name: &'static str, group: u64, parent: u64) -> SpanGuard<'_> {
        let id = if self.enabled {
            self.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        };
        SpanGuard {
            tracer: self,
            id,
            parent,
            group,
            name,
            start: Instant::now(),
        }
    }

    /// Writes every span as one JSON line to `path`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if !self.enabled {
            return Ok(());
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.lock().expect("spans").iter() {
            writeln!(
                out,
                r#"{{"id":{},"parent":{},"group":{},"name":"{}","start_ns":{},"end_ns":{}}}"#,
                s.id,
                s.parent,
                s.group,
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos()
            )?;
        }
        out.flush()
    }
}

pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    pub id: u64,
    parent: u64,
    group: u64,
    name: &'static str,
    start: Instant,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if self.tracer.enabled {
            let end = Instant::now();
            self.tracer.spans.lock().expect("spans").push(Span {
                id: self.id,
                parent: self.parent,
                group: self.group,
                name: self.name,
                start: self.start.saturating_duration_since(self.tracer.epoch),
                end: end.saturating_duration_since(self.tracer.epoch),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        drop(t.span("x", 1, 0));
        assert!(t.spans.lock().unwrap().is_empty());
    }
}
