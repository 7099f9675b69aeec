//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! crate; no crate is instrumented. A span has a name, start and end, the
//! span that caused it, and the id of the op it belongs to. Spans stay in
//! memory until the run ends and are then written out as one TSV file.
//! When the recorder is off, [`Recorder::begin`] and [`Recorder::end`] do
//! nothing.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the recorder's origin.
#[derive(Clone, Debug)]
struct Span {
    name: &'static str,
    op: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle of an open span (`None` when recording is off).
#[derive(Clone, Copy, Debug)]
pub struct Open(Option<usize>);

pub struct Recorder {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(on: bool, origin: Instant) -> Self {
        Recorder {
            on,
            origin,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name` for op `op`, caused by `parent`.
    pub fn begin(&mut self, name: &'static str, op: u64, parent: Open) -> Open {
        if !self.on {
            return Open(None);
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent: parent.0,
            start_ns,
            end_ns: start_ns,
        });
        Open(Some(self.spans.len() - 1))
    }

    /// Closes `span`.
    pub fn end(&mut self, span: Open) {
        if let Some(i) = span.0 {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Open,
        f: impl FnOnce() -> R,
    ) -> R {
        let s = self.begin(name, op, parent);
        let r = f();
        self.end(s);
        r
    }

    /// No parent: what a span that starts an op is caused by.
    pub fn root() -> Open {
        Open(None)
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Appends another recorder's spans (a client thread's), re-basing
    /// their parent links and times onto this recorder's origin.
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len();
        let shift = other
            .origin
            .saturating_duration_since(self.origin)
            .as_nanos() as u64;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s.start_ns += shift;
            s.end_ns += shift;
            s
        }));
    }

    /// Self time per span name in seconds: each span's duration minus the
    /// part its child spans cover (children of one span never overlap:
    /// every span of an op is recorded on the op's own thread).
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            *out.entry(s.name).or_insert(0.0) += s.dur_ns().saturating_sub(c) as f64 * 1e-9;
        }
        out
    }

    /// Total duration per span name in seconds.
    pub fn totals(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.name).or_insert(0.0) += s.dur_ns() as f64 * 1e-9;
        }
        out
    }

    /// Writes every span as `index, name, op, parent, start_ns, end_ns`.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "index\tname\top\tparent\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{i}\t{}\t{}\t{parent}\t{}\t{}",
                s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_off_records_nothing() {
        let mut r = Recorder::new(true, Instant::now());
        let op = r.begin("op", 0, Recorder::root());
        r.time("child", 0, op, || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        r.end(op);
        let selfs = r.self_times();
        let totals = r.totals();
        assert!(totals["op"] >= totals["child"]);
        assert!((selfs["op"] - (totals["op"] - totals["child"])).abs() < 1e-9);

        let mut off = Recorder::new(false, Instant::now());
        let s = off.begin("op", 0, Recorder::root());
        off.end(s);
        assert!(off.totals().is_empty());
    }
}
