//! In-memory spans, written out when the run ends.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each layer: one per pass, per cell or replay, per connection and
//! per client request. Callbacks that fire millions of times a second
//! (defense methods, adversary turns, stream decode) are not spans: they
//! are summed per cell in [`crate::adapters::Costs`] and attached to the
//! cell's span as one `(name, calls, busy_ns)` aggregate each, so a
//! layer's self time is its span minus its children by construction.

use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

struct Span {
    name: &'static str,
    parent: u32,
    op: u64,
    start_ns: u64,
    end_ns: u64,
}

struct Aggregate {
    name: &'static str,
    parent: u32,
    calls: u64,
    busy_ns: u64,
}

#[derive(Default)]
struct Records {
    spans: Vec<Span>,
    aggregates: Vec<Aggregate>,
}

/// The span recorder of one traced run.
pub struct Tracer {
    origin: Instant,
    records: Mutex<Records>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { origin: Instant::now(), records: Mutex::default() }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn records(&self) -> std::sync::MutexGuard<'_, Records> {
        self.records.lock().expect("a span recorder never panics while locked")
    }

    /// Opens a span now and returns its id. `op` ties the spans of one
    /// operation (cell index, connection number) together.
    pub fn open(&self, name: &'static str, parent: Option<u32>, op: u64) -> u32 {
        let start_ns = self.now_ns();
        let mut records = self.records();
        records.spans.push(Span {
            name,
            parent: parent.unwrap_or(NO_PARENT),
            op,
            start_ns,
            end_ns: start_ns,
        });
        (records.spans.len() - 1) as u32
    }

    /// Closes span `id` now.
    pub fn close(&self, id: u32) {
        let end_ns = self.now_ns();
        self.records().spans[id as usize].end_ns = end_ns;
    }

    /// Attaches one aggregated callback record to span `parent`.
    pub fn aggregate(&self, parent: u32, name: &'static str, calls: u64, busy_ns: u64) {
        if calls > 0 {
            self.records().aggregates.push(Aggregate { name, parent, calls, busy_ns });
        }
    }

    /// Writes every record as one JSON document.
    pub fn write(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let records = self.records();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"spans\": [")?;
        for (id, s) in records.spans.iter().enumerate() {
            let parent =
                if s.parent == NO_PARENT { "null".to_string() } else { s.parent.to_string() };
            let comma = if id + 1 == records.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"id\": {id}, \"parent\": {parent}, \"name\": \"{}\", \"op\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}}}{comma}",
                s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        writeln!(out, "], \"aggregates\": [")?;
        for (i, a) in records.aggregates.iter().enumerate() {
            let comma = if i + 1 == records.aggregates.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"parent\": {}, \"name\": \"{}\", \"calls\": {}, \"busy_ns\": {}}}{comma}",
                a.parent, a.name, a.calls, a.busy_ns
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_serialize() {
        let tracer = Tracer::default();
        let pass = tracer.open("pass", None, 0);
        let cell = tracer.open("cell", Some(pass), 7);
        tracer.aggregate(cell, "defense.join", 3, 120);
        tracer.aggregate(cell, "defense.purge", 0, 0); // no calls: not recorded
        tracer.close(cell);
        tracer.close(pass);
        let path = crate::harness::base_dir().join("target/tmp/trace-unit-test.json");
        tracer.write(&path, "unit", 1).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"name\": \"cell\", \"op\": 7"));
        assert!(text.contains("\"name\": \"defense.join\", \"calls\": 3, \"busy_ns\": 120"));
        assert!(!text.contains("defense.purge"));
        std::fs::remove_file(&path).ok();
    }
}
