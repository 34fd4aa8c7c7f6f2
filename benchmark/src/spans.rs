//! Bench-side spans: recorded in the benchmark's own files around calls
//! into public product functions, kept in memory, summarised (and
//! written out) when the run ends. Each span knows the span that was
//! open when it started, so a layer's self time is its duration minus
//! what its children cover.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Record {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
}

/// Handle returned by [`Spans::open`]; pass it back to [`Spans::close`].
#[derive(Debug, Clone, Copy)]
#[must_use = "close the span"]
pub struct SpanId(u32);

/// Per-name totals over a run.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub count: u64,
    pub total_ns: u64,
    /// `total_ns` minus the time covered by child spans.
    pub self_ns: u64,
}

#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    records: Vec<Record>,
    open: Vec<u32>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            origin: Instant::now(),
            records: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Spans {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str) -> SpanId {
        let id = self.records.len() as u32;
        let start_ns = self.now_ns();
        self.records.push(Record {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Closes `id`, which must be the innermost open span. Returns its
    /// duration in seconds.
    pub fn close(&mut self, id: SpanId) -> f64 {
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(id.0), "spans close innermost first");
        let record = &mut self.records[id.0 as usize];
        record.end_ns = end_ns;
        (end_ns - record.start_ns) as f64 * 1e-9
    }

    pub fn summary(&self) -> BTreeMap<&'static str, Summary> {
        let mut child_ns = vec![0u64; self.records.len()];
        for r in &self.records {
            if r.parent != NO_PARENT {
                child_ns[r.parent as usize] += r.end_ns - r.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Summary> = BTreeMap::new();
        for (r, children) in self.records.iter().zip(child_ns) {
            let total = r.end_ns - r.start_ns;
            let entry = out.entry(r.name).or_insert(Summary {
                count: 0,
                total_ns: 0,
                self_ns: 0,
            });
            entry.count += 1;
            entry.total_ns += total;
            entry.self_ns += total.saturating_sub(children);
        }
        out
    }

    /// Every duration recorded under `name`, in milliseconds.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.records
            .iter()
            .filter(|r| r.name == name)
            .map(|r| (r.end_ns - r.start_ns) as f64 * 1e-6)
            .collect()
    }

    /// Writes one line per span: `id parent name start_ns end_ns`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        use std::io::Write as _;
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "# id parent name start_ns end_ns")?;
        for (id, r) in self.records.iter().enumerate() {
            let parent = if r.parent == NO_PARENT {
                "-".to_string()
            } else {
                r.parent.to_string()
            };
            writeln!(out, "{id} {parent} {} {} {}", r.name, r.start_ns, r.end_ns)?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_parents_are_recorded() {
        let mut spans = Spans::default();
        let outer = spans.open("outer");
        let inner = spans.open("inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        let _ = spans.close(inner);
        let _ = spans.close(outer);
        let again = spans.open("inner");
        let _ = spans.close(again);

        let summary = spans.summary();
        let outer = &summary["outer"];
        let inner = &summary["inner"];
        assert_eq!((outer.count, inner.count), (1, 2));
        assert!(inner.total_ns >= 2_000_000);
        // The outer span did nothing itself: its self time is what the
        // first inner span left uncovered.
        let first_inner = spans.records[1].end_ns - spans.records[1].start_ns;
        assert!(outer.total_ns >= first_inner);
        assert_eq!(outer.self_ns, outer.total_ns - first_inner);
        assert_eq!(spans.records[1].parent, 0);
        assert_eq!(spans.records[2].parent, NO_PARENT);
        assert_eq!(spans.durations_ms("inner").len(), 2);
    }
}
