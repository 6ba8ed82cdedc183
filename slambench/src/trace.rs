//! The benchmark's own in-memory span recorder.
//!
//! Spans are recorded around calls into the workspace's public API (and,
//! inside `SlamPipeline::step`, derived from the walls the pipeline already
//! reports). They stay in memory until the run ends, when they are written
//! out and reduced to per-layer self times. Nothing here touches the
//! program's own telemetry, so a change there cannot change the measuring.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed interval. Spans of one frame share `frame`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `slam.step`.
    pub name: &'static str,
    /// Frame the span belongs to (unique within a run).
    pub frame: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// `true` when placed from a duration the program reported rather than
    /// timed here (its position inside the parent is nominal).
    pub derived: bool,
}

impl Span {
    /// Length of the interval.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans when enabled; every call is a no-op when disabled.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder timing from `epoch`.
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        Self {
            enabled,
            epoch,
            spans: Vec::new(),
        }
    }

    /// Whether spans are kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds from the epoch to `t`.
    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records `[start, end)` and returns its index, or `None` when
    /// disabled.
    pub fn record(
        &mut self,
        name: &'static str,
        frame: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.push(Span {
            name,
            frame,
            parent,
            start_ns,
            end_ns,
            derived: false,
        })
    }

    /// Places a child of `parent` from a reported duration, starting
    /// `offset_ns` into the parent.
    pub fn derive(
        &mut self,
        name: &'static str,
        parent: usize,
        offset_ns: u64,
        duration_ns: u64,
    ) -> Option<usize> {
        let p = &self.spans[parent];
        let start_ns = p.start_ns + offset_ns;
        let span = Span {
            name,
            frame: p.frame,
            parent: Some(parent),
            start_ns,
            end_ns: start_ns + duration_ns,
            derived: true,
        };
        self.push(span)
    }

    fn push(&mut self, span: Span) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(span);
        Some(self.spans.len() - 1)
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Moves `other`'s spans in behind this recorder's, re-linking parents.
    pub fn absorb(&mut self, other: Vec<Span>) {
        let base = self.spans.len();
        self.spans.extend(other.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = span.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(span.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Per span name: summed self time (ns) and span count.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        let entry = out.entry(span.name).or_insert((0, 0));
        entry.0 += own;
        entry.1 += 1;
    }
    out
}

/// Checks that every child lies inside its parent, belongs to the same
/// frame, and that the self times of a parent's children never add up to
/// more than the parent's duration. Returns one message per violation.
pub fn check_nesting(spans: &[Span]) -> Vec<String> {
    let own = self_times(spans);
    let mut child_self = vec![0u64; spans.len()];
    let mut problems = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        let Some(p) = s.parent else { continue };
        let parent = &spans[p];
        if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
            problems.push(format!(
                "{} (frame {}) leaves its parent {}",
                s.name, s.frame, parent.name
            ));
        }
        if s.frame != parent.frame {
            problems.push(format!("{} (frame {}) crosses frames", s.name, s.frame));
        }
        child_self[p] += own[i];
    }
    for (s, &kids) in spans.iter().zip(&child_self) {
        if kids > s.duration_ns() {
            problems.push(format!(
                "children of {} (frame {}) hold {kids} ns of self time in {} ns",
                s.name,
                s.frame,
                s.duration_ns()
            ));
        }
    }
    problems
}

/// Writes `header` and then one JSON object per span, one per line.
pub fn write_jsonl(path: &Path, header: &str, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{header}")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"frame\":{},\"parent\":{parent},\
             \"start_ns\":{},\"end_ns\":{},\"derived\":{}}}",
            s.name, s.frame, s.start_ns, s.end_ns, s.derived
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            frame: 1,
            parent,
            start_ns,
            end_ns,
            derived: false,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // frame [0,100) > step [10,70) > track [10,40), map [45,65);
        // replicate [70,95) > capture [75,85).
        let spans = vec![
            span("frame", None, 0, 100),
            span("step", Some(0), 10, 70),
            span("track", Some(1), 10, 40),
            span("map", Some(1), 45, 65),
            span("replicate", Some(0), 70, 95),
            span("capture", Some(4), 75, 85),
        ];
        assert_eq!(self_times(&spans), vec![15, 10, 30, 20, 15, 10]);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["step"], (10, 1));
        assert!(check_nesting(&spans).is_empty());
    }

    #[test]
    fn overlapping_children_are_covered_once() {
        let spans = vec![
            span("parent", None, 0, 100),
            span("a", Some(0), 10, 60),
            span("b", Some(0), 40, 80),
        ];
        assert_eq!(self_times(&spans)[0], 30);
        // a and b overlap, so their own times add to 90 <= 100.
        assert!(check_nesting(&spans).is_empty());
    }

    #[test]
    fn nesting_check_flags_children_outside_or_longer_than_parent() {
        let escaped = vec![span("parent", None, 0, 50), span("child", Some(0), 40, 60)];
        assert_eq!(check_nesting(&escaped).len(), 1);
        let mut crossed = vec![span("parent", None, 0, 50), span("child", Some(0), 10, 20)];
        crossed[1].frame = 2;
        assert_eq!(check_nesting(&crossed).len(), 1);
    }

    #[test]
    fn derive_places_children_inside_the_parent() {
        let epoch = Instant::now();
        let mut rec = Recorder::new(true, epoch);
        let end = epoch + std::time::Duration::from_micros(100);
        let parent = rec.record("step", 3, None, epoch, end).unwrap();
        let track = rec.derive("track", parent, 0, 30_000).unwrap();
        rec.derive("map", parent, 30_000, 50_000);
        assert_eq!(rec.spans()[track].frame, 3);
        assert_eq!(self_times(rec.spans())[parent], 20_000);
        assert!(check_nesting(rec.spans()).is_empty());
    }

    #[test]
    fn disabled_recorder_keeps_nothing_and_absorb_relinks() {
        let epoch = Instant::now();
        let mut off = Recorder::new(false, epoch);
        assert_eq!(off.record("x", 0, None, epoch, epoch), None);
        assert!(off.spans().is_empty());

        let mut a = Recorder::new(true, epoch);
        a.record("root", 0, None, epoch, epoch);
        let b = vec![span("p", None, 0, 10), span("c", Some(0), 2, 4)];
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
    }
}
