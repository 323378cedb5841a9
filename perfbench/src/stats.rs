//! The benchmark's own arithmetic: percentiles under the ten-beyond rule,
//! span self time, and the per-layer ledger.

use std::collections::{BTreeMap, HashMap};

/// Samples that must lie strictly above a reported percentile, so a tail
/// figure never rests on one or two outliers.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `permille`/1000 of `sorted` (ascending), or
/// `None` when fewer than [`MIN_BEYOND`] samples lie above it.
pub fn percentile(sorted: &[f64], permille: usize) -> Option<f64> {
    let n = sorted.len();
    if n == 0 || permille == 0 || permille > 1000 {
        return None;
    }
    // Integer rank: `ceil(n * p / 1000)`, free of floating-point rounding.
    let rank = (n * permille).div_ceil(1000).max(1);
    if n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Median and 99th percentile of a sample set, with its count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Samples summarized.
    pub n: usize,
    /// Median (`None` below 20 samples).
    pub p50: Option<f64>,
    /// 99th percentile (`None` below 1,000 samples).
    pub p99: Option<f64>,
}

impl Summary {
    /// Summarizes `samples` (any order).
    pub fn of(mut samples: Vec<f64>) -> Self {
        samples.sort_by(f64::total_cmp);
        Summary { n: samples.len(), p50: percentile(&samples, 500), p99: percentile(&samples, 990) }
    }
}

/// Operations in one window of [`windowed_p99`]: the fewest that leave
/// [`MIN_BEYOND`] samples beyond the 99th percentile.
pub const P99_WINDOW: usize = 100 * MIN_BEYOND;

/// The median, over consecutive windows of [`P99_WINDOW`] samples in
/// arrival order, of each window's 99th percentile, with the window count.
/// A host stall lands in one window and moves one window's figure, not the
/// run's. A trailing partial window is dropped; `None` below one window.
pub fn windowed_p99(samples: &[f64]) -> Option<(f64, usize)> {
    let mut p99s: Vec<f64> = samples
        .chunks_exact(P99_WINDOW)
        .filter_map(|w| {
            let mut w = w.to_vec();
            w.sort_by(f64::total_cmp);
            percentile(&w, 990)
        })
        .collect();
    if p99s.is_empty() {
        return None;
    }
    p99s.sort_by(f64::total_cmp);
    let n = p99s.len();
    let mid = if n % 2 == 1 { p99s[n / 2] } else { (p99s[n / 2 - 1] + p99s[n / 2]) / 2.0 };
    Some((mid, n))
}

/// Nearest-rank upper quartile of `v` (any order): the value three in four
/// entries stay at or below. `None` when empty.
///
/// Chunked figures (one value per day, batch or sampling interval) report
/// their slow quartile: this for a lower-is-better figure, [`lower_quartile`]
/// for a higher-is-better one. The host's CPU speed moves in phases of
/// seconds; the slow phase is the steady one, and the slow quartile tracks
/// it as long as it fills a quarter of the run (see NOTES.md).
pub fn upper_quartile(v: &[f64]) -> Option<f64> {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (3 * v.len()).div_ceil(4);
    rank.checked_sub(1).map(|r| v[r])
}

/// Nearest-rank lower quartile of `v`, mirroring [`upper_quartile`]: the
/// value three in four entries stay at or above. `None` when empty.
pub fn lower_quartile(v: &[f64]) -> Option<f64> {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (3 * v.len()).div_ceil(4);
    (rank > 0).then(|| v[v.len() - rank])
}

/// The median of each run of `chunk` consecutive samples; a trailing
/// partial chunk, and any chunk too small for a median, is dropped.
pub fn chunk_medians(samples: &[f64], chunk: usize) -> Vec<f64> {
    samples.chunks_exact(chunk).filter_map(|c| Summary::of(c.to_vec()).p50).collect()
}

/// One traced call: `[start_ns, end_ns]` relative to the tracer's origin.
/// Spans of one request (a session, a file, a batch of queries) share
/// `request`; `parent` is the enclosing span on the same thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id within one trace.
    pub id: u64,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
    /// `layer.call`, e.g. `durable.append`.
    pub name: &'static str,
    /// Request the call served.
    pub request: u64,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
}

impl Span {
    /// The layer: the name up to its first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    fn duration(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Self time of every span, in input order: its duration minus the union
/// of its children's intervals clipped to it. Children that overlap (calls
/// made from several threads under one parent) are subtracted once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = s.parent.and_then(|p| index.get(&p)) {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.duration() - covered.min(s.duration())
        })
        .collect()
}

/// Where timed wall time went: self time per layer under the timed roots,
/// and the part no layer span covers.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Ledger {
    /// Summed duration of the root spans (the timed wall time).
    pub wall_ns: u64,
    /// Self time per layer, for spans that descend from a root.
    pub layers: BTreeMap<&'static str, u64>,
    /// Wall time covered by no layer span: the roots' own self time.
    pub remainder_ns: u64,
}

impl Ledger {
    /// Share of the wall time the layers account for.
    pub fn coverage(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        1.0 - self.remainder_ns as f64 / self.wall_ns as f64
    }
}

/// Builds the ledger of the spans named `root` and their descendants.
pub fn ledger(spans: &[Span], root: &str) -> Ledger {
    let self_ns = self_times(spans);
    let index: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut out = Ledger::default();
    for (i, s) in spans.iter().enumerate() {
        if s.name == root {
            out.wall_ns += s.duration();
            out.remainder_ns += self_ns[i];
            continue;
        }
        let mut up = s.parent;
        while let Some(&p) = up.and_then(|p| index.get(&p)) {
            if spans[p].name == root {
                *out.layers.entry(s.layer()).or_default() += self_ns[i];
                break;
            }
            up = spans[p].parent;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span { id, parent, name, request: 0, start_ns: start, end_ns: end }
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&s, 990), Some(990.0), "rank 990 leaves 10 beyond");
        assert_eq!(percentile(&s[..999], 990), None, "999 samples leave only 9 beyond");
        assert_eq!(percentile(&s, 500), Some(500.0));
        let sum = Summary::of(s.iter().rev().copied().collect());
        assert_eq!((sum.n, sum.p50, sum.p99), (1000, Some(500.0), Some(990.0)));
        let small = Summary::of(vec![3.0, 1.0, 2.0]);
        assert_eq!((small.n, small.p50, small.p99), (3, None, None));
        assert_eq!(Summary::of((0..20).map(f64::from).collect()).p50, Some(9.0));
        assert_eq!(Summary::of((0..19).map(f64::from).collect()).p50, None);
    }

    #[test]
    fn windowed_p99_is_the_median_window() {
        let calm: Vec<f64> = (0..P99_WINDOW).map(|i| (i % 100) as f64).collect();
        let mut stalled = calm.clone();
        stalled[..50].iter_mut().for_each(|v| *v = 1e6);
        let run: Vec<f64> = [calm.clone(), stalled, calm.clone()].concat();
        // Each calm window's p99 is 98 (rank 990 of ten copies of 0..100).
        assert_eq!(windowed_p99(&run), Some((98.0, 3)));
        assert_eq!(windowed_p99(&run[..P99_WINDOW - 1]), None);
        let with_tail: Vec<f64> = [calm.clone(), calm[..10].to_vec()].concat();
        assert_eq!(windowed_p99(&with_tail), Some((98.0, 1)), "a partial window is dropped");
    }

    #[test]
    fn quartiles_take_the_slow_side_by_nearest_rank() {
        let v: Vec<f64> = (1..=8).rev().map(f64::from).collect();
        assert_eq!(upper_quartile(&v), Some(6.0), "rank ceil(3n/4) = 6");
        assert_eq!(lower_quartile(&v), Some(3.0), "the mirror rank from the top");
        assert_eq!(upper_quartile(&[5.0]), Some(5.0));
        assert_eq!(lower_quartile(&[5.0]), Some(5.0));
        assert_eq!(upper_quartile(&[]), None);
        assert_eq!(lower_quartile(&[]), None);
        // A fast phase in a quarter of the chunks does not move the figure.
        let phases = [10.0, 10.0, 10.0, 6.0, 10.0, 6.0, 10.0, 10.0];
        assert_eq!(upper_quartile(&phases), Some(10.0));
    }

    #[test]
    fn chunk_medians_drop_partial_and_small_chunks() {
        let s: Vec<f64> = (0..50).map(f64::from).collect();
        assert_eq!(chunk_medians(&s, 20), vec![9.0, 29.0], "the last 10 samples are dropped");
        assert!(chunk_medians(&s, 10).is_empty(), "10 samples leave fewer than 10 beyond p50");
    }

    #[test]
    fn overlapping_children_are_subtracted_once() {
        let spans = vec![
            span(1, None, "gateway.session", 0, 100),
            span(2, Some(1), "gateway.handshake", 10, 40),
            span(3, Some(1), "ingest.x", 30, 60),
            span(4, Some(1), "ingest.y", 50, 55),
            span(5, Some(1), "ingest.z", 90, 130),
        ];
        // Children cover [10, 60) and [90, 100): 60 of the parent's 100 ns.
        assert_eq!(self_times(&spans), vec![40, 30, 30, 5, 40]);
    }

    #[test]
    fn ledger_remainder_is_what_no_layer_covers() {
        let spans = vec![
            span(1, None, "bench.timed", 0, 100),
            span(2, Some(1), "shard.encode_batch", 0, 50),
            span(3, Some(1), "durable.commit", 60, 90),
            span(4, Some(3), "durable.fsync", 70, 80),
            span(5, None, "bench.timed", 200, 250),
            span(6, Some(5), "segstore.read", 200, 245),
            span(7, None, "durable.open", 300, 400),
        ];
        let l = ledger(&spans, "bench.timed");
        assert_eq!(l.wall_ns, 150);
        assert_eq!(l.layers.get("shard"), Some(&50));
        assert_eq!(l.layers.get("durable"), Some(&30), "nested spans add self time only");
        assert_eq!(l.layers.get("segstore"), Some(&45));
        assert_eq!(l.remainder_ns, 25);
        assert_eq!(l.layers.values().sum::<u64>() + l.remainder_ns, l.wall_ns);
        assert!((l.coverage() - (1.0 - 25.0 / 150.0)).abs() < 1e-12);
    }
}
