//! A log2-bucketed streaming histogram over `u64` samples.
//!
//! HDR-histogram layout, fixed at compile time: 64 major buckets (one
//! per bit length) each split into 16 linear sub-buckets, so any `u64`
//! lands in one of 1024 slots with at most 1/16 relative error. The
//! counts live in a flat inline array — recording is a shift, a mask
//! and two saturating adds, with no allocation and no floating point —
//! which is what lets the hot paths (per-frame verify latency in the
//! sharded pool) keep one of these per shard without feeling it.

/// Sub-buckets per major bucket (linear interpolation within a power
/// of two).
const SUBS: usize = 16;
/// Major buckets — one per possible bit length of a `u64`.
const MAJORS: usize = 64;
/// Total slots.
const SLOTS: usize = MAJORS * SUBS;

/// The slot a value lands in. Values below 16 get exact slots; a value
/// with bit length `n ≥ 5` lands in major `n − 4`, sub-bucket = its top
/// four bits after the leading one.
#[inline]
fn slot_of(v: u64) -> usize {
    if v < 16 {
        return v as usize;
    }
    let n = 64 - v.leading_zeros(); // bit length, 5..=64
    let major = (n - 4) as usize; // 1..=60
    let sub = ((v >> (n - 5)) & 0xf) as usize;
    major * SUBS + sub
}

/// The smallest value that maps to `slot` — the representative a
/// quantile query reports (so reported quantiles never exceed what was
/// recorded into the slot).
fn slot_lower_bound(slot: usize) -> u64 {
    let major = slot / SUBS;
    let sub = (slot % SUBS) as u64;
    if major == 0 {
        sub
    } else {
        (16 + sub) << (major - 1)
    }
}

/// A fixed-layout streaming histogram: `record` and `merge` never
/// allocate, counts saturate instead of wrapping, and [`render`]
/// produces a byte-stable line so snapshots can be diffed.
///
/// [`render`]: Histogram::render
#[derive(Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; SLOTS],
    total: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self {
            counts: [0; SLOTS],
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample. Counts and the running sum saturate at
    /// `u64::MAX` rather than wrapping. Inlined across crates: the
    /// flight recorder records up to seven samples per frame.
    #[inline]
    pub fn record(&mut self, v: u64) {
        let slot = slot_of(v);
        self.counts[slot] = self.counts[slot].saturating_add(1);
        self.total = self.total.saturating_add(1);
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Records `n` occurrences of the same sample in one step.
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        let slot = slot_of(v);
        self.counts[slot] = self.counts[slot].saturating_add(n);
        self.total = self.total.saturating_add(n);
        self.sum = self.sum.saturating_add(v.saturating_mul(n));
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Folds another histogram into this one (slot-wise saturating
    /// sums; min/max combine exactly).
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine = mine.saturating_add(*theirs);
        }
        self.total = self.total.saturating_add(other.total);
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Whether anything has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Saturating sum of all samples.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact smallest sample, `None` when empty.
    #[must_use]
    pub fn min(&self) -> Option<u64> {
        (self.total > 0).then_some(self.min)
    }

    /// Exact largest sample, `None` when empty.
    #[must_use]
    pub fn max(&self) -> Option<u64> {
        (self.total > 0).then_some(self.max)
    }

    /// The value at quantile `p ∈ [0, 1]`: the bucket lower bound at
    /// rank `⌈p·count⌉`, clamped into `[min, max]` so the answer is
    /// always a value the data could have contained. `None` when the
    /// histogram is empty.
    ///
    /// # Panics
    ///
    /// Panics when `p` is NaN or outside `[0, 1]`.
    #[must_use]
    pub fn quantile(&self, p: f64) -> Option<u64> {
        assert!(
            (0.0..=1.0).contains(&p),
            "quantile needs p in [0,1], got {p}"
        );
        if self.total == 0 {
            return None;
        }
        // ⌈p·total⌉ as a rank in 1..=total (p = 0 reads the first sample).
        let rank = ((p * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen: u64 = 0;
        for (slot, &c) in self.counts.iter().enumerate() {
            seen = seen.saturating_add(c);
            if seen >= rank {
                return Some(slot_lower_bound(slot).clamp(self.min, self.max));
            }
        }
        // Saturated counts can leave `seen` short of a saturated total.
        Some(self.max)
    }

    /// A byte-stable one-line summary: integers only, fixed field
    /// order, so two equal histograms render identically and the
    /// rendering is diffable across runs.
    #[must_use]
    pub fn render(&self) -> String {
        if self.total == 0 {
            return "count=0".to_string();
        }
        let q = |p| self.quantile(p).expect("non-empty");
        format!(
            "count={} sum={} min={} p50={} p95={} p99={} max={}",
            self.total,
            self.sum,
            self.min,
            q(0.50),
            q(0.95),
            q(0.99),
            self.max
        )
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Histogram({})", self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_quantile_is_none() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.render(), "count=0");
    }

    #[test]
    fn single_sample_is_every_quantile() {
        let mut h = Histogram::new();
        h.record(1234);
        for p in [0.0, 0.01, 0.5, 0.99, 1.0] {
            // One sample: every quantile clamps into [min, max] = {1234}.
            assert_eq!(h.quantile(p), Some(1234), "p = {p}");
        }
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum(), 1234);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..16u64 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), Some(0));
        assert_eq!(h.quantile(1.0), Some(15));
        // Rank 8 of 16 at p = 0.5 is the value 7 (exact slots below 16).
        assert_eq!(h.quantile(0.5), Some(7));
    }

    #[test]
    fn relative_error_is_bounded() {
        let mut h = Histogram::new();
        for exp in 4..40 {
            let v = (1u64 << exp) + (1 << (exp - 2)) + 3;
            h.record(v);
            let q = {
                let mut one = Histogram::new();
                one.record(v);
                one.quantile(0.5).unwrap()
            };
            // Bucket lower bound: within one sub-bucket (1/16) below v.
            assert!(q <= v, "q {q} above v {v}");
            assert!(v - q <= v / 16 + 1, "q {q} too far below v {v}");
        }
    }

    #[test]
    fn saturating_record_at_u64_max() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), u64::MAX, "sum saturates instead of wrapping");
        assert_eq!(h.max(), Some(u64::MAX));
        // The quantile clamps to the exact max even though the slot's
        // lower bound is far below u64::MAX.
        assert_eq!(h.quantile(1.0), Some(u64::MAX));
        h.record_n(1, u64::MAX);
        assert_eq!(h.count(), u64::MAX, "count saturates");
    }

    #[test]
    fn merge_of_disjoint_ranges() {
        let mut low = Histogram::new();
        for v in 1..=100u64 {
            low.record(v);
        }
        let mut high = Histogram::new();
        for v in 1_000_000..1_000_100u64 {
            high.record(v);
        }
        let mut merged = low.clone();
        merged.merge(&high);
        assert_eq!(merged.count(), 200);
        assert_eq!(merged.min(), Some(1));
        assert_eq!(merged.max(), Some(1_000_099));
        assert_eq!(merged.sum(), low.sum() + high.sum());
        // The lower half of the merged mass is the low histogram.
        assert!(merged.quantile(0.25).unwrap() <= 100);
        assert!(merged.quantile(0.75).unwrap() >= 1_000_000 * 15 / 16);
        // Merging in the other order gives the same histogram.
        let mut other = high.clone();
        other.merge(&low);
        assert_eq!(merged, other);
    }

    #[test]
    fn render_is_byte_stable() {
        let run = || {
            let mut h = Histogram::new();
            for v in [5u64, 17, 90, 1 << 20, 3] {
                h.record(v);
            }
            h.render()
        };
        assert_eq!(run(), run());
        assert!(run().starts_with("count=5 sum="));
    }

    #[test]
    #[should_panic(expected = "quantile needs p in [0,1]")]
    fn quantile_rejects_out_of_range_p() {
        let mut h = Histogram::new();
        h.record(1);
        let _ = h.quantile(1.5);
    }

    #[test]
    fn every_u64_has_a_slot_and_bound_below() {
        for v in [
            0,
            1,
            15,
            16,
            17,
            31,
            32,
            1000,
            u64::from(u32::MAX),
            1 << 60,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let s = slot_of(v);
            assert!(s < SLOTS, "slot {s} out of range for {v}");
            assert!(slot_lower_bound(s) <= v, "bound above value {v}");
        }
    }
}
