//! Frame-lifecycle stage timing: the flight recorder's allocation-free
//! per-frame accumulator.
//!
//! A [`SpanTimer`] splits one frame's trip through the verify pipeline
//! into the seven canonical stages ([`SpanStage`]): ingress routing,
//! queue wait, decode, batch prefetch, verify, buffer decision and
//! reveal-authenticate. Contiguous stages are accumulated with
//! [`SpanTimer::mark`] (reads the [`TimeSource`] once per boundary);
//! stages measured elsewhere — the reader-side ingress cost, the
//! amortised prefetch share — are injected with [`SpanTimer::set`].
//! The struct is a fixed-size array on the worker's stack: recording a
//! span never allocates, so a flood cannot turn the recorder into an
//! allocator attack on the defender.
//!
//! Under frozen or manual clocks every duration is exactly the clock's
//! own arithmetic — which is what makes the stage-ordering property
//! below testable and two same-seed runs byte-identical.

use crate::time::TimeSource;
use crate::trace::{TraceEvent, VerifyOutcome};

/// The pipeline stages a frame crosses, in causal order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanStage {
    /// Reader-side routing + copy, before the shard queue.
    Ingress,
    /// Enqueue → worker-pop wait.
    QueueWait,
    /// Datagram decode / frame reassembly.
    Decode,
    /// The frame's share of its window's batch prefetch.
    Prefetch,
    /// Announce-path verification.
    Verify,
    /// Reservoir-decision bookkeeping.
    Buffer,
    /// Reveal-path authentication.
    RevealAuth,
}

impl SpanStage {
    /// How many stages exist.
    pub const COUNT: usize = 7;

    /// Every stage, in pipeline order.
    pub const ALL: [SpanStage; SpanStage::COUNT] = [
        SpanStage::Ingress,
        SpanStage::QueueWait,
        SpanStage::Decode,
        SpanStage::Prefetch,
        SpanStage::Verify,
        SpanStage::Buffer,
        SpanStage::RevealAuth,
    ];

    /// The stage's stable label (used in reports and histogram keys).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SpanStage::Ingress => "ingress",
            SpanStage::QueueWait => "queue_wait",
            SpanStage::Decode => "decode",
            SpanStage::Prefetch => "prefetch",
            SpanStage::Verify => "verify",
            SpanStage::Buffer => "buffer",
            SpanStage::RevealAuth => "reveal_auth",
        }
    }

    #[inline]
    fn index(self) -> usize {
        match self {
            SpanStage::Ingress => 0,
            SpanStage::QueueWait => 1,
            SpanStage::Decode => 2,
            SpanStage::Prefetch => 3,
            SpanStage::Verify => 4,
            SpanStage::Buffer => 5,
            SpanStage::RevealAuth => 6,
        }
    }
}

/// A deterministic span id: the shard's verified-datagram ordinal in
/// the high bits, the frame's index within its (possibly packed)
/// datagram in the low 8. The emitting record's source field carries
/// the shard, so `(source, span)` is globally unique and two same-seed
/// runs agree on every id.
#[must_use]
#[inline]
pub fn span_id(datagram_ordinal: u64, frame_idx: usize) -> u64 {
    (datagram_ordinal << 8) | (frame_idx as u64 & 0xff)
}

/// Per-frame stage accumulator; see the module docs. The default timer
/// has no clock anchor: it suits spans whose stages are all injected
/// with [`SpanTimer::set`], and skips the clock read
/// [`SpanTimer::start`] pays.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTimer {
    last_ns: u64,
    acc: [u64; SpanStage::COUNT],
}

impl SpanTimer {
    /// A timer anchored at `time`'s current reading.
    #[must_use]
    pub fn start(time: &TimeSource) -> Self {
        Self {
            last_ns: time.now_ns(),
            acc: [0; SpanStage::COUNT],
        }
    }

    /// Closes the window since the previous boundary (or
    /// [`SpanTimer::start`]) and charges it to `stage`. Marking the
    /// same stage repeatedly accumulates.
    pub fn mark(&mut self, stage: SpanStage, time: &TimeSource) {
        let now = time.now_ns();
        self.acc[stage.index()] += now.saturating_sub(self.last_ns);
        self.last_ns = now;
    }

    /// Injects a duration measured elsewhere (overwrites the stage).
    #[inline]
    pub fn set(&mut self, stage: SpanStage, ns: u64) {
        self.acc[stage.index()] = ns;
    }

    /// The accumulated duration of `stage`.
    #[must_use]
    #[inline]
    pub fn get(&self, stage: SpanStage) -> u64 {
        self.acc[stage.index()]
    }

    /// Sum over every stage.
    #[must_use]
    pub fn total_ns(&self) -> u64 {
        self.acc.iter().sum()
    }

    /// The finished [`TraceEvent::FrameSpan`] for this frame. Stage
    /// readings saturate into the event's `u32` fields.
    #[must_use]
    #[inline]
    pub fn event(&self, span: u64, interval: u64, outcome: VerifyOutcome) -> TraceEvent {
        let ns = |stage| u32::try_from(self.get(stage)).unwrap_or(u32::MAX);
        TraceEvent::FrameSpan {
            span,
            interval,
            outcome,
            ingress_ns: ns(SpanStage::Ingress),
            queue_ns: ns(SpanStage::QueueWait),
            decode_ns: ns(SpanStage::Decode),
            prefetch_ns: ns(SpanStage::Prefetch),
            verify_ns: ns(SpanStage::Verify),
            buffer_ns: ns(SpanStage::Buffer),
            reveal_ns: ns(SpanStage::RevealAuth),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::ManualTime;

    /// A tiny deterministic generator (SplitMix64) so the property runs
    /// the same cases on every box without pulling in an RNG crate.
    struct Gen(u64);

    impl Gen {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }

    #[test]
    fn marks_accumulate_exactly_what_the_manual_clock_advanced() {
        let clock = ManualTime::new();
        let time = TimeSource::manual(clock.clone());
        let mut timer = SpanTimer::start(&time);
        clock.advance_ns(7);
        timer.mark(SpanStage::Decode, &time);
        clock.advance_ns(5);
        timer.mark(SpanStage::Decode, &time);
        clock.advance_ns(100);
        timer.mark(SpanStage::Verify, &time);
        timer.set(SpanStage::Prefetch, 42);
        assert_eq!(timer.get(SpanStage::Decode), 12);
        assert_eq!(timer.get(SpanStage::Verify), 100);
        assert_eq!(timer.get(SpanStage::Prefetch), 42);
        assert_eq!(timer.get(SpanStage::Buffer), 0);
        assert_eq!(timer.total_ns(), 154);
    }

    /// The satellite property: stage boundaries are monotone under
    /// manual time. Marking the stages in pipeline order with arbitrary
    /// seeded clock advances, (a) each stage is charged exactly what
    /// the clock advanced inside it, (b) the cumulative stage-end
    /// offsets are non-decreasing in pipeline order, and (c) the stages
    /// sum to the whole observed window — no time is lost or invented.
    #[test]
    fn stage_ordering_is_monotone_under_manual_time() {
        for case in 0u64..64 {
            let mut gen = Gen(0x00F1_1C47 ^ (case << 16));
            let clock = ManualTime::new();
            clock.set_ns(gen.next() % 1_000_000);
            let time = TimeSource::manual(clock.clone());
            let start = time.now_ns();
            let mut timer = SpanTimer::start(&time);
            let mut expected = [0u64; SpanStage::COUNT];
            for (idx, stage) in SpanStage::ALL.into_iter().enumerate() {
                // 0–3 sub-steps per stage, arbitrary advances each.
                for _ in 0..gen.next() % 4 {
                    let step = gen.next() % 10_000;
                    clock.advance_ns(step);
                    expected[idx] += step;
                    timer.mark(stage, &time);
                }
                // A stage with no sub-step still gets a zero-width mark.
                timer.mark(stage, &time);
            }
            let mut cumulative = 0u64;
            let mut boundaries = Vec::new();
            for (idx, stage) in SpanStage::ALL.into_iter().enumerate() {
                assert_eq!(timer.get(stage), expected[idx], "case {case} {stage:?}");
                cumulative += timer.get(stage);
                boundaries.push(cumulative);
            }
            assert!(
                boundaries.windows(2).all(|w| w[0] <= w[1]),
                "case {case}: stage-end offsets must be monotone: {boundaries:?}"
            );
            assert_eq!(timer.total_ns(), time.now_ns() - start, "case {case}");
        }
    }

    #[test]
    fn span_ids_pack_ordinal_and_frame_index() {
        assert_eq!(span_id(0, 0), 0);
        assert_eq!(span_id(3, 1), (3 << 8) | 1);
        // Frame index saturates into 8 bits; ordinals never collide.
        assert_eq!(span_id(1, 256), 1 << 8);
        assert!(span_id(7, 255) < span_id(8, 0));
    }

    #[test]
    fn event_carries_every_stage_field() {
        let time = TimeSource::frozen();
        let mut timer = SpanTimer::start(&time);
        timer.set(SpanStage::Ingress, 1);
        timer.set(SpanStage::QueueWait, 2);
        timer.set(SpanStage::Decode, 3);
        timer.set(SpanStage::Prefetch, 4);
        timer.set(SpanStage::Verify, 5);
        timer.set(SpanStage::Buffer, 6);
        timer.set(SpanStage::RevealAuth, 7);
        let event = timer.event(span_id(9, 0), 17, VerifyOutcome::Auth);
        assert_eq!(
            event,
            TraceEvent::FrameSpan {
                span: 9 << 8,
                interval: 17,
                outcome: VerifyOutcome::Auth,
                ingress_ns: 1,
                queue_ns: 2,
                decode_ns: 3,
                prefetch_ns: 4,
                verify_ns: 5,
                buffer_ns: 6,
                reveal_ns: 7,
            }
        );
    }
}
