//! The deterministic loopback campaign: genuine sender + flooder +
//! sharded pool, one seeded run, bit-reproducible metrics.
//!
//! A single driver thread plays both traffic sources onto a
//! [`LoopbackTransport`] in virtual time and drains the wire into the
//! pool after every interval, so the byte stream each shard sees is a
//! pure function of the seed. Combined with [`OverflowPolicy::Block`]
//! (no timing-dependent shedding) and the pool's deterministic per-shard
//! RNG forks, the merged metrics of two same-seed runs are identical to
//! the byte — which is exactly what the ci.sh soak gate diffs.
//!
//! The run reproduces the paper's flood experiment on the wire: `g`
//! genuine announce copies per interval, `f = round(g·p/(1−p))` forged
//! copies interleaved among them (a seeded shuffle — the attacker does
//! not get to always pre-empt the genuine copies), one reveal per
//! interval one interval later. With `m` buffers the genuine reveal
//! authenticates iff a genuine copy survived reservoir sampling:
//! probability `≈ 1 − p^m` (exactly hypergeometric at finite `n`).

use std::sync::Arc;

use dap_core::{codec, DapMessage, DapParams, DapSender};
use dap_obs::{TimeSource, TraceRecord};
use dap_simnet::{
    keys, ChannelModel, FloodIntensity, Metrics, Registry, SimDuration, SimRng, SimTime,
};

use crate::control::{ControlConfig, ControlPlane};
use crate::pool::{DapShard, OverflowPolicy, PoolConfig, PoolObs, ReceiverPool, RoutePolicy};
use crate::pump::Flooder;
use crate::telemetry::SharedRegistry;
use crate::transport::{LoopbackTransport, Transport};

/// Everything a loopback campaign needs; all fields seeded/explicit so
/// a spec fully determines the run.
#[derive(Debug, Clone, Copy)]
pub struct LoopbackSpec {
    /// Master seed (wire loss, flooder MACs, shard sampling).
    pub seed: u64,
    /// Intervals of traffic.
    pub intervals: u64,
    /// Receiver buffers `m` per pending interval.
    pub buffers: usize,
    /// Receiver pool shards.
    pub shards: usize,
    /// Per-shard ingress queue depth.
    pub queue_depth: usize,
    /// Flooder bandwidth share `p ∈ [0, 1)` at campaign start.
    pub flood: f64,
    /// Flooder bandwidth share at the end of the ramp: the wire's `p`
    /// ramps linearly `flood → flood_end` over the first half of the
    /// campaign, then holds at `flood_end`. `None` (the default) keeps
    /// the wire stationary at [`flood`] — byte-identical to the
    /// pre-ramp driver.
    ///
    /// [`flood`]: LoopbackSpec::flood
    pub flood_end: Option<f64>,
    /// Runs the live control plane: at every interval boundary the
    /// driver quiesces the pool, feeds the reveal-time buffer evidence
    /// to the [`ControlPlane`] estimator, and broadcasts any resulting
    /// [`dap_core::PostureDirective`] so the shards re-size `m` before
    /// the next interval's traffic. Determinism survives the feedback
    /// edge: evidence is read only at quiesced boundaries, so the
    /// directive stream is a pure function of the seed.
    pub adaptive: bool,
    /// Genuine announce copies per interval.
    pub copies: u32,
    /// Wire loss probability.
    pub loss: f64,
    /// Wire corruption probability (one flipped bit per hit).
    pub corrupt: f64,
    /// Per-source trace ring capacity; 0 disables tracing. Traced runs
    /// stay bit-reproducible: the pool runs on frozen clocks and every
    /// record is stamped with protocol time, so two same-seed runs
    /// render identical JSONL.
    pub trace_depth: usize,
    /// Flight-recorder sampling cadence ([`PoolObs::span_every`]): every
    /// `span_every`-th verified datagram per shard emits a
    /// [`dap_obs::TraceEvent::FrameSpan`] and feeds the `net.stage.*`
    /// histograms. 0 (the default) disables the recorder — byte-identical
    /// to the pre-recorder driver.
    pub span_every: u64,
}

impl Default for LoopbackSpec {
    /// The soak-gate shape: 400 intervals, `m = 4`, `p = 0.9`, 4 genuine
    /// copies, clean wire.
    fn default() -> Self {
        Self {
            seed: 2016,
            intervals: 400,
            buffers: 4,
            shards: 4,
            queue_depth: 256,
            flood: 0.9,
            flood_end: None,
            adaptive: false,
            copies: 4,
            loss: 0.0,
            corrupt: 0.0,
            trace_depth: 0,
            span_every: 0,
        }
    }
}

/// What a loopback campaign produced.
#[derive(Debug, Clone)]
pub struct LoopbackReport {
    /// Merged pool + wire counters.
    pub metrics: Metrics,
    /// The full observability picture: the same counters plus latency
    /// histograms (zero-duration under frozen clocks — their *counts*
    /// fingerprint the run) and drop-reason attribution.
    pub registry: Registry,
    /// `(source, seq)`-sorted trace records (empty when
    /// [`LoopbackSpec::trace_depth`] is 0).
    pub trace: Vec<TraceRecord>,
    /// `authenticated / reveals` (0 when no reveal arrived).
    pub auth_rate: f64,
    /// The paper's large-`n` prediction `1 − p^m`.
    pub expected_rate: f64,
    /// Frames the driver pushed into the pool.
    pub frames: u64,
}

/// Runs one seeded campaign; see the module docs.
///
/// # Panics
///
/// Panics on invalid spec fields (zero shards/buffers, `p ∉ [0, 1)`,
/// loss/corruption outside `[0, 1]`) and if a pool worker panics.
#[must_use]
pub fn run_loopback(spec: &LoopbackSpec) -> LoopbackReport {
    run_loopback_with(spec, None)
}

/// [`run_loopback`] with an optional live telemetry registry the pool
/// shards publish into while the campaign runs (slot `i` = shard `i`;
/// the registry must have at least `spec.shards` slots).
///
/// # Panics
///
/// As [`run_loopback`].
#[must_use]
pub fn run_loopback_with(
    spec: &LoopbackSpec,
    publish: Option<Arc<SharedRegistry>>,
) -> LoopbackReport {
    let params = DapParams::new(SimDuration(100), 1, 0, spec.buffers);
    let schedule = params.schedule();
    let d = params.disclosure_delay;
    let chain_len = usize::try_from(spec.intervals).expect("interval count fits usize") + 2;
    let mut sender = DapSender::new(&spec.seed.to_be_bytes(), chain_len, params);
    let bootstrap = sender.bootstrap();

    let mut rng = SimRng::new(spec.seed);
    let wire_rng_seed = rng.next_u64();
    let pool_seed = rng.next_u64();
    let flooder_seed = rng.next_u64();
    let mut shuffle_rng = rng.fork(4);

    let wire = LoopbackTransport::new(wire_rng_seed, ChannelModel::lossy(spec.loss), spec.corrupt);
    if spec.trace_depth > 0 {
        // Reserved trace source ids: shards take 0..shards, the pool's
        // socket reader takes `shards`, the wire sits one past it.
        let wire_source = u32::try_from(spec.shards).expect("shard count fits u32") + 1;
        wire.enable_trace(wire_source, spec.trace_depth);
    }
    let pool = ReceiverPool::spawn_with_obs(
        PoolConfig {
            shards: spec.shards,
            queue_depth: spec.queue_depth,
            overflow: OverflowPolicy::Block,
            route: RoutePolicy::ByInterval,
            ..PoolConfig::default()
        },
        pool_seed,
        |shard| DapShard::new(bootstrap, &[b'l', b'o', shard as u8]),
        PoolObs {
            // Frozen clocks: stopwatch durations collapse to 0, so the
            // latency histograms carry no scheduler timing — only
            // deterministic sample counts — and the whole registry is a
            // pure function of the seed.
            time: TimeSource::frozen(),
            trace_depth: spec.trace_depth,
            publish: publish.clone(),
            publish_every: 64,
            span_every: spec.span_every,
        },
    );
    let handle = pool.handle();
    let mut flooder = Flooder::new(wire.clone(), flooder_seed, spec.flood);
    // The wire's forged fraction at interval `i`: a linear ramp
    // `flood → flood_end` across the first half of the campaign, then a
    // plateau. Stationary (`flood_end == flood`) this is `flood`
    // everywhere and the byte stream matches the pre-ramp driver.
    let ramp_half = (spec.intervals / 2).max(1);
    let flood_end = spec.flood_end.unwrap_or(spec.flood);
    let flood_at = |i: u64| -> f64 {
        let t = ((i - 1) as f64 / ramp_half as f64).min(1.0);
        spec.flood + (flood_end - spec.flood) * t
    };
    let mut controller = spec.adaptive.then(|| {
        ControlPlane::new(
            u32::try_from(spec.buffers).expect("buffer count fits u32"),
            ControlConfig::default(),
        )
    });
    // Control-plane narration: p̂ estimate samples trace at their own
    // reserved source id (one past the wire), so the forensic audit can
    // line the estimator's view up against the wire's actual behaviour.
    let ctrl_source = u32::try_from(spec.shards).expect("shard count fits u32") + 2;
    let mut ctrl_trace = (spec.adaptive && spec.trace_depth > 0)
        .then(|| dap_obs::TraceEmitter::new(ctrl_source, dap_obs::RingSink::new(spec.trace_depth)));

    let mut tx = wire.clone();
    let mut rx = wire.clone();
    let mut recv_buf = vec![0u8; codec::MAX_FRAME_LEN];
    let mut drain = |rx: &mut LoopbackTransport, at: SimTime| {
        while let Some(n) = rx.recv(&mut recv_buf).expect("loopback recv") {
            handle.ingest(&recv_buf[..n], at);
        }
    };

    for i in 1..=spec.intervals {
        let at = SimTime(schedule.start_of(i).ticks() + 10);
        // The reveal for i − d leads the interval (Algorithm 1's order).
        if i > d {
            if let Some(reveal) = sender.reveal(i - d) {
                let frame = codec::encode(&DapMessage::Reveal(reveal)).expect("encodable reveal");
                tx.send(&frame).expect("loopback send");
            }
        }
        // Genuine copies and forged copies, interleaved by seeded draw:
        // position the genuine copies uniformly among the n total.
        let announce = sender
            .announce(i, format!("reading {i}").as_bytes())
            .expect("chain sized for the run");
        let genuine = codec::encode(&DapMessage::Announce(announce)).expect("encodable announce");
        let forged_copies =
            FloodIntensity::of_bandwidth(flood_at(i)).forged_copies(u64::from(spec.copies));
        let total = u64::from(spec.copies) + forged_copies;
        let mut genuine_left = u64::from(spec.copies);
        let mut slots_left = total;
        for _ in 0..total {
            // P(this slot genuine) = genuine_left / slots_left — a
            // uniform interleave without materialising the permutation.
            if genuine_left > 0 && shuffle_rng.below(slots_left) < genuine_left {
                tx.send(&genuine).expect("loopback send");
                genuine_left -= 1;
            } else {
                flooder.send_forged(i).expect("loopback send");
            }
            slots_left -= 1;
        }
        drain(&mut rx, at);
        if let Some(ctrl) = controller.as_mut() {
            // Interval boundary: settle the pool, read the reveal-time
            // evidence, and re-posture before the next interval's
            // traffic touches the wire.
            handle.tick();
            handle.quiesce();
            let samples_before = ctrl.samples();
            let directive = ctrl.step(handle.live());
            if ctrl.samples() > samples_before {
                if let Some(emitter) = ctrl_trace.as_mut() {
                    emitter.emit(
                        at.ticks(),
                        dap_obs::TraceEvent::ControlEstimate {
                            epoch: ctrl.epoch(),
                            sample_ppm: ctrl.last_sample_ppm(),
                            p_hat_ppm: ctrl.estimate_ppm(),
                        },
                    );
                }
                // Live posture gauges land in the telemetry slot one
                // past the shards, when the caller provisioned it.
                if let Some(shared) = &publish {
                    if shared.slots() > spec.shards {
                        let mut gauges = Registry::new();
                        ctrl.publish_gauges(&mut gauges);
                        shared.publish(spec.shards, &gauges);
                    }
                }
            }
            if let Some(directive) = directive {
                handle.post_posture(directive, at);
                handle.quiesce();
            }
        }
    }
    // Tail: flush the last reveals.
    for i in spec.intervals.saturating_sub(d) + 1..=spec.intervals {
        let at = SimTime(schedule.start_of(i + d).ticks() + 10);
        if let Some(reveal) = sender.reveal(i) {
            let frame = codec::encode(&DapMessage::Reveal(reveal)).expect("encodable reveal");
            tx.send(&frame).expect("loopback send");
        }
        drain(&mut rx, at);
    }

    let frames = handle.live().frames();
    let report = pool.shutdown_with_report();
    let mut registry = report.registry;
    registry.merge_metrics(&wire.wire_metrics());
    if let Some(ctrl) = &controller {
        ctrl.publish(&mut registry);
    }
    let mut trace = report.trace;
    trace.extend(wire.take_trace());
    if let Some(emitter) = ctrl_trace {
        trace.extend(emitter.into_sink().into_records());
    }
    // The wire and control sources sit past the pool's, so appending
    // their streams keeps the canonical order.
    debug_assert!(dap_obs::is_canonical(&trace), "trace sources out of order");
    let metrics = registry.counters().clone();
    let auth_rate = metrics
        .ratio(keys::NET_REVEAL_AUTH, keys::NET_REVEAL_TOTAL)
        .unwrap_or(0.0);
    LoopbackReport {
        auth_rate,
        expected_rate: 1.0
            - spec
                .flood
                .powi(i32::try_from(spec.buffers).unwrap_or(i32::MAX)),
        frames,
        metrics,
        registry,
        trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_identical_metrics() {
        let spec = LoopbackSpec {
            intervals: 60,
            ..LoopbackSpec::default()
        };
        let a = run_loopback(&spec);
        let b = run_loopback(&spec);
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.frames, b.frames);
        assert!(a.frames > 0);
    }

    #[test]
    fn adaptive_ramp_converges_to_the_ess_and_stays_deterministic() {
        use dap_game::{optimal_buffer_count, DosGameParams};
        let spec = LoopbackSpec {
            intervals: 300,
            buffers: 2,
            flood: 0.1,
            flood_end: Some(0.9),
            adaptive: true,
            trace_depth: 1 << 16,
            ..LoopbackSpec::default()
        };
        let a = run_loopback(&spec);
        let b = run_loopback(&spec);
        // Determinism survives the feedback edge: metrics *and* the
        // full trace (including every PostureChange) are identical.
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.trace, b.trace);
        // The loop actuated, and narrated every re-size.
        let directives = a.metrics.get(keys::CONTROL_DIRECTIVES);
        assert!(directives >= 1, "ramp must trigger at least one re-size");
        let changes = a
            .trace
            .iter()
            .filter(|r| r.event.name() == "posture_change")
            .count() as u64;
        assert_eq!(
            changes,
            directives * spec.shards as u64,
            "each directive re-sizes every shard exactly once"
        );
        // Converged near the offline Algorithm 3 optimum at the plateau.
        let offline = optimal_buffer_count(DosGameParams::paper_defaults(0.9, 1), 50);
        let live_m = a.metrics.get(keys::CONTROL_M) as u32;
        assert!(
            live_m.abs_diff(offline.m) <= 1,
            "live m {live_m} vs offline m* {}",
            offline.m
        );
    }

    #[test]
    fn stationary_clean_adaptive_run_never_flips_posture() {
        let spec = LoopbackSpec {
            intervals: 120,
            buffers: 1,
            flood: 0.0,
            adaptive: true,
            copies: 1,
            ..LoopbackSpec::default()
        };
        let report = run_loopback(&spec);
        assert_eq!(report.metrics.get(keys::CONTROL_DIRECTIVES), 0);
        assert_eq!(report.metrics.get(keys::CONTROL_M), 1);
        assert!(report.metrics.get(keys::CONTROL_SAMPLES) > 0);
        assert!((report.auth_rate - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn ramp_without_adaptive_defense_is_the_static_baseline() {
        let base = LoopbackSpec {
            intervals: 200,
            buffers: 2,
            flood: 0.1,
            flood_end: Some(0.9),
            adaptive: false,
            ..LoopbackSpec::default()
        };
        let static_run = run_loopback(&base);
        let adaptive_run = run_loopback(&LoopbackSpec {
            adaptive: true,
            ..base
        });
        assert_eq!(static_run.metrics.get(keys::CONTROL_DIRECTIVES), 0);
        // The adaptive defender grows `m` under the ramp, so it must
        // authenticate at least as much as the frozen m = 2 baseline.
        assert!(
            adaptive_run.metrics.get(keys::NET_REVEAL_AUTH)
                >= static_run.metrics.get(keys::NET_REVEAL_AUTH),
            "adaptive {} < static {}",
            adaptive_run.metrics.get(keys::NET_REVEAL_AUTH),
            static_run.metrics.get(keys::NET_REVEAL_AUTH)
        );
    }

    #[test]
    fn clean_channel_authenticates_everything() {
        let spec = LoopbackSpec {
            intervals: 50,
            flood: 0.0,
            copies: 1,
            ..LoopbackSpec::default()
        };
        let report = run_loopback(&spec);
        assert_eq!(report.metrics.get(keys::NET_REVEAL_TOTAL), 50);
        assert_eq!(report.metrics.get(keys::NET_REVEAL_AUTH), 50);
        assert!((report.auth_rate - 1.0).abs() < f64::EPSILON);
        assert_eq!(report.metrics.get(keys::NET_DECODE_ERRORS), 0);
        assert_eq!(report.metrics.get(keys::NET_INGRESS_DROPPED), 0);
    }

    #[test]
    fn flooded_run_tracks_one_minus_p_to_m() {
        let spec = LoopbackSpec {
            intervals: 400,
            buffers: 3,
            flood: 0.8,
            copies: 2,
            ..LoopbackSpec::default()
        };
        let report = run_loopback(&spec);
        // Every reveal still weak-authenticates; only eviction hurts.
        assert_eq!(report.metrics.get(keys::NET_REVEAL_WEAK_REJECTED), 0);
        assert_eq!(
            report.metrics.get(keys::NET_REVEAL_AUTH)
                + report.metrics.get(keys::NET_REVEAL_STRONG_REJECTED)
                + report.metrics.get(keys::NET_REVEAL_NO_CANDIDATE),
            report.metrics.get(keys::NET_REVEAL_TOTAL)
        );
        // 1 − 0.8³ = 0.488; seeded run, wide tolerance for the finite-n
        // hypergeometric correction.
        assert!(
            (report.auth_rate - report.expected_rate).abs() < 0.1,
            "rate {} expected {}",
            report.auth_rate,
            report.expected_rate
        );
    }

    #[test]
    fn lossy_wire_still_balances_counters() {
        let spec = LoopbackSpec {
            intervals: 120,
            loss: 0.2,
            flood: 0.5,
            copies: 2,
            ..LoopbackSpec::default()
        };
        let report = run_loopback(&spec);
        let m = &report.metrics;
        assert_eq!(
            m.get(keys::NET_WIRE_SENT),
            m.get(keys::NET_WIRE_LOST) + report.frames
        );
        // Reveals can be lost, so fewer than `intervals` arrive — but
        // every one that does is accounted for.
        assert!(m.get(keys::NET_REVEAL_TOTAL) <= 120);
        assert_eq!(
            m.get(keys::NET_REVEAL_AUTH)
                + m.get(keys::NET_REVEAL_STRONG_REJECTED)
                + m.get(keys::NET_REVEAL_NO_CANDIDATE)
                + m.get(keys::NET_REVEAL_WEAK_REJECTED),
            m.get(keys::NET_REVEAL_TOTAL)
        );
    }

    #[test]
    fn corruption_surfaces_as_decode_or_auth_failures() {
        let spec = LoopbackSpec {
            intervals: 80,
            flood: 0.0,
            copies: 1,
            corrupt: 0.3,
            ..LoopbackSpec::default()
        };
        let report = run_loopback(&spec);
        let corrupted = report.metrics.get(keys::NET_WIRE_CORRUPTED);
        assert!(corrupted > 0, "corruption never sampled");
        // A flipped bit can land anywhere (tag, index, MAC, key,
        // message): decode errors, weak rejects, strong rejects and
        // missing candidates are all legitimate fates — what must hold
        // is that not everything authenticates.
        assert!(report.metrics.get(keys::NET_REVEAL_AUTH) < 80);
    }
}
