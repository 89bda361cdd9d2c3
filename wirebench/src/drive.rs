//! The pooled run: one generator thread replays a corpus through the
//! program's public entry points — `PoolHandle::ingest`/`tick`/`quiesce`/`post_posture`,
//! `ControlPlane::step`, `ReceiverPool::shutdown_with_report` — in a
//! closed loop under `OverflowPolicy::Block`, so verdicts are a pure
//! function of the seed.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

use dap_core::{DapSender, PostureDirective};
use dap_net::fleet::fleet_directory;
use dap_net::{
    ControlConfig, ControlPlane, DapShard, FleetShard, OverflowPolicy, PoolConfig, PoolHandle,
    PoolObs, ReceiverPool,
};
use dap_obs::{TimeSource, TraceRecord};
use dap_simnet::{keys, Registry};

use crate::corpus::Corpus;
use crate::workload::{Workload, ADAPTIVE_TRACE_DEPTH, BUFFERS, QUEUE_DEPTH};

/// A generator call into the program that the traced run wraps in a span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    /// `PoolHandle::ingest`.
    Ingest,
    /// `PoolHandle::tick`.
    Tick,
    /// `PoolHandle::quiesce`.
    Quiesce,
    /// `PoolHandle::post_posture`.
    PostPosture,
    /// `ControlPlane::step` that held the posture without solving.
    StepHeld,
    /// `ControlPlane::step` that re-ran Algorithm 3.
    StepSolved,
    /// `LiveCounters::processed` polls at streaming interval boundaries.
    Poll,
    /// `ReceiverPool::shutdown_with_report`.
    Shutdown,
}

/// Number of [`Span`] kinds.
pub const SPANS: usize = 8;

/// Where a run's spans go. The untraced run uses [`Off`], which
/// compiles every span away.
pub trait Tracer {
    /// Whether spans are recorded at all.
    const ON: bool;
    /// Records one span of `ns` nanoseconds.
    fn record(&mut self, span: Span, ns: u64);
}

/// No tracing.
pub struct Off;

impl Tracer for Off {
    const ON: bool = false;
    fn record(&mut self, _span: Span, _ns: u64) {}
}

/// Spans kept in memory reserved up front: one duration per call, per
/// kind, written out (summarised) when the round ends.
pub struct Spans {
    /// Durations per kind, indexed by `Span as usize`.
    pub samples: [Vec<u32>; SPANS],
    /// Summed durations per kind (exact, not saturated).
    pub sum_ns: [u64; SPANS],
}

impl Spans {
    /// Reserves room for a round over `corpus` (no growth while timing).
    #[must_use]
    pub fn for_corpus(corpus: &Corpus) -> Self {
        Self {
            samples: std::array::from_fn(|i| {
                Vec::with_capacity(if i == Span::Ingest as usize {
                    corpus.len()
                } else {
                    corpus.slots.len() * 2 + 16
                })
            }),
            sum_ns: [0; SPANS],
        }
    }

    /// Forgets the previous round's spans, keeping the memory.
    pub fn clear(&mut self) {
        for v in &mut self.samples {
            v.clear();
        }
        self.sum_ns = [0; SPANS];
    }

    /// Durations recorded for `span`.
    #[must_use]
    pub fn of(&self, span: Span) -> &[u32] {
        &self.samples[span as usize]
    }

    /// Total time inside `span` calls.
    #[must_use]
    pub fn total_ns(&self, span: Span) -> u64 {
        self.sum_ns[span as usize]
    }

    /// Total time inside any span. Every span is a top-level generator
    /// call, so none overlaps another.
    #[must_use]
    pub fn covered_ns(&self) -> u64 {
        self.sum_ns.iter().sum()
    }
}

impl Tracer for Spans {
    const ON: bool = true;
    fn record(&mut self, span: Span, ns: u64) {
        self.samples[span as usize].push(u32::try_from(ns).unwrap_or(u32::MAX));
        self.sum_ns[span as usize] += ns;
    }
}

#[inline]
fn span<T: Tracer, R>(tr: &mut T, s: Span, f: impl FnOnce() -> R) -> R {
    if !T::ON {
        return f();
    }
    let t = Instant::now();
    let r = f();
    tr.record(s, elapsed_ns(t));
    r
}

fn elapsed_ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Receiver-side set-up cost of one round.
#[derive(Debug, Clone, Copy, Default)]
pub struct Setup {
    /// Bootstrap chain or fleet directory derivation.
    pub chains_ns: u64,
    /// `ReceiverPool::spawn_with_obs`.
    pub spawn_ns: u64,
    /// Everything receiver-side.
    pub total_ns: u64,
}

/// What one pooled round observed.
#[derive(Clone)]
pub struct Round {
    /// The round's (shut-down) pool handle: its `shard_of` is the
    /// routing the layer replay reuses.
    pub route: PoolHandle,
    /// Shards the pool ran.
    pub shards: usize,
    /// Receiver set-up cost.
    pub setup: Setup,
    /// First hand-over until `shutdown_with_report` returned.
    pub wall_ns: u64,
    /// Datagrams handed to the receiver.
    pub datagrams: u64,
    /// Datagrams dropped at ingress.
    pub dropped: u64,
    /// Datagrams shed by the drain budget.
    pub shed: u64,
    /// Merged counter render — the run's behavioural fingerprint.
    pub counters: String,
    /// Reveals authenticated.
    pub auth: u64,
    /// Reveals the receiver decided.
    pub reveals: u64,
    /// Trace records the pool returned.
    pub trace_records: u64,
    /// Trace records the pool's rings overwrote.
    pub ring_shed: u64,
    /// `control.solves`: control steps that re-ran Algorithm 3.
    pub solves: u64,
    /// Directives posted, tagged with the corpus slot they followed.
    pub directives: Vec<(usize, PostureDirective)>,
}

/// Shard-local secret salt (μMACs never cross shards).
fn local_seed(shard: usize) -> [u8; 3] {
    [b'w', b'b', shard as u8]
}

/// Spawns the receiver the way `dapd --role receiver` does (wall clock,
/// `shards` workers, `Block` here so the loop is closed), timing the
/// set-up.
fn spawn(w: &Workload, corpus: &Corpus, shards: usize) -> (ReceiverPool, Setup) {
    let t = Instant::now();
    let params = w.params();
    let config = PoolConfig {
        shards,
        queue_depth: QUEUE_DEPTH,
        overflow: OverflowPolicy::Block,
        route: w.route(),
        drain_budget: w.drain_budget(shards),
        pins: Arc::new(w.pins.iter().copied().collect()),
    };
    let obs = PoolObs {
        time: TimeSource::wall(),
        trace_depth: if w.adaptive() {
            ADAPTIVE_TRACE_DEPTH
        } else {
            0
        },
        span_every: u64::from(w.adaptive()),
        ..PoolObs::default()
    };
    let (pool, chains_ns, spawn_ns) = if w.tagged() {
        let directory = fleet_directory(corpus.chain_seed, w.senders, w.chain_len(), params);
        let chains_ns = elapsed_ns(t);
        let spec = w.fleet_spec(corpus.chain_seed, shards);
        let s = Instant::now();
        let pool = ReceiverPool::spawn_with_obs(
            config,
            corpus.pool_seed,
            |shard| FleetShard::with_directory(&spec, shard, Arc::clone(&directory)),
            obs,
        );
        (pool, chains_ns, elapsed_ns(s))
    } else {
        let bootstrap =
            DapSender::new(&corpus.chain_seed.to_be_bytes(), w.chain_len(), params).bootstrap();
        let chains_ns = elapsed_ns(t);
        let s = Instant::now();
        let pool = ReceiverPool::spawn_with_obs(
            config,
            corpus.pool_seed,
            |shard| DapShard::new(bootstrap, &local_seed(shard)),
            obs,
        );
        (pool, chains_ns, elapsed_ns(s))
    };
    let setup = Setup {
        chains_ns,
        spawn_ns,
        total_ns: elapsed_ns(t),
    };
    (pool, setup)
}

/// A verifier for the layer replay, built exactly as the pool's shard
/// `shard` is.
#[must_use]
pub fn dap_shard(w: &Workload, corpus: &Corpus, shard: usize) -> DapShard {
    let bootstrap =
        DapSender::new(&corpus.chain_seed.to_be_bytes(), w.chain_len(), w.params()).bootstrap();
    DapShard::new(bootstrap, &local_seed(shard))
}

/// Fleet verifiers for the layer replay, built exactly as the pool's.
#[must_use]
pub fn fleet_shards(w: &Workload, corpus: &Corpus, shards: usize) -> Vec<FleetShard> {
    let directory = fleet_directory(corpus.chain_seed, w.senders, w.chain_len(), w.params());
    let spec = w.fleet_spec(corpus.chain_seed, shards);
    (0..shards)
        .map(|shard| FleetShard::with_directory(&spec, shard, Arc::clone(&directory)))
        .collect()
}

/// `control.solves` as the control plane counts it.
fn plane_solves(ctrl: &ControlPlane) -> u64 {
    let mut reg = Registry::new();
    ctrl.publish(&mut reg);
    reg.counters().get(keys::CONTROL_SOLVES)
}

/// Queue items handed to the pool so far — what `processed()` must
/// reach for everything handed over to be done.
fn handed(handle: &PoolHandle) -> u64 {
    let live = handle.live();
    live.frames() + live.ticks() + live.postures()
}

/// Trace records the pool's rings overwrote: each source numbers its
/// records from 0, so a source whose newest record is `seq` emitted
/// `seq + 1` and the rest were shed.
fn ring_shed(trace: &[TraceRecord]) -> u64 {
    let mut per_source: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
    for r in trace {
        let e = per_source.entry(r.source).or_insert((0, 0));
        e.0 = e.0.max(r.seq + 1);
        e.1 += 1;
    }
    per_source
        .values()
        .map(|(emitted, kept)| emitted - kept)
        .sum()
}

/// Runs one round: set up a receiver, replay the whole corpus, shut
/// down. Per-interval latencies are appended to `intervals_ns`.
///
/// # Panics
///
/// Panics if the program panics (a pool worker or the control plane);
/// the caller counts the round's datagrams as failed.
pub fn run_round<T: Tracer>(
    w: &Workload,
    corpus: &Corpus,
    shards: usize,
    tr: &mut T,
    intervals_ns: &mut Vec<u64>,
) -> Round {
    let (pool, setup) = spawn(w, corpus, shards);
    let handle = pool.handle();
    let mut controller = w.adaptive().then(|| {
        let m = u32::try_from(BUFFERS).expect("buffer count fits u32");
        ControlPlane::new(m, ControlConfig::default())
    });
    let mut solves_seen = 0u64;
    let mut directives = Vec::new();
    let mut pending: VecDeque<(Instant, u64)> = VecDeque::new();
    let mut datagrams = 0u64;
    let mut next = 0usize;

    let t0 = Instant::now();
    for (slot_idx, slot) in corpus.slots.iter().enumerate() {
        let start = Instant::now();
        for k in next..slot.end {
            span(tr, Span::Ingest, || {
                handle.ingest(corpus.datagram(k), slot.at)
            });
        }
        datagrams += (slot.end - next) as u64;
        next = slot.end;

        if !w.barrier() {
            // Streaming: poll once per boundary, never per datagram.
            pending.push_back((start, handed(&handle)));
            let done = span(tr, Span::Poll, || handle.live().processed());
            while pending.front().is_some_and(|&(_, target)| target <= done) {
                let (s, _) = pending.pop_front().expect("front exists");
                intervals_ns.push(elapsed_ns(s));
            }
            continue;
        }
        span(tr, Span::Tick, || handle.tick());
        span(tr, Span::Quiesce, || handle.quiesce());
        if let Some(ctrl) = controller.as_mut() {
            let directive = if T::ON {
                // Held or re-solved is read from the plane's own
                // counter, after the step's span closes.
                let t = Instant::now();
                let directive = ctrl.step(handle.live());
                let ns = elapsed_ns(t);
                let solves = plane_solves(ctrl);
                let kind = if solves > solves_seen {
                    Span::StepSolved
                } else {
                    Span::StepHeld
                };
                tr.record(kind, ns);
                solves_seen = solves;
                directive
            } else {
                ctrl.step(handle.live())
            };
            if let Some(directive) = directive {
                span(tr, Span::PostPosture, || {
                    handle.post_posture(directive, slot.at);
                });
                span(tr, Span::Quiesce, || handle.quiesce());
                directives.push((slot_idx, directive));
            }
        }
        intervals_ns.push(elapsed_ns(start));
    }
    while let Some(&(s, target)) = pending.front() {
        if span(tr, Span::Poll, || handle.live().processed()) >= target {
            intervals_ns.push(elapsed_ns(s));
            pending.pop_front();
        } else {
            std::thread::yield_now();
        }
    }
    let (dropped, shed) = (handle.live().dropped(), handle.live().shed());
    let report = span(tr, Span::Shutdown, || pool.shutdown_with_report());
    let wall_ns = elapsed_ns(t0);

    let counters = report.registry.counters();
    Round {
        route: handle,
        shards,
        setup,
        wall_ns,
        datagrams,
        dropped,
        shed,
        counters: counters.render(),
        auth: counters.get(keys::NET_REVEAL_AUTH),
        reveals: counters.get(keys::NET_REVEAL_TOTAL),
        trace_records: report.trace.len() as u64,
        ring_shed: ring_shed(&report.trace),
        solves: controller.as_ref().map_or(0, plane_solves),
        directives,
    }
}
