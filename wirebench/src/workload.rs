//! The three workloads and their fixed shapes. Why each exists, and
//! which layer it is meant to stress, is in `wirebench/README.md`.

use dap_core::DapParams;
use dap_net::fleet::{fleet_params, FleetSpec};
use dap_net::RoutePolicy;

/// Which traffic mix a run replays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One untagged sender, stationary flood, no interval barrier.
    Flood,
    /// Hundreds of tagged senders, spoofed announces, windowed
    /// prioritized drain with a tick + quiesce barrier per interval.
    Fleet,
    /// One sender under a ramping flood, live control plane and flight
    /// recorder, barrier per interval.
    Adaptive,
}

/// A workload's fixed shape. Everything the generator and the replay
/// need besides the seed.
#[derive(Debug, Clone)]
pub struct Workload {
    /// What mix this is.
    pub kind: Kind,
    /// Senders on the wire (ids `1..=senders` when tagged).
    pub senders: u64,
    /// Intervals of traffic in one round's corpus.
    pub intervals: u64,
    /// Forged bandwidth share at interval 1.
    pub flood_start: f64,
    /// Forged bandwidth share reached at half the round, then held.
    pub flood_end: f64,
    /// Operator-pinned sender ids.
    pub pins: Vec<u64>,
}

/// Genuine announce copies per sender per interval.
pub const COPIES: u32 = 4;

/// Reservoir buffers `m` every receiver bootstraps with.
pub const BUFFERS: usize = 4;

/// Per-shard ingress queue depth, as `dapd --role receiver` defaults it.
pub const QUEUE_DEPTH: usize = 1024;

/// `dapd --assert-soak`'s default tolerance around `1 − p^m`.
pub const SOAK_TOLERANCE: f64 = 0.08;

/// Adaptive runs keep the operator's capture posture: 8192-record
/// rings, a span for every datagram.
pub const ADAPTIVE_TRACE_DEPTH: usize = 8192;

impl Workload {
    /// The workload called `name`, if there is one.
    #[must_use]
    pub fn by_name(name: &str) -> Option<Self> {
        let flood = Self {
            kind: Kind::Flood,
            senders: 1,
            intervals: 1000,
            flood_start: 0.9,
            flood_end: 0.9,
            pins: Vec::new(),
        };
        match name {
            "flood" => Some(flood),
            "adaptive" => Some(Self {
                kind: Kind::Adaptive,
                intervals: 2000,
                flood_start: 0.1,
                ..flood
            }),
            "fleet" => Some(Self {
                kind: Kind::Fleet,
                senders: 256,
                intervals: 150,
                flood_start: 0.5,
                flood_end: 0.5,
                pins: vec![1, 2, 3, 4],
            }),
            _ => None,
        }
    }

    /// Stable lowercase name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self.kind {
            Kind::Flood => "flood",
            Kind::Fleet => "fleet",
            Kind::Adaptive => "adaptive",
        }
    }

    /// The forged bandwidth share at interval `i`: a linear ramp from
    /// `flood_start` to `flood_end` over the first half of the round,
    /// then a plateau.
    #[must_use]
    pub fn flood_at(&self, i: u64) -> f64 {
        let half = (self.intervals / 2).max(1);
        let t = ((i.saturating_sub(1)) as f64 / half as f64).min(1.0);
        self.flood_start + (self.flood_end - self.flood_start) * t
    }

    /// Whether frames carry a `SenderId` tag (the fleet posture).
    #[must_use]
    pub fn tagged(&self) -> bool {
        self.kind == Kind::Fleet
    }

    /// Protocol parameters every sender runs (100-tick intervals,
    /// `d = 1`, Δ = 0).
    #[must_use]
    pub fn params(&self) -> DapParams {
        fleet_params(BUFFERS)
    }

    /// Independent corpora a run cycles through, round by round, so a
    /// run's figures average over several seeded wires, not one. `flood`
    /// uses many short corpora: a round of about 1000 intervals
    /// is one p99 window, and sixteen of them carry enough reveals to
    /// pin `auth_permille` to about 1%. `fleet` rounds are long enough
    /// (150 intervals) that each round's first interval, which admits
    /// all 256 sessions, stays under 1% of a window.
    #[must_use]
    pub fn corpora(&self) -> usize {
        match self.kind {
            Kind::Flood => 16,
            Kind::Adaptive => 4,
            Kind::Fleet => 3,
        }
    }

    /// Key-chain length covering a round plus the disclosure tail.
    #[must_use]
    pub fn chain_len(&self) -> usize {
        usize::try_from(self.intervals).expect("interval count fits usize") + 2
    }

    /// Whether the generator settles the pool (tick + quiesce) after
    /// every interval.
    #[must_use]
    pub fn barrier(&self) -> bool {
        matches!(self.kind, Kind::Fleet | Kind::Adaptive)
    }

    /// Whether shards buffer a window and drain it at each tick.
    #[must_use]
    pub fn windowed(&self) -> bool {
        self.kind == Kind::Fleet
    }

    /// Whether the live control plane runs.
    #[must_use]
    pub fn adaptive(&self) -> bool {
        self.kind == Kind::Adaptive
    }

    /// What the pool hashes to pick a shard.
    #[must_use]
    pub fn route(&self) -> RoutePolicy {
        if self.tagged() {
            RoutePolicy::BySender
        } else {
            RoutePolicy::ByInterval
        }
    }

    /// The per-shard, per-window verify budget. Finite on `fleet`, so
    /// the prioritized drain classifies, orders and prefetches every
    /// window; twice the mean per-shard window load, so at the
    /// seed's routing nothing is shed and any shedding a change causes
    /// shows as failed operations.
    #[must_use]
    pub fn drain_budget(&self, shards: usize) -> usize {
        if !self.windowed() {
            return usize::MAX;
        }
        let forged = dap_simnet::FloodIntensity::of_bandwidth(self.flood_end)
            .forged_copies(u64::from(COPIES));
        let per_interval = self.senders * (1 + u64::from(COPIES) + forged);
        let per_shard = per_interval.div_ceil(shards as u64);
        usize::try_from(2 * per_shard).expect("budget fits usize")
    }

    /// The fleet spec a `FleetShard` reads its session-table shape from.
    #[must_use]
    pub fn fleet_spec(&self, chain_seed: u64, shards: usize) -> FleetSpec {
        FleetSpec {
            seed: chain_seed,
            senders: self.senders,
            intervals: self.intervals,
            buffers: BUFFERS,
            shards,
            queue_depth: QUEUE_DEPTH,
            flood: self.flood_end,
            copies: COPIES,
            pins: self.pins.clone(),
            drain_budget: self.drain_budget(shards),
            ..FleetSpec::default()
        }
    }
}
