//! `dapd` — DAP on a wire.
//!
//! One binary, five modes; `dapd --help` prints every option:
//!
//! * `--loopback` — a deterministic in-process campaign (the ci.sh soak
//!   gate);
//! * `--fleet` — a deterministic fleet campaign (the ci.sh fleet gate):
//!   N tagged senders, per-sender spoofing flood, session-table shards;
//! * `--role receiver | sender | flooder` — real UDP, one role per
//!   terminal:
//!
//! ```text
//! dapd --role receiver --bind 127.0.0.1:7440
//! dapd --role sender   --target 127.0.0.1:7440
//! dapd --role flooder  --target 127.0.0.1:7440 --flood 0.9
//! ```
//!
//! Adaptive defense (DESIGN §13): `--adaptive` runs the online control
//! plane — the driver estimates the forged share from reveal-time buffer
//! evidence and re-sizes every shard's reservoirs at the game's optimum
//! as the flood changes. `--flood-end P2` ramps the flood from `--flood`
//! to P2 over the first half of the run. `--assert-adaptive` exits
//! nonzero unless the loop actuated and the final m landed within ±1 of
//! the offline Algorithm 3 optimum; `--assert-posture-stable` exits
//! nonzero if any directive fired at all (the clean-wire no-flap gate).
//!
//! Overload posture (DESIGN §11): `--pin 1,2,7` (or `--pin-first N` for
//! ids 1..=N) marks operator-pinned senders — never evicted while an
//! unpinned session exists, drained first under pressure.
//! `--drain-budget B` caps per-shard verifies per interval (the priority
//! drain sheds the rest, attributed under `net.shed.*`). `--adversary`
//! picks the attack: bernoulli | burst-reanchor | collusion |
//! replay-edge | adaptive | reputation-farming.
//! `--assert-pinned-floor P` exits nonzero if any pinned sender's auth
//! rate lands below P permille.
//!
//! `--seed` and `--intervals` together stand in for the out-of-band
//! bootstrap a real deployment would provision: the receiver re-derives
//! the sender's chain (same seed, same length — the commitment is the
//! chain's end) instead of being handed the commitment. One tick is
//! `--tick-us` microseconds (default 1000 — 100 ms intervals).
//!
//! Observability: `--telemetry ADDR` serves the live registry in
//! Prometheus text format over HTTP (including the control plane's
//! `control_gauge_*` posture gauges under `--adaptive`); `--trace-out
//! PATH` writes the structured trace as JSONL — the header line's
//! timestamp comes from the run's own clock, so a seeded loopback/fleet
//! trace is byte-identical whole-file across same-seed runs.
//! `--span-every N` sets the flight-recorder cadence (default: every
//! verified datagram when traced; feed the file to `daptrace` for
//! timelines, audits and stage-latency reports); the receiver role
//! prints its final sorted telemetry snapshot on Ctrl-C or when
//! `--duration-ms` elapses.
//!
//! Options are strict: an unknown option, a missing value, a stray
//! argument, or a value that does not parse or lies out of range (a
//! flood share outside `[0, 1)`, a loss or corruption probability
//! outside `[0, 1]`, zero buffers, shards, queue depth or senders)
//! prints usage and exits 2 before any work starts; `--help` prints
//! usage and exits 0.

use std::sync::Arc;
use std::time::{Duration, Instant};

use dap_core::{DapParams, DapSender, SenderId};
use dap_net::clock::{NetClock, RealClock};
use dap_net::fleet::{run_fleet_with, FleetSpec};
use dap_net::loopback::{run_loopback_with, LoopbackSpec};
use dap_net::opts::{Opts, OptsError, Syntax};
use dap_net::pool::{DapShard, OverflowPolicy, PoolConfig, PoolObs, ReceiverPool, RoutePolicy};
use dap_net::pump::{Flooder, SenderPump};
use dap_net::telemetry::{SharedRegistry, TelemetryServer};
use dap_net::transport::{Transport, UdpTransport};
use dap_obs::{JsonlSink, TimeSource, TraceRecord, TraceSink};
use dap_simnet::SimDuration;

const SYNTAX: Syntax<'static> = Syntax {
    flags: "loopback fleet assert-soak adaptive assert-adaptive assert-posture-stable",
    keys: "seed intervals buffers shards queue-depth flood flood-end copies loss corrupt \
           tolerance trace-out trace-depth span-every telemetry senders max-sessions \
           session-budget-bits pin pin-first adversary drain-budget assert-pinned-floor \
           role bind target duration-ms tick-us sender-id rate spoof",
    positional: 0,
    usage: "usage: dapd --loopback [--seed N] [--intervals N] [--buffers M] [--shards S]
                 [--queue-depth Q] [--flood P] [--flood-end P2] [--copies G]
                 [--loss L] [--corrupt C] [--tolerance T] [--adaptive]
                 [--assert-soak] [--assert-adaptive] [--assert-posture-stable]
                 [--trace-out PATH] [--trace-depth D] [--span-every N]
                 [--telemetry ADDR]
       dapd --fleet [--senders N] [--seed N] [--intervals N] [--buffers M]
                 [--shards S] [--queue-depth Q] [--flood P] [--copies G]
                 [--max-sessions K] [--session-budget-bits B] [--tolerance T]
                 [--pin IDS] [--pin-first N] [--adversary CLASS]
                 [--drain-budget B] [--assert-pinned-floor PERMILLE]
                 [--adaptive] [--assert-soak] [--assert-adaptive]
                 [--assert-posture-stable] [--trace-out PATH] [--trace-depth D]
                 [--span-every N] [--telemetry ADDR]
       dapd --role receiver --bind ADDR [--seed N] [--intervals N] [--buffers M]
                 [--shards S] [--queue-depth Q] [--duration-ms T] [--tick-us U]
                 [--telemetry ADDR] [--trace-out PATH]
       dapd --role sender --target ADDR [--seed N] [--intervals N] [--copies G]
                 [--tick-us U] [--sender-id ID]
       dapd --role flooder --target ADDR [--flood P] [--rate FPS]
                 [--duration-ms T] [--seed N] [--tick-us U] [--spoof ID]
Flood shares P, P2 lie in [0, 1); loss L and corruption C in [0, 1];
--buffers, --shards, --queue-depth and --senders take 1 or more.",
};

/// Stores a Ctrl-C so the receiver loop can drain, snapshot and exit
/// cleanly instead of dying mid-run with its telemetry unprinted.
#[cfg(unix)]
mod sigint {
    use std::sync::atomic::{AtomicBool, Ordering};

    static INTERRUPTED: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_sigint(_signum: i32) {
        INTERRUPTED.store(true, Ordering::SeqCst);
    }

    /// Installs the SIGINT handler (raw `signal(2)` — the workspace is
    /// hermetic, so no signal-hook crate; the handler only stores an
    /// atomic flag, which is async-signal-safe).
    pub fn install() {
        const SIGINT: i32 = 2;
        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        }
        unsafe {
            signal(SIGINT, on_sigint);
        }
    }

    /// Whether a SIGINT arrived since `install`.
    pub fn interrupted() -> bool {
        INTERRUPTED.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod sigint {
    pub fn install() {}

    pub fn interrupted() -> bool {
        false
    }
}

fn main() {
    let opts = SYNTAX.parse_env();
    if let Err(err) = run(&opts) {
        SYNTAX.fail(&err);
    }
}

/// Dispatches to the mode. Every option is read and checked before a
/// mode starts work, so a refused command line never half-runs.
fn run(opts: &Opts) -> Result<(), OptsError> {
    if opts.flag("loopback") {
        return run_loopback_mode(opts);
    }
    if opts.flag("fleet") {
        return run_fleet_mode(opts);
    }
    match opts.require(
        "role",
        "--loopback, --fleet or --role sender|receiver|flooder",
    )? {
        "sender" => run_sender(opts),
        "receiver" => run_receiver(opts),
        "flooder" => run_flooder(opts),
        other => Err(OptsError::OutOfRange {
            key: "role".into(),
            raw: other.into(),
            domain: "sender | receiver | flooder",
        }),
    }
}

/// Shared protocol parameters for the UDP roles: 100-tick intervals,
/// `d = 1`, a generous Δ (wall clocks on two processes are loose), `m`
/// buffers.
fn udp_params(buffers: usize) -> DapParams {
    DapParams::new(SimDuration(100), 1, 30, buffers)
}

/// Trace ring depth: explicit `--trace-depth`, else a generous default
/// whenever `--trace-out` asks for the trace at all.
fn trace_depth(opts: &Opts) -> Result<usize, OptsError> {
    let default = if opts.get("trace-out").is_some() {
        65_536
    } else {
        0
    };
    opts.get_or("trace-depth", default)
}

/// Flight-recorder cadence: explicit `--span-every`, else record every
/// verified datagram whenever the run is traced at all (spans are what
/// `daptrace report` breaks latency down from).
fn span_every(opts: &Opts) -> Result<u64, OptsError> {
    let default = u64::from(trace_depth(opts)? > 0);
    opts.get_or("span-every", default)
}

/// Writes the sorted trace as JSONL. The header line's timestamp comes
/// from the run's own `time` — frozen (0) for the deterministic
/// campaigns, so two same-seed traced runs are byte-identical whole-file
/// (no `tail -n +2` needed to compare them), wall for the UDP roles.
/// The note goes to stderr: stdout is the deterministic snapshot the
/// ci.sh gates `cmp`, and the note embeds a run-specific path.
fn write_trace(path: &str, records: &[TraceRecord], time: &TimeSource) {
    let mut sink = JsonlSink::create(path, time).expect("create --trace-out file");
    for record in records {
        sink.record(record.clone());
    }
    sink.finish().expect("flush --trace-out file");
    eprintln!("trace: {} records -> {path}", records.len());
}

fn run_loopback_mode(opts: &Opts) -> Result<(), OptsError> {
    let tolerance = opts.get_or("tolerance", 0.08)?;
    let spec = LoopbackSpec {
        seed: opts.get_or("seed", 2016)?,
        intervals: opts.get_or("intervals", 400)?,
        buffers: opts.count("buffers", 4)?,
        shards: opts.count("shards", 4)?,
        queue_depth: opts.count("queue-depth", 256)?,
        flood: opts.share("flood")?.unwrap_or(0.9),
        copies: opts.get_or("copies", 4)?,
        loss: opts.probability("loss")?,
        corrupt: opts.probability("corrupt")?,
        flood_end: opts.share("flood-end")?,
        adaptive: opts.flag("adaptive"),
        trace_depth: trace_depth(opts)?,
        span_every: span_every(opts)?,
    };
    println!(
        "dapd --loopback seed={} intervals={} m={} shards={} p={} p_end={} copies={} loss={} \
         corrupt={} adaptive={}",
        spec.seed,
        spec.intervals,
        spec.buffers,
        spec.shards,
        spec.flood,
        spec.flood_end.unwrap_or(spec.flood),
        spec.copies,
        spec.loss,
        spec.corrupt,
        spec.adaptive
    );
    // One telemetry slot per shard plus the control plane's gauge slot.
    let shared = opts
        .get("telemetry")
        .map(|_| Arc::new(SharedRegistry::new(spec.shards + 1)));
    let server = opts.get("telemetry").map(|addr| {
        let server = TelemetryServer::bind(addr, Arc::clone(shared.as_ref().expect("built above")))
            .expect("bind --telemetry listener");
        eprintln!("telemetry: http://{}/", server.local_addr());
        server
    });
    let report = run_loopback_with(&spec, shared);
    print!("{}", report.registry.render());
    println!(
        "auth_rate {:.4}   expected {:.4}   (1 - p^m)",
        report.auth_rate, report.expected_rate
    );
    if let Some(path) = opts.get("trace-out") {
        write_trace(path, &report.trace, &TimeSource::frozen());
    }
    if opts.flag("assert-soak") {
        assert_soak(&spec, &report, tolerance);
        println!("soak: ok");
    }
    if opts.flag("assert-adaptive") {
        assert_adaptive(spec.flood_end.unwrap_or(spec.flood), &report.metrics);
        println!("adaptive: ok");
    }
    if opts.flag("assert-posture-stable") {
        assert_posture_stable(&report.metrics);
        println!("posture: stable");
    }
    if let Some(server) = server {
        server.stop();
    }
    Ok(())
}

/// The adaptive-gate invariants: the control loop sampled evidence,
/// actuated at least once, and commanded a final `m` within ±1 of the
/// offline Algorithm 3 optimum for the final flood share.
fn assert_adaptive(final_flood: f64, m: &dap_simnet::Metrics) {
    use dap_game::{optimal_buffer_count, DosGameParams};
    use dap_simnet::keys;

    assert!(m.get(keys::CONTROL_SAMPLES) > 0, "no evidence sampled");
    assert!(
        m.get(keys::CONTROL_DIRECTIVES) >= 1,
        "the control loop never actuated"
    );
    let offline = optimal_buffer_count(DosGameParams::paper_defaults(final_flood, 1), 50);
    let live = u32::try_from(m.get(keys::CONTROL_M)).expect("control.m fits u32");
    assert!(
        live.abs_diff(offline.m) <= 1,
        "live m {live} vs offline m* {} at p = {final_flood}",
        offline.m
    );
}

/// The no-flap gate: on a wire whose measured forged share never
/// leaves the solver's current optimum, no directive may fire.
fn assert_posture_stable(m: &dap_simnet::Metrics) {
    use dap_simnet::keys;

    assert!(m.get(keys::CONTROL_SAMPLES) > 0, "no evidence sampled");
    assert_eq!(
        m.get(keys::CONTROL_DIRECTIVES),
        0,
        "stationary run flipped posture"
    );
}

fn run_fleet_mode(opts: &Opts) -> Result<(), OptsError> {
    let tolerance = opts.get_or("tolerance", 0.08)?;
    let pinned_floor: Option<u64> = opts.parsed("assert-pinned-floor")?;
    let spec = FleetSpec {
        seed: opts.get_or("seed", 2016)?,
        senders: opts.count("senders", 64)?,
        intervals: opts.get_or("intervals", 8)?,
        buffers: opts.count("buffers", 4)?,
        shards: opts.count("shards", 4)?,
        queue_depth: opts.count("queue-depth", 4096)?,
        flood: opts.share("flood")?.unwrap_or(0.8),
        copies: opts.get_or("copies", 4)?,
        max_sessions: opts.get_or("max-sessions", usize::MAX)?,
        memory_budget_bits: opts.get_or("session-budget-bits", 16 * 1024 * 1024)?,
        trace_depth: trace_depth(opts)?,
        span_every: span_every(opts)?,
        pins: opts.pin_roster()?.into_iter().collect(),
        adversary: opts.get_or("adversary", dap_net::AdversaryClass::Bernoulli)?,
        drain_budget: opts.get_or("drain-budget", usize::MAX)?,
        adaptive: opts.flag("adaptive"),
    };
    println!(
        "dapd --fleet seed={} senders={} intervals={} m={} shards={} p={} copies={} budget={}b \
         adversary={} pins={} drain_budget={} adaptive={}",
        spec.seed,
        spec.senders,
        spec.intervals,
        spec.buffers,
        spec.shards,
        spec.flood,
        spec.copies,
        spec.memory_budget_bits,
        spec.adversary.label(),
        spec.pins.len(),
        if spec.drain_budget == usize::MAX {
            "unbounded".to_string()
        } else {
            spec.drain_budget.to_string()
        },
        spec.adaptive
    );
    // One telemetry slot per shard plus the control plane's gauge slot.
    let shared = opts
        .get("telemetry")
        .map(|_| Arc::new(SharedRegistry::new(spec.shards + 1)));
    let server = opts.get("telemetry").map(|addr| {
        let server = TelemetryServer::bind(addr, Arc::clone(shared.as_ref().expect("built above")))
            .expect("bind --telemetry listener");
        eprintln!("telemetry: http://{}/", server.local_addr());
        server
    });
    let report = run_fleet_with(&spec, shared);
    print!("{}", report.registry.render());
    println!(
        "auth_rate {:.4}   expected {:.4}   (1 - p^m, per sender)",
        report.auth_rate, report.expected_rate
    );
    if let (Some(lo), Some(hi)) = (
        report.min_sender_auth_permille,
        report.max_sender_auth_permille,
    ) {
        println!("sender envelope: {lo}..{hi} permille");
    }
    if let (Some(lo), Some(hi)) = (
        report.min_pinned_auth_permille,
        report.max_pinned_auth_permille,
    ) {
        println!("pinned envelope: {lo}..{hi} permille");
    }
    if let (Some(lo), Some(hi)) = (
        report.min_unpinned_auth_permille,
        report.max_unpinned_auth_permille,
    ) {
        println!("unpinned envelope: {lo}..{hi} permille");
    }
    println!(
        "shed: {} of {} frames ({:.4}), evictions {}",
        report.shed_frames, report.frames, report.shed_fraction, report.evictions
    );
    if let Some(path) = opts.get("trace-out") {
        write_trace(path, &report.trace, &TimeSource::frozen());
    }
    if opts.flag("assert-soak") {
        assert_fleet_soak(&spec, &report, tolerance);
        println!("fleet soak: ok");
    }
    if let Some(floor) = pinned_floor {
        let lo = report
            .min_pinned_auth_permille
            .expect("--assert-pinned-floor needs pinned senders (--pin / --pin-first)");
        assert!(
            lo >= floor,
            "pinned auth floor {lo} permille below the asserted {floor}"
        );
        println!("pinned floor: ok ({lo} >= {floor} permille)");
    }
    if opts.flag("assert-adaptive") {
        assert_adaptive(spec.flood, &report.metrics);
        println!("adaptive: ok");
    }
    if opts.flag("assert-posture-stable") {
        assert_posture_stable(&report.metrics);
        println!("posture: stable");
    }
    if let Some(server) = server {
        server.stop();
    }
    Ok(())
}

/// The fleet-soak invariants the ci.sh fleet gate relies on: the
/// loopback wire is clean by construction, so every genuine reveal is
/// decided, no forged announce ever authenticates, session residency
/// respects the configured budget, and the aggregate auth rate tracks
/// the per-sender `1 − p^m`.
fn assert_fleet_soak(spec: &FleetSpec, report: &dap_net::fleet::FleetReport, tolerance: f64) {
    use dap_simnet::keys;

    let m = &report.metrics;
    assert_eq!(
        m.get(keys::NET_INGRESS_DROPPED),
        0,
        "Block overflow shed frames"
    );
    assert_eq!(
        m.get(keys::NET_DECODE_ERRORS),
        0,
        "clean wire had decode errors"
    );
    assert_eq!(
        m.get(keys::NET_REVEAL_WEAK_REJECTED),
        0,
        "forged or cross-sender key accepted by the weak check"
    );
    if let Some(memory) = report.registry.get_gauge(keys::NET_SESSION_MEMORY_BITS) {
        assert!(
            memory.max().unwrap_or(0) <= spec.memory_budget_bits,
            "session memory exceeded the per-shard budget"
        );
    }
    // The remaining invariants describe the classic Bernoulli posture
    // with an unbounded drain: a replay adversary makes NoCandidate
    // legitimate, and a finite budget sheds whole reveal windows — both
    // break the exact balance and the 1 − p^m tracking by design.
    if spec.adversary != dap_net::AdversaryClass::Bernoulli || spec.drain_budget != usize::MAX {
        return;
    }
    assert_eq!(
        m.get(keys::NET_REVEAL_AUTH) + m.get(keys::NET_REVEAL_STRONG_REJECTED),
        m.get(keys::NET_REVEAL_TOTAL),
        "reveal outcomes do not balance"
    );
    if spec.flood == 0.0 && m.get(keys::NET_SESSION_EVICTED) == 0 {
        assert_eq!(
            m.get(keys::NET_REVEAL_AUTH),
            m.get(keys::NET_REVEAL_TOTAL),
            "clean un-evicted fleet failed to authenticate everything"
        );
    } else if spec.flood > 0.0 {
        let gap = (report.auth_rate - report.expected_rate).abs();
        assert!(
            gap <= tolerance,
            "fleet auth rate {:.4} vs expected {:.4}: gap {gap:.4} > tolerance {tolerance}",
            report.auth_rate,
            report.expected_rate
        );
    }
}

/// The soak invariants the ci.sh gate relies on. Only meaningful on a
/// clean wire (`loss = corrupt = 0`): every reveal then arrives, and
/// the *only* way a genuine reveal fails is reservoir eviction by the
/// flood — which is precisely the `1 − p^m` experiment.
fn assert_soak(spec: &LoopbackSpec, report: &dap_net::loopback::LoopbackReport, tolerance: f64) {
    use dap_simnet::keys;

    assert!(
        spec.loss == 0.0 && spec.corrupt == 0.0,
        "--assert-soak needs a clean wire (loss = corrupt = 0)"
    );
    let m = &report.metrics;
    // Nothing on a clean wire may be dropped, garbled or forged-key'd.
    assert_eq!(
        m.get(keys::NET_INGRESS_DROPPED),
        0,
        "backpressure run shed frames"
    );
    assert_eq!(
        m.get(keys::NET_DECODE_ERRORS),
        0,
        "clean wire had decode errors"
    );
    assert_eq!(
        m.get(keys::NET_REVEAL_WEAK_REJECTED),
        0,
        "genuine key rejected"
    );
    assert_eq!(
        m.get(keys::NET_REVEAL_NO_CANDIDATE),
        0,
        "pool vanished on clean wire"
    );
    // Every interval's reveal arrived and was decided one way:
    assert_eq!(
        m.get(keys::NET_REVEAL_TOTAL),
        spec.intervals,
        "reveals lost"
    );
    assert_eq!(
        m.get(keys::NET_REVEAL_AUTH) + m.get(keys::NET_REVEAL_STRONG_REJECTED),
        m.get(keys::NET_REVEAL_TOTAL),
        "reveal outcomes do not balance"
    );
    if spec.flood == 0.0 {
        // No adversary: 100% of genuine reveals must authenticate.
        assert_eq!(
            m.get(keys::NET_REVEAL_AUTH),
            m.get(keys::NET_REVEAL_TOTAL),
            "clean run failed to authenticate everything"
        );
    } else {
        // Under flood: the buffer-hit rate tracks the paper's 1 − p^m.
        let gap = (report.auth_rate - report.expected_rate).abs();
        assert!(
            gap <= tolerance,
            "auth rate {:.4} vs expected {:.4}: gap {gap:.4} > tolerance {tolerance}",
            report.auth_rate,
            report.expected_rate
        );
    }
}

fn run_sender(opts: &Opts) -> Result<(), OptsError> {
    let seed: u64 = opts.get_or("seed", 2016)?;
    let intervals: u64 = opts.get_or("intervals", 60)?;
    let copies: u32 = opts.get_or("copies", 2)?;
    let tick_us: u64 = opts.get_or("tick-us", 1000)?;
    let target = opts.require("target", "--target host:port for the sender")?;
    let bind = opts.get("bind").unwrap_or("127.0.0.1:0");

    let chain_len = usize::try_from(intervals).expect("interval count") + 2;
    let sender = DapSender::new(&seed.to_be_bytes(), chain_len, udp_params(8));
    let transport = UdpTransport::sender(bind, target).expect("bind sender socket");
    let clock = RealClock::new(Duration::from_micros(tick_us));
    let tag = opts.parsed("sender-id")?.map(SenderId);
    println!(
        "dapd sender -> {target}: {intervals} intervals x {copies} copies, seed {seed}, \
         {tick_us}us ticks{}",
        tag.map_or(String::new(), |id| format!(", sender-id {}", id.0))
    );
    let mut pump = SenderPump::new(sender, transport, clock, copies);
    if let Some(id) = tag {
        pump = pump.with_sender_id(id);
    }
    let stats = pump
        .run(intervals, |i| format!("reading {i}").into_bytes())
        .expect("send failed");
    println!(
        "sender done: {} announces, {} reveals, {} exhausted",
        stats.announces, stats.reveals, stats.exhausted
    );
    Ok(())
}

fn run_receiver(opts: &Opts) -> Result<(), OptsError> {
    let seed: u64 = opts.get_or("seed", 2016)?;
    let intervals: u64 = opts.get_or("intervals", 60)?;
    let buffers: usize = opts.count("buffers", 8)?;
    let shards: usize = opts.count("shards", 4)?;
    let queue_depth: usize = opts.count("queue-depth", 1024)?;
    let duration_ms: u64 = opts.get_or("duration-ms", 10_000)?;
    let tick_us: u64 = opts.get_or("tick-us", 1000)?;
    let bind = opts.require("bind", "--bind host:port for the receiver")?;
    let trace_depth = trace_depth(opts)?;
    let span_every = span_every(opts)?;

    sigint::install();

    // Derive the sender's commitment from the shared seed (the demo's
    // stand-in for out-of-band bootstrap). The chain commitment is the
    // *end* of the chain, so both sides must agree on `--intervals` too
    // — a different chain length is a different commitment.
    let chain_len = usize::try_from(intervals).expect("interval count") + 2;
    let bootstrap = DapSender::new(&seed.to_be_bytes(), chain_len, udp_params(buffers)).bootstrap();
    let mut transport =
        UdpTransport::receiver(bind, Duration::from_millis(20)).expect("bind receiver socket");
    let shared = opts
        .get("telemetry")
        .map(|_| Arc::new(SharedRegistry::new(shards)));
    let server = opts.get("telemetry").map(|addr| {
        let server = TelemetryServer::bind(addr, Arc::clone(shared.as_ref().expect("built above")))
            .expect("bind --telemetry listener");
        eprintln!("telemetry: http://{}/", server.local_addr());
        server
    });
    let pool = ReceiverPool::spawn_with_obs(
        PoolConfig {
            shards,
            queue_depth,
            overflow: OverflowPolicy::DropCount,
            route: RoutePolicy::ByInterval,
            ..PoolConfig::default()
        },
        seed,
        |shard| DapShard::new(bootstrap, &[b'u', b'd', b'p', shard as u8]),
        PoolObs {
            time: TimeSource::wall(),
            trace_depth,
            publish: shared,
            // Live enough for a scrape without a per-frame lock.
            publish_every: 256,
            span_every,
        },
    );
    let handle = pool.handle();
    println!(
        "dapd receiver on {bind}: m={buffers} shards={shards} depth={queue_depth}, \
         listening {duration_ms}ms (Ctrl-C for early snapshot)"
    );
    let deadline = Instant::now() + Duration::from_millis(duration_ms);
    let schedule = udp_params(buffers).schedule();
    // The two processes share no epoch: anchor the receiver's clock on
    // the interval the first frame claims (loose sync by first contact).
    let mut clock: Option<RealClock> = None;
    let mut buf = vec![0u8; dap_core::codec::MAX_FRAME_LEN];
    while Instant::now() < deadline && !sigint::interrupted() {
        match transport.recv(&mut buf) {
            Ok(Some(n)) => {
                let at = clock
                    .get_or_insert_with(|| {
                        let index = dap_core::codec::peek_index(&buf[..n]).unwrap_or(1);
                        RealClock::anchored_at(
                            Duration::from_micros(tick_us),
                            schedule.start_of(index),
                        )
                    })
                    .now();
                handle.ingest(&buf[..n], at);
            }
            Ok(None) => {}
            Err(e) => panic!("receiver socket error: {e}"),
        }
    }
    if sigint::interrupted() {
        println!("interrupted: draining shards and snapshotting");
    }
    let report = pool.shutdown_with_report();
    print!("{}", report.registry.render());
    if let Some(path) = opts.get("trace-out") {
        write_trace(path, &report.trace, &TimeSource::wall());
    }
    let counters = report.registry.counters();
    let auth = counters.get(dap_simnet::keys::NET_REVEAL_AUTH);
    let total = counters.get(dap_simnet::keys::NET_REVEAL_TOTAL);
    println!("receiver done: {auth}/{total} reveals authenticated");
    if let Some(server) = server {
        server.stop();
    }
    Ok(())
}

fn run_flooder(opts: &Opts) -> Result<(), OptsError> {
    let seed: u64 = opts.get_or("seed", 666)?;
    let p = opts.share("flood")?.unwrap_or(0.9);
    let rate: u64 = opts.get_or("rate", 2000)?;
    let duration_ms: u64 = opts.get_or("duration-ms", 10_000)?;
    let tick_us: u64 = opts.get_or("tick-us", 1000)?;
    let target = opts.require("target", "--target host:port for the flooder")?;

    let transport = UdpTransport::sender("127.0.0.1:0", target).expect("bind flooder socket");
    let clock = RealClock::new(Duration::from_micros(tick_us));
    let schedule = udp_params(8).schedule();
    let mut flooder = Flooder::new(transport, seed, p);
    let spoof = opts.parsed("spoof")?.map(SenderId);
    println!(
        "dapd flooder -> {target}: p={p} ({rate} forged/s for {duration_ms}ms, seed {seed}{})",
        spoof.map_or(String::new(), |id| format!(", spoofing sender {}", id.0))
    );
    let deadline = Instant::now() + Duration::from_millis(duration_ms);
    // Send in 10ms batches so the claimed interval index stays current.
    let batch = (rate / 100).max(1);
    let mut sent = 0u64;
    while Instant::now() < deadline {
        match spoof {
            // Spoofed fleet attack: tagged forgeries claiming a victim.
            Some(victim) => {
                let index = schedule.index_at(clock.now());
                for _ in 0..batch {
                    flooder
                        .send_forged_as(victim, index)
                        .expect("flood send failed");
                }
                sent += batch;
            }
            None => {
                sent += flooder
                    .flood_current(&clock, &schedule, batch)
                    .expect("flood send failed");
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    println!("flooder done: {sent} forged announces");
    Ok(())
}
