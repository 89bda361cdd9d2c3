//! `wirebench` — the repository benchmark for the DAP wire runtime.
//!
//! ```text
//! cargo run --release --offline --manifest-path wirebench/Cargo.toml -- \
//!     --workload flood|fleet|adaptive --seed N --seconds S --trace 0|1
//! ```
//!
//! A run generates its workload's wire bytes from the seed, then replays
//! them round after round for `--seconds` (each round sets up a fresh
//! receiver, replays the whole corpus and shuts down). With `--trace 0`
//! it prints the end-to-end metrics; with `--trace 1` it interleaves
//! untraced and span-traced rounds, adds a single-threaded layer replay,
//! and prints the per-layer metrics. The last stdout line is one JSON
//! object: `correct`, `attempted`, `failed`, `metrics`. Any failed
//! correctness check makes `correct` false and the exit code 1; bad
//! arguments exit 2. See `wirebench/README.md`.

mod corpus;
mod drive;
mod replay;
mod workload;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use corpus::Corpus;
use drive::{Off, Round, Span, Spans};
use workload::{Kind, Workload, BUFFERS, SOAK_TOLERANCE};

/// Every run measures at least this many intervals, so the interval
/// p99 has at least ten samples beyond it.
const MIN_INTERVALS: usize = 1000;
/// Every run sets up at least this many receivers (median set-up time).
const MIN_ROUNDS: usize = 3;
/// A run stops starting rounds after this long, whatever else holds.
const HARD_CAP: Duration = Duration::from_secs(120);

const USAGE: &str =
    "usage: wirebench --workload flood|fleet|adaptive --seed N --seconds S --trace 0|1";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::by_name(&value).ok_or_else(|| bad("unknown workload"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("not a u64"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|_| bad("not a whole number"))?;
                if s == 0 {
                    return Err(bad("must be at least 1"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// The `1 − p^m` band `dapd --assert-soak` holds a stationary flood to.
#[derive(Debug, Clone, Copy)]
struct Envelope {
    p: f64,
    m: usize,
    tolerance: f64,
}

impl Envelope {
    fn of(w: &Workload) -> Self {
        Self {
            p: w.flood_end,
            m: BUFFERS,
            tolerance: SOAK_TOLERANCE,
        }
    }

    fn check(&self, auth: u64, reveals: u64) -> Result<(), String> {
        let rate = auth as f64 / reveals.max(1) as f64;
        let expected = 1.0 - self.p.powi(self.m as i32);
        let gap = (rate - expected).abs();
        if gap <= self.tolerance {
            Ok(())
        } else {
            Err(format!(
                "auth rate {rate:.4} is {gap:.4} from 1 - p^m = {expected:.4} \
                 (p = {}, m = {}, tolerance {})",
                self.p, self.m, self.tolerance
            ))
        }
    }
}

/// One finished round: which corpus it replayed, what it saw, and — for
/// a traced round — its per-layer figures.
struct Ran {
    corpus: usize,
    round: Round,
    layers: Option<BTreeMap<&'static str, f64>>,
}

/// Every round of one run, with failure accounting.
struct Runs {
    ran: Vec<Ran>,
    /// Rounds the program panicked in, and their datagrams.
    panicked: u64,
    panicked_datagrams: u64,
    /// Per-interval latencies, one vector per untraced round.
    intervals_ns: Vec<Vec<u64>>,
    /// Peak RSS above the post-generation baseline over the first
    /// pass over every corpus.
    rss_mib: f64,
}

impl Runs {
    fn plain(&self) -> impl Iterator<Item = &Ran> {
        self.ran.iter().filter(|r| r.layers.is_none())
    }

    fn traced(&self) -> impl Iterator<Item = &Ran> {
        self.ran.iter().filter(|r| r.layers.is_some())
    }

    /// The first untraced round on corpus `c`.
    fn reference(&self, c: usize) -> Option<&Round> {
        self.plain().find(|r| r.corpus == c).map(|r| &r.round)
    }

    fn intervals(&self) -> usize {
        self.intervals_ns.iter().map(Vec::len).sum()
    }

    fn attempted(&self) -> u64 {
        self.ran.iter().map(|r| r.round.datagrams).sum::<u64>() + self.panicked_datagrams
    }

    fn failed(&self) -> u64 {
        let r = self.ran.iter().map(|r| &r.round);
        r.map(|r| r.dropped + r.shed).sum::<u64>() + self.panicked_datagrams
    }
}

/// Correctness checks every round of a run must pass.
fn check_rounds(corpora: &[Corpus], runs: &Runs, envelope: Option<Envelope>) -> Vec<String> {
    let mut failures = Vec::new();
    for c in 0..corpora.len() {
        if runs.reference(c).is_none() {
            failures.push(format!("corpus {c}: no untraced round completed"));
        }
    }
    for (k, ran) in runs.ran.iter().enumerate() {
        let (c, r) = (ran.corpus, &ran.round);
        let label = if ran.layers.is_some() {
            format!("traced round {k} (corpus {c})")
        } else {
            format!("round {k} (corpus {c})")
        };
        if runs
            .reference(c)
            .is_some_and(|first| first.counters != r.counters)
        {
            failures.push(format!(
                "{label}: counters differ from the first untraced round's"
            ));
        }
        if r.auth > corpora[c].genuine_reveals {
            failures.push(format!(
                "{label}: authenticated {} reveals but only {} genuine reveals were sent",
                r.auth, corpora[c].genuine_reveals
            ));
        }
        if let Some(env) = envelope {
            if let Err(e) = env.check(r.auth, r.reveals) {
                failures.push(format!("{label}: {e}"));
            }
        }
    }
    failures
}

/// Runs rounds until `seconds` have passed and the minimum rounds and
/// intervals are in. Rounds cycle through the corpora; with `traced`,
/// each corpus is replayed untraced and then span-traced in turn.
fn run_rounds(w: &Workload, corpora: &[Corpus], shards: usize, seconds: f64, traced: bool) -> Runs {
    let mut runs = Runs {
        ran: Vec::new(),
        panicked: 0,
        panicked_datagrams: 0,
        intervals_ns: Vec::new(),
        rss_mib: 0.0,
    };
    // Memory the corpora already hold is the benchmark's, not the
    // receiver's: the peak is measured from here.
    let baseline = reset_peak_rss();
    let largest = corpora.iter().max_by_key(|c| c.len()).expect("a corpus");
    let mut spans = traced.then(|| Spans::for_corpus(largest));
    let per_cycle = corpora.len() * if traced { 2 } else { 1 };
    let min_plain = MIN_ROUNDS.max(corpora.len());
    let start = Instant::now();
    for k in 0.. {
        let elapsed = start.elapsed();
        let enough = runs.plain().count() >= min_plain
            && (!traced || runs.traced().count() >= corpora.len())
            && runs.intervals() >= MIN_INTERVALS;
        if elapsed >= HARD_CAP
            || (elapsed.as_secs_f64() >= seconds && (enough || runs.panicked > 0))
        {
            break;
        }
        let (c, trace_this) = if traced {
            ((k / 2) % corpora.len(), k % 2 == 1)
        } else {
            (k % corpora.len(), false)
        };
        let corpus = &corpora[c];
        let outcome = match spans.as_mut() {
            Some(sp) if trace_this => catch_unwind(AssertUnwindSafe(|| {
                sp.clear();
                // Traced rounds keep their interval latencies out of
                // the untraced figures.
                let round = drive::run_round(w, corpus, shards, sp, &mut Vec::new());
                let layers = layer_round(sp, &round);
                (round, Some(layers))
            })),
            _ => catch_unwind(AssertUnwindSafe(|| {
                let mut intervals = Vec::with_capacity(corpus.slots.len());
                let round = drive::run_round(w, corpus, shards, &mut Off, &mut intervals);
                runs.intervals_ns.push(intervals);
                (round, None)
            })),
        };
        match outcome {
            Ok((round, layers)) => {
                eprintln!(
                    "wirebench: round {k}{} corpus {c}: {:.0} datagrams/s, set-up {:.3} ms",
                    if layers.is_some() { " (traced)" } else { "" },
                    fps(&round),
                    round.setup.total_ns as f64 / 1e6
                );
                runs.ran.push(Ran {
                    corpus: c,
                    round,
                    layers,
                });
            }
            Err(_) => {
                runs.panicked += 1;
                runs.panicked_datagrams += corpus.len() as u64;
            }
        }
        if k + 1 == per_cycle {
            runs.rss_mib = status_mib("VmHWM") - baseline;
        }
    }
    runs
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The interval tail: consecutive untraced rounds are grouped into
/// windows of at least [`MIN_INTERVALS`] intervals (ten samples beyond
/// each p99), the nearest-rank p99 is taken per window, and the median
/// over windows is reported. Windows hold whole rounds, so each covers
/// whole corpora (on `adaptive`, the whole ramp and plateau); a host
/// stall lands in some windows and not others, and the median keeps one
/// stalled window from setting the run's tail.
fn windowed_p99(rounds: &[Vec<u64>]) -> f64 {
    let mut p99s = Vec::new();
    let mut window: Vec<u64> = Vec::new();
    for round in rounds {
        window.extend_from_slice(round);
        if window.len() >= MIN_INTERVALS {
            p99s.push(quantile(&window, 0.99));
            window.clear();
        }
    }
    if p99s.is_empty() {
        // A run cut short by the hard cap: one window of what there is.
        return quantile(&window, 0.99);
    }
    median(p99s)
}

/// Nearest-rank quantile `q` of `samples` (0 when empty).
fn quantile<T: Copy + Ord + Into<u64>>(samples: &[T], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len()) - 1;
    let (_, x, _) = v.select_nth_unstable(rank);
    (*x).into() as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn fps(r: &Round) -> f64 {
    ratio(r.datagrams as f64, r.wall_ns as f64 / 1e9)
}

/// One traced round's per-layer figures from its spans.
fn layer_round(sp: &Spans, r: &Round) -> BTreeMap<&'static str, f64> {
    let wall = r.wall_ns as f64;
    let q = |s: Span, p: f64| quantile(sp.of(s), p);
    let max = |s: Span| sp.of(s).iter().copied().max().map_or(0.0, f64::from);
    BTreeMap::from([
        ("pool.ingest.p50_ns", q(Span::Ingest, 0.5)),
        ("pool.ingest.p99_ns", q(Span::Ingest, 0.99)),
        ("pool.quiesce.p50_us", q(Span::Quiesce, 0.5) / 1e3),
        ("pool.quiesce.p99_us", q(Span::Quiesce, 0.99) / 1e3),
        ("pool.tick.p50_ns", q(Span::Tick, 0.5)),
        ("pool.post_posture.p50_us", q(Span::PostPosture, 0.5) / 1e3),
        ("pool.shutdown_ms", sp.total_ns(Span::Shutdown) as f64 / 1e6),
        ("pool.shed_share", ratio(r.shed as f64, r.datagrams as f64)),
        ("pool.dropped", r.dropped as f64),
        ("control.step.held.p50_us", q(Span::StepHeld, 0.5) / 1e3),
        ("control.step.held.max_us", max(Span::StepHeld) / 1e3),
        ("control.step.solved.p50_us", q(Span::StepSolved, 0.5) / 1e3),
        ("control.step.solved.max_us", max(Span::StepSolved) / 1e3),
        ("control.solves", r.solves as f64),
        ("control.directives", r.directives.len() as f64),
        ("obs.trace_records", r.trace_records as f64),
        ("obs.ring_shed", r.ring_shed as f64),
        (
            "bench.residual_share",
            1.0 - ratio(sp.covered_ns() as f64, wall),
        ),
        ("bench.traced_fps", fps(r)),
    ])
}

/// The replay's per-layer figures.
fn layer_replay(
    w: &Workload,
    corpus: &Corpus,
    pooled: &Round,
) -> (BTreeMap<&'static str, f64>, u64) {
    let shards = pooled.shards;
    let rep = match w.kind {
        Kind::Fleet => replay::replay(
            w,
            corpus,
            &pooled.route,
            drive::fleet_shards(w, corpus, shards),
            &pooled.directives,
        ),
        _ => replay::replay(
            w,
            corpus,
            &pooled.route,
            (0..shards)
                .map(|s| drive::dap_shard(w, corpus, s))
                .collect(),
            &pooled.directives,
        ),
    };
    let m = BTreeMap::from([
        ("codec.peek.p50_ns", quantile(&rep.peek_ns, 0.5)),
        ("codec.decode.p50_ns", quantile(&rep.decode_ns, 0.5)),
        ("verify.announce.p50_ns", quantile(&rep.announce_ns, 0.5)),
        ("verify.announce.p99_ns", quantile(&rep.announce_ns, 0.99)),
        (
            "receiver.kept_ratio",
            ratio(rep.kept as f64, rep.offered as f64),
        ),
        ("verify.reveal.p50_ns", quantile(&rep.reveal_ns, 0.5)),
        ("verify.reveal.p99_ns", quantile(&rep.reveal_ns, 0.99)),
        (
            "receiver.auth_ratio",
            ratio(rep.auth as f64, rep.reveals as f64),
        ),
        (
            "verify.posture.p50_us",
            quantile(&rep.posture_ns, 0.5) / 1e3,
        ),
        ("receiver.memory_bits", rep.memory_bits as f64),
        (
            "crypto.prefetch.per_reveal_ns",
            ratio(rep.prefetch_ns as f64, rep.prefetch_reveals as f64),
        ),
        (
            "crypto.prefetch.batch_mean",
            ratio(rep.prefetch_reveals as f64, rep.prefetch_batches as f64),
        ),
        (
            "session.resident_ratio",
            ratio(rep.resident as f64, rep.lookups as f64),
        ),
        ("session.evicted", rep.evicted as f64),
        ("session.occupancy", rep.occupancy as f64),
    ]);
    (m, rep.auth)
}

/// What a run reports.
struct Outcome {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    metrics: Vec<(&'static str, f64, &'static str)>,
    rounds: usize,
    intervals: usize,
}

fn envelope(w: &Workload) -> Option<Envelope> {
    (w.kind == Kind::Flood).then(|| Envelope::of(w))
}

fn end_to_end(w: &Workload, corpora: &[Corpus], shards: usize, seconds: f64) -> Outcome {
    let runs = run_rounds(w, corpora, shards, seconds, false);
    let failures = check_rounds(corpora, &runs, envelope(w));
    let all_intervals: Vec<u64> = runs.intervals_ns.concat();
    let (mut auth, mut genuine) = (0u64, 0u64);
    for (c, corpus) in corpora.iter().enumerate() {
        if let Some(r) = runs.reference(c) {
            auth += r.auth;
            genuine += corpus.genuine_reveals;
        }
    }
    let plain: Vec<&Round> = runs.plain().map(|r| &r.round).collect();
    let metrics = vec![
        (
            "frames_per_s",
            median(plain.iter().map(|r| fps(r)).collect()),
            "1/s",
        ),
        ("interval_p50_us", quantile(&all_intervals, 0.5) / 1e3, "us"),
        (
            "auth_permille",
            ratio(auth as f64 * 1000.0, genuine as f64),
            "permille",
        ),
        (
            "setup_s",
            median(
                plain
                    .iter()
                    .map(|r| r.setup.total_ns as f64 / 1e9)
                    .collect(),
            ),
            "s",
        ),
        ("peak_rss_mib", runs.rss_mib, "MiB"),
    ];
    Outcome {
        attempted: runs.attempted(),
        failed: runs.failed(),
        failures,
        metrics,
        rounds: runs.ran.len(),
        intervals: runs.intervals(),
    }
}

/// Per-layer metric names and units, in report order.
const PER_LAYER: [(&str, &str); 40] = [
    ("transport.send.p50_ns", "ns"),
    ("transport.recv.p50_ns", "ns"),
    ("transport.busy_share", "ratio"),
    ("pool.ingest.p50_ns", "ns"),
    ("pool.ingest.p99_ns", "ns"),
    ("pool.quiesce.p50_us", "us"),
    ("pool.quiesce.p99_us", "us"),
    ("pool.tick.p50_ns", "ns"),
    ("pool.post_posture.p50_us", "us"),
    ("pool.shutdown_ms", "ms"),
    ("pool.shed_share", "ratio"),
    ("pool.dropped", "count"),
    ("codec.peek.p50_ns", "ns"),
    ("codec.decode.p50_ns", "ns"),
    ("verify.announce.p50_ns", "ns"),
    ("verify.announce.p99_ns", "ns"),
    ("receiver.kept_ratio", "ratio"),
    ("verify.reveal.p50_ns", "ns"),
    ("verify.reveal.p99_ns", "ns"),
    ("receiver.auth_ratio", "ratio"),
    ("verify.posture.p50_us", "us"),
    ("receiver.memory_bits", "bits"),
    ("crypto.prefetch.per_reveal_ns", "ns"),
    ("crypto.prefetch.batch_mean", "reveals"),
    ("setup.chains_ms", "ms"),
    ("setup.spawn_ms", "ms"),
    ("session.resident_ratio", "ratio"),
    ("session.evicted", "count"),
    ("session.occupancy", "count"),
    ("control.step.held.p50_us", "us"),
    ("control.step.held.max_us", "us"),
    ("control.step.solved.p50_us", "us"),
    ("control.step.solved.max_us", "us"),
    ("control.solves", "count"),
    ("control.directives", "count"),
    ("obs.trace_records", "count"),
    ("obs.ring_shed", "count"),
    ("bench.trace_overhead_share", "ratio"),
    ("bench.residual_share", "ratio"),
    ("interval_p99_us", "us"),
];

fn per_layer(w: &Workload, corpora: &[Corpus], shards: usize, seconds: f64) -> Outcome {
    // Most of the budget goes to the interleaved pooled rounds; the
    // layer replay and the transport replay take the rest.
    let runs = run_rounds(w, corpora, shards, seconds * 0.8, true);
    let mut failures = check_rounds(corpora, &runs, envelope(w));

    let traced: Vec<&BTreeMap<&'static str, f64>> =
        runs.traced().filter_map(|r| r.layers.as_ref()).collect();
    let mut layers: BTreeMap<&'static str, f64> = BTreeMap::new();
    if let Some(first) = traced.first() {
        for &key in first.keys() {
            layers.insert(key, median(traced.iter().map(|m| m[key]).collect()));
        }
    }
    let all: Vec<&Round> = runs.ran.iter().map(|r| &r.round).collect();
    layers.insert(
        "setup.chains_ms",
        median(all.iter().map(|r| r.setup.chains_ns as f64 / 1e6).collect()),
    );
    layers.insert(
        "setup.spawn_ms",
        median(all.iter().map(|r| r.setup.spawn_ns as f64 / 1e6).collect()),
    );
    // The interval tail is reported here, ungated: on a shared host it
    // moves with the host's stalls far more than any bound allows.
    layers.insert("interval_p99_us", windowed_p99(&runs.intervals_ns) / 1e3);
    let plain_fps = median(runs.plain().map(|r| fps(&r.round)).collect());
    let traced_fps = layers.remove("bench.traced_fps").unwrap_or(0.0);
    layers.insert(
        "bench.trace_overhead_share",
        1.0 - ratio(traced_fps, plain_fps),
    );
    if let Some(pooled) = runs.reference(0) {
        let (replayed, replay_auth) = layer_replay(w, &corpora[0], pooled);
        if replay_auth != pooled.auth {
            failures.push(format!(
                "layer replay authenticated {replay_auth} reveals, the pool {}",
                pooled.auth
            ));
        }
        layers.extend(replayed);
    }
    if w.kind == Kind::Flood {
        // `flood` carries the transport layer: its corpus once more,
        // through real sockets and no pool.
        let wire = replay::wire(&corpora[0]);
        layers.insert("transport.send.p50_ns", quantile(&wire.send_ns, 0.5));
        layers.insert("transport.recv.p50_ns", quantile(&wire.recv_ns, 0.5));
        layers.insert("transport.busy_share", wire.busy_share);
    }
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, layers.get(name).copied().unwrap_or(0.0), unit))
        .collect();
    Outcome {
        attempted: runs.attempted(),
        failed: runs.failed(),
        failures,
        metrics,
        rounds: runs.ran.len(),
        intervals: runs.intervals(),
    }
}

/// A `kB` field of `/proc/self/status` (`VmRSS`, `VmHWM`), in MiB.
fn status_mib(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Resets the process's high-water RSS to its current RSS (writing `5`
/// to `/proc/self/clear_refs`) and returns that RSS, in MiB. Where the
/// kernel refuses the reset, `VmHWM` keeps the generation peak, and the
/// peak stays measured from it rather than from a lower RSS.
fn reset_peak_rss() -> f64 {
    if let Err(e) = std::fs::write("/proc/self/clear_refs", "5") {
        eprintln!("wirebench: cannot reset the peak RSS ({e}); measuring from the current peak");
        return status_mib("VmHWM");
    }
    status_mib("VmRSS")
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c.is_control() => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("wirebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let shards = nproc;
    let corpora = corpus::generate_all(&w, args.seed);
    let digest: String = corpus::wire_digest(&corpora)
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect();
    let seconds = args.seconds as f64;
    let outcome = if args.trace {
        per_layer(&w, &corpora, shards, seconds)
    } else {
        end_to_end(&w, &corpora, shards, seconds)
    };

    println!(
        "{{\"workload\":{},\"seed\":{},\"trace\":{},\"wire_digest\":{},\"rounds\":{},\
         \"intervals\":{},\"host\":{{\"nproc\":{nproc},\"shards\":{shards},\"cpu\":{},\
         \"lanes\":{},\"traffic\":{}}}}}",
        json_str(w.name()),
        args.seed,
        u8::from(args.trace),
        json_str(&digest),
        outcome.rounds,
        outcome.intervals,
        json_str(&cpu_model()),
        json_str(&dap_crypto::lanes::detected().to_string()),
        json_str(if args.trace && w.kind == Kind::Flood {
            "in-memory; transport replay over the loopback interface"
        } else {
            "in-memory"
        }),
    );
    for (name, value, unit) in &outcome.metrics {
        println!("{name:<32} {value:>16.4} {unit}");
    }
    for failure in &outcome.failures {
        eprintln!("wirebench: check failed: {failure}");
    }
    let correct = outcome.failures.is_empty();
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(name),
                json_num(*value),
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(name: &str) -> Workload {
        let mut w = Workload::by_name(name).expect("known workload");
        w.intervals = 200;
        if w.tagged() {
            w.senders = 16;
            w.intervals = 12;
        }
        w
    }

    fn digest(w: &Workload, seed: u64) -> [u8; 32] {
        corpus::wire_digest(&corpus::generate_all(w, seed))
    }

    #[test]
    fn same_seed_generates_byte_identical_wire() {
        for name in ["flood", "fleet", "adaptive"] {
            let w = small(name);
            assert_eq!(digest(&w, 7), digest(&w, 7), "{name}");
        }
    }

    #[test]
    fn a_different_seed_changes_the_wire() {
        for name in ["flood", "fleet", "adaptive"] {
            let w = small(name);
            assert_ne!(digest(&w, 7), digest(&w, 8), "{name}");
        }
    }

    fn one_round(w: &Workload, seed: u64) -> (Vec<Corpus>, Runs) {
        let corpora = vec![corpus::generate(w, seed)];
        let round = drive::run_round(w, &corpora[0], 2, &mut Off, &mut Vec::new());
        let runs = Runs {
            ran: vec![Ran {
                corpus: 0,
                round,
                layers: None,
            }],
            panicked: 0,
            panicked_datagrams: 0,
            intervals_ns: Vec::new(),
            rss_mib: 0.0,
        };
        (corpora, runs)
    }

    #[test]
    fn a_wrong_envelope_fails_the_run() {
        let w = small("flood");
        let (corpora, runs) = one_round(&w, 11);
        assert!(check_rounds(&corpora, &runs, envelope(&w)).is_empty());
        let wrong = Envelope {
            p: 0.5,
            ..Envelope::of(&w)
        };
        let failures = check_rounds(&corpora, &runs, Some(wrong));
        assert_eq!(failures.len(), 1, "{failures:?}");
    }

    #[test]
    fn layer_replay_reaches_the_pools_verdicts() {
        for name in ["flood", "fleet", "adaptive"] {
            let w = small(name);
            let (corpora, runs) = one_round(&w, 5);
            let round = runs.reference(0).expect("one round");
            let (_, auth) = layer_replay(&w, &corpora[0], round);
            assert_eq!(auth, round.auth, "{name}");
            assert!(round.auth > 0, "{name}");
        }
    }

    #[test]
    fn arguments_are_strict() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        assert!(parse("--workload flood --seed 1 --seconds 2 --trace 0").is_ok());
        assert!(parse("--workload flod --seed 1 --seconds 2 --trace 0").is_err());
        assert!(parse("--workload flood --seed 1 --seconds 2 --trace 2").is_err());
        assert!(parse("--workload flood --seed 1 --seconds 0 --trace 0").is_err());
        assert!(parse("--workload flood --seed 1 --seconds 2").is_err());
        assert!(parse("--workload flood --seed 1 --seconds 2 --trace 0 --x 1").is_err());
    }
}
