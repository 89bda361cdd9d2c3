//! A minimal smoke-timer harness for the `benches/` targets.
//!
//! The workspace builds hermetically, so there is no criterion. These
//! timers are deliberately simple: calibrate an iteration count against a
//! wall-clock budget, run, and print nanoseconds per iteration. They are
//! smoke benchmarks — good for spotting order-of-magnitude regressions
//! and for profiling hot paths, not for sub-percent comparisons.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Wall-clock budget per benchmark. Override with `DAP_BENCH_MS`.
fn budget() -> Duration {
    let ms = std::env::var("DAP_BENCH_MS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(100u64);
    Duration::from_millis(ms)
}

/// Times `f` and returns the mean nanoseconds per iteration plus how
/// many timed iterations actually ran — report lanes record that count
/// (e.g. netbench's `frames` field) so a frames-weighted rollup weighs
/// the lane by real work instead of a phantom count of 1. The closure's
/// result is passed through [`black_box`] so the optimiser cannot
/// delete the work. Calibration and budget match [`smoke`]; use this
/// when the number feeds a report instead of stdout.
pub fn measure_counted<T>(mut f: impl FnMut() -> T) -> (u64, u64) {
    let iters = calibrate(&mut f, budget());
    (mean_ns(&mut f, iters), u64::from(iters))
}

/// Rounds [`measure_pair`] splits its budget into.
const PAIR_ROUNDS: u32 = 9;

/// Times `a` and `b` for the ratio `b / a`. Timing one side after the
/// other lets host clock drift between the two land in the ratio, so
/// the budget is split into [`PAIR_ROUNDS`] rounds that alternate the
/// sides (`a` first in even rounds, `b` first in odd ones). Returns the
/// mean nanoseconds per iteration of `a` and of `b` from the round whose
/// ratio is the median.
pub fn measure_pair<A, B>(mut a: impl FnMut() -> A, mut b: impl FnMut() -> B) -> (u64, u64) {
    let round = budget() / PAIR_ROUNDS;
    let (iters_a, iters_b) = (calibrate(&mut a, round), calibrate(&mut b, round));
    let mut rounds: Vec<(u64, u64)> = (0..PAIR_ROUNDS)
        .map(|r| {
            if r % 2 == 0 {
                let ns_a = mean_ns(&mut a, iters_a);
                (ns_a, mean_ns(&mut b, iters_b))
            } else {
                let ns_b = mean_ns(&mut b, iters_b);
                (mean_ns(&mut a, iters_a), ns_b)
            }
        })
        .collect();
    // Order by b / a without division: b1 / a1 < b2 / a2 ⇔ b1·a2 < b2·a1.
    rounds.sort_by(|x, y| {
        (u128::from(x.1) * u128::from(y.0)).cmp(&(u128::from(y.1) * u128::from(x.0)))
    });
    rounds[rounds.len() / 2]
}

/// Warm-up + calibration: one call to `f`, then the iteration count
/// that fills `budget` at that pace.
fn calibrate<T>(f: &mut impl FnMut() -> T, budget: Duration) -> u32 {
    let t0 = Instant::now();
    black_box(f());
    let once = t0.elapsed().max(Duration::from_nanos(1));
    (budget.as_nanos() / once.as_nanos()).clamp(1, 10_000_000) as u32
}

/// Mean nanoseconds per call over `iters` calls of `f`.
fn mean_ns<T>(f: &mut impl FnMut() -> T, iters: u32) -> u64 {
    let start = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    (start.elapsed().as_nanos() / u128::from(iters)).max(1) as u64
}

/// Times `f`, printing `name`, the iteration count and the mean time per
/// iteration. The closure's result is passed through [`black_box`] so the
/// optimiser cannot delete the work.
pub fn smoke<T>(name: &str, mut f: impl FnMut() -> T) {
    let iters = calibrate(&mut f, budget());
    let per_iter = mean_ns(&mut f, iters);
    println!("{name:<44} {iters:>9} iters   {per_iter:>12} ns/iter");
}

/// Prints a section header so multi-group bench binaries stay readable.
pub fn section(title: &str) {
    println!("\n== {title} ==");
}
