//! Performance trajectory for the hot paths this workspace optimises:
//! ns/iter for the crypto primitives (midstate-cached vs. the pre-cache
//! one-shot reference, re-implemented here) and cells/sec for the sweep
//! engine (work-stealing vs. single-threaded reference).
//!
//! Usage: `cargo run --release -p dap-bench --bin perf [out_dir]`
//!
//! Writes `BENCH_crypto.json` and `BENCH_sweep.json` into `out_dir`
//! (default: current directory) and prints the same numbers to stdout.
//! `DAP_BENCH_MS` bounds each side of a crypto measurement (default
//! 100 ms), so `DAP_BENCH_MS=5` gives a CI-friendly smoke run. Each
//! lane times its two sides in alternating rounds
//! ([`measure_pair`]) and reports the median round, so host clock drift
//! does not land in the speedup.
//!
//! Every crypto lane records the SHA-256 kernel it ran on. The lanes
//! that compare two paths both built on `Sha256::compress_from`
//! (midstate caching, multi-lane batching) run both sides inside
//! [`lanes::with_software_kernels`], so a SHA-NI host measures the same
//! trade-off as any other; `compress_sha_ni` measures the hardware
//! kernel itself against the portable rounds.

use std::time::Instant;

use dap_bench::json::{array, JsonObject};
use dap_bench::sweep::{run_sweep_sequential, run_sweep_with_stats, to_csv, SweepConfig};
use dap_bench::timer::measure_pair;
use dap_crypto::lanes::{self, BlockKernel, LaneWidth};
use dap_crypto::mac::{micro_mac_prepared, prepare_receiver_key, Mac80};
use dap_crypto::oneway::one_way_iter;
use dap_crypto::sha256::{self, Sha256, BLOCK_LEN, DIGEST_LEN, INITIAL_STATE};
use dap_crypto::{Domain, Key};

/// HMAC-SHA-256 the way the workspace computed it before midstate
/// caching landed: the key schedule re-runs on every call and both
/// passes go through the incremental staging buffer. Kept here as the
/// measured baseline so the reported speedups always compare against
/// the same reference, not against whatever the library currently does.
fn hmac_unprepared(key: &[u8], message: &[u8]) -> [u8; DIGEST_LEN] {
    let mut block_key = [0u8; BLOCK_LEN];
    if key.len() > BLOCK_LEN {
        let digest = sha256::digest(key);
        block_key[..DIGEST_LEN].copy_from_slice(&digest);
    } else {
        block_key[..key.len()].copy_from_slice(key);
    }
    let mut pad = [0u8; BLOCK_LEN];
    for i in 0..BLOCK_LEN {
        pad[i] = block_key[i] ^ 0x36;
    }
    let mut inner = Sha256::new();
    inner.update(&pad);
    inner.update(message);
    let inner_digest = inner.finalize();
    for i in 0..BLOCK_LEN {
        pad[i] = block_key[i] ^ 0x5c;
    }
    let mut outer = Sha256::new();
    outer.update(&pad);
    outer.update(&inner_digest);
    outer.finalize()
}

/// `one_way_iter` built on the unprepared reference.
fn one_way_iter_unprepared(domain: Domain, key: &Key, steps: usize) -> Key {
    let mut k = *key;
    for _ in 0..steps {
        let tag = hmac_unprepared(domain.label(), k.as_bytes());
        k = Key::from_slice(&tag[..Key::LEN]).expect("digest longer than key");
    }
    k
}

struct CryptoRecord {
    name: &'static str,
    ns: u64,
    baseline_ns: u64,
    /// [`lanes::kernel_label`] for the measured (non-baseline) side.
    kernel: &'static str,
}

impl CryptoRecord {
    fn speedup(&self) -> f64 {
        self.baseline_ns as f64 / self.ns as f64
    }
}

fn bench_crypto() -> Vec<CryptoRecord> {
    let key = Key::derive(b"perf/chain", b"head");
    let recv = Key::derive(b"perf/receiver", b"local");
    let mac = Mac80::from_slice(&[0xabu8; Mac80::LEN]).expect("fixed length");

    let mut records = Vec::new();

    // Midstate caching against the one-shot reference: both sides are
    // compress_from loops, so both run on the software kernels.
    lanes::with_software_kernels(|| {
        // Sanity: the two paths must agree before their timings mean anything.
        assert_eq!(
            one_way_iter(Domain::F, &key, 64),
            one_way_iter_unprepared(Domain::F, &key, 64),
        );
        let (ns, baseline_ns) = measure_pair(
            || one_way_iter(Domain::F, &key, 4096),
            || one_way_iter_unprepared(Domain::F, &key, 4096),
        );
        records.push(CryptoRecord {
            name: "one_way_iter_4096",
            ns,
            baseline_ns,
            kernel: lanes::kernel_label(),
        });

        let prepared = prepare_receiver_key(&recv);
        assert_eq!(
            micro_mac_prepared(&prepared, &mac).as_bytes(),
            &hmac_unprepared(recv.as_bytes(), mac.as_bytes())[..3],
        );
        let (ns, baseline_ns) = measure_pair(
            || micro_mac_prepared(&prepared, &mac),
            || {
                let tag = hmac_unprepared(recv.as_bytes(), mac.as_bytes());
                (tag[0], tag[1], tag[2])
            },
        );
        records.push(CryptoRecord {
            name: "micro_mac_rekey",
            ns,
            baseline_ns,
            kernel: lanes::kernel_label(),
        });
    });

    // Multi-lane compression: ns per *block* for each SIMD width this
    // host supports, against the portable compressor on an identical
    // workload (`compress_many_with(Scalar, ..)` inside the software
    // selector runs the portable loop). Hosts without sse2/avx2 simply
    // omit the lane they can't run.
    lanes::with_software_kernels(|| bench_lane_widths(&mut records));

    // The SHA-NI one-block kernel (what compress_from runs on this
    // host) against the portable rounds. Hosts without the SHA
    // extensions omit the lane.
    if lanes::detected_block_kernel() == BlockKernel::ShaNi {
        let block = [0x5au8; BLOCK_LEN];
        assert_eq!(
            Sha256::compress_from(&INITIAL_STATE, &block),
            Sha256::compress_portable(&INITIAL_STATE, &block),
            "compress_sha_ni must match the portable compression"
        );
        // Chained, so each block waits on the last: latency, the cost a
        // serial chain walk pays.
        let mut timed = INITIAL_STATE;
        let mut reference = INITIAL_STATE;
        let (ns, baseline_ns) = measure_pair(
            || {
                timed = Sha256::compress_from(&timed, &block);
                timed[0]
            },
            || {
                reference = Sha256::compress_portable(&reference, &block);
                reference[0]
            },
        );
        records.push(CryptoRecord {
            name: "compress_sha_ni",
            ns,
            baseline_ns,
            kernel: lanes::kernel_label(),
        });
    }

    records
}

/// The `compress_x4` / `compress_x8` lanes; called inside the software
/// selector so the scalar baseline is the portable loop.
fn bench_lane_widths(records: &mut Vec<CryptoRecord>) {
    for &width in lanes::supported() {
        let name = match width {
            LaneWidth::Scalar => continue,
            LaneWidth::W4 => "compress_x4",
            LaneWidth::W8 => "compress_x8",
        };
        let n = width.lanes();
        let blocks = vec![[0x5au8; BLOCK_LEN]; n];

        // Sanity: the wide kernel must agree with the scalar one.
        let mut wide = vec![INITIAL_STATE; n];
        let mut scalar = vec![INITIAL_STATE; n];
        lanes::compress_many_with(width, &mut wide, &blocks);
        lanes::compress_many_with(LaneWidth::Scalar, &mut scalar, &blocks);
        assert_eq!(wide, scalar, "{name} must match the scalar compression");

        let mut timed = vec![INITIAL_STATE; n];
        let mut reference = vec![INITIAL_STATE; n];
        let (ns, baseline_ns) = measure_pair(
            || lanes::compress_many_with(width, &mut timed, &blocks),
            || lanes::compress_many_with(LaneWidth::Scalar, &mut reference, &blocks),
        );
        records.push(CryptoRecord {
            name,
            ns: ns.div_ceil(n as u64),
            baseline_ns: baseline_ns.div_ceil(n as u64),
            kernel: lanes::kernel_label(),
        });
    }
}

fn main() {
    let out_dir = std::env::args()
        .nth(1)
        .filter(|a| !a.starts_with('-'))
        .unwrap_or_else(|| ".".into());

    let crypto = bench_crypto();
    for r in &crypto {
        println!(
            "{:<24} {:>10} ns/iter   baseline {:>10} ns   speedup {:.2}x   [{}]",
            r.name,
            r.ns,
            r.baseline_ns,
            r.speedup(),
            r.kernel
        );
    }
    let crypto_json = array(&crypto, |r| {
        JsonObject::new()
            .str("name", r.name)
            .u64("ns_per_iter", r.ns)
            .u64("baseline_ns", r.baseline_ns)
            .f64("speedup", r.speedup())
            .str("kernel", r.kernel)
    });
    let crypto_path = format!("{out_dir}/BENCH_crypto.json");
    std::fs::write(&crypto_path, format!("{crypto_json}\n")).expect("write BENCH_crypto.json");

    // The acceptance grid: 12 attack levels × 8 buffer counts × 4 loss
    // rates. Campaigns are short — this measures scheduling, not the
    // simulator.
    let config = SweepConfig {
        attack_levels: (0..12).map(|i| 0.05 + 0.07 * f64::from(i)).collect(),
        buffer_counts: (0..8).map(|i| 1usize << i).collect(),
        loss_rates: vec![0.0, 0.1, 0.2, 0.3],
        intervals: 40,
        announce_copies: 1,
        seed: 2016,
        fault: None,
    };
    let t0 = Instant::now();
    let (rows, stats) = run_sweep_with_stats(&config);
    let parallel = t0.elapsed();
    let t1 = Instant::now();
    let reference = run_sweep_sequential(&config);
    let sequential = t1.elapsed();
    let identical = to_csv(&rows) == to_csv(&reference);
    assert!(
        identical,
        "parallel sweep diverged from sequential reference"
    );

    let cells_per_sec = stats.cells as f64 / parallel.as_secs_f64();
    let sweep_speedup = sequential.as_secs_f64() / parallel.as_secs_f64();
    let wall = &stats.cell_wall;
    let (wall_p50, wall_p95, wall_p99) = (
        wall.quantile(0.5).unwrap_or(0),
        wall.quantile(0.95).unwrap_or(0),
        wall.quantile(0.99).unwrap_or(0),
    );
    println!(
        "sweep 12x8x4             {:>10} cells   {:>7} workers engaged   {:.0} cells/s   {:.2}x vs sequential",
        stats.cells, stats.workers_engaged, cells_per_sec, sweep_speedup
    );
    println!(
        "sweep cell wall time     p50={wall_p50}ns p95={wall_p95}ns p99={wall_p99}ns   ({} cells sampled)",
        wall.count()
    );

    let sweep_records = [(rows.len(), stats)];
    let sweep_json = array(&sweep_records, |(n, s)| {
        JsonObject::new()
            .str("name", "sweep_12x8x4")
            .u64("cells", *n as u64)
            .u64("workers_spawned", s.workers_spawned as u64)
            .u64("workers_engaged", s.workers_engaged as u64)
            .u64("parallel_us", parallel.as_micros() as u64)
            .u64("sequential_us", sequential.as_micros() as u64)
            .f64("cells_per_sec", cells_per_sec)
            .f64("speedup", sweep_speedup)
            .u64("cell_wall_p50_ns", wall_p50)
            .u64("cell_wall_p95_ns", wall_p95)
            .u64("cell_wall_p99_ns", wall_p99)
            .bool("bit_identical", identical)
    });
    let sweep_path = format!("{out_dir}/BENCH_sweep.json");
    std::fs::write(&sweep_path, format!("{sweep_json}\n")).expect("write BENCH_sweep.json");

    println!("wrote {crypto_path} and {sweep_path}");
}
