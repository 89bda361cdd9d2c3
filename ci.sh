#!/usr/bin/env sh
# The full offline gate. The workspace is hermetic — everything here
# must succeed with no network and an empty registry cache.
set -eu

cd "$(dirname "$0")"

echo "== build (release, offline) =="
cargo build --release --offline --workspace

echo "== tests (offline) =="
cargo test -q --offline --workspace

echo "== clippy (offline, deny warnings) =="
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== formatting =="
cargo fmt --check

echo "== perf smoke (midstate/pebble/sweep trajectory) =="
# 25 ms per measurement (not 5): the crypto regression gate below
# compares speedup ratios from this run against the committed baseline,
# and the one-shot calibration in the timer is too noisy at 5 ms.
DAP_BENCH_MS=25 cargo run --release --offline -p dap-bench --bin perf -- target

echo "== sweep determinism (parallel vs sequential, default grid) =="
cargo run --release --offline -p dap-bench --bin sweep -- 400 --check > /dev/null

echo "== net soak (seeded loopback flood, sharded pool) =="
# Flood at p = 0.9: --assert-soak checks no shed frames, no weak
# rejects, balanced counters, and auth rate within tolerance of 1 - p^m.
# Two same-seed runs must be byte-identical (multi-threaded pool,
# deterministic by construction — see DESIGN.md §8).
soak="cargo run --release --offline -q -p dap-net --bin dapd --"
$soak --loopback --seed 2016 --intervals 400 --buffers 4 --shards 4 \
    --flood 0.9 --copies 4 --assert-soak > target/net_soak_a.txt
$soak --loopback --seed 2016 --intervals 400 --buffers 4 --shards 4 \
    --flood 0.9 --copies 4 --assert-soak > target/net_soak_b.txt
cmp target/net_soak_a.txt target/net_soak_b.txt
# No adversary: 100% of genuine reveals must authenticate.
$soak --loopback --seed 7 --intervals 100 --flood 0 --copies 1 \
    --assert-soak > /dev/null

echo "== telemetry gate (seeded trace + snapshot byte-identity) =="
# Two same-seed traced runs: the printed registry snapshot must be
# byte-identical, and the trace JSONL must be byte-identical as a
# *whole file* — the header timestamp reads the run's own TimeSource,
# so a frozen-clock run has nothing wall-clocked to skip (DESIGN.md §9
# and tests/telemetry.rs).
$soak --loopback --seed 2016 --intervals 400 --buffers 4 --shards 4 \
    --flood 0.9 --copies 4 --trace-out target/net_trace_a.jsonl \
    > target/net_telemetry_a.txt
$soak --loopback --seed 2016 --intervals 400 --buffers 4 --shards 4 \
    --flood 0.9 --copies 4 --trace-out target/net_trace_b.jsonl \
    > target/net_telemetry_b.txt
cmp target/net_telemetry_a.txt target/net_telemetry_b.txt
cmp target/net_trace_a.jsonl target/net_trace_b.jsonl
test -s target/net_trace_a.jsonl

echo "== fleet soak (1k tagged senders, session tables, byte-identity) =="
# Crowd-scale gate: every sender spoofed by the flooder at p = 0.8,
# frames routed to shards by SenderId, per-sender sessions under a fixed
# memory budget. --assert-soak checks balanced counters, no weak
# accepts, budget compliance and the per-sender 1 - p^m rate; two
# same-seed campaigns must print byte-identical snapshots (DESIGN §10).
$soak --fleet --seed 2016 --senders 1024 --intervals 4 --buffers 4 \
    --shards 4 --flood 0.8 --assert-soak > target/fleet_soak_a.txt
$soak --fleet --seed 2016 --senders 1024 --intervals 4 --buffers 4 \
    --shards 4 --flood 0.8 --assert-soak > target/fleet_soak_b.txt
cmp target/fleet_soak_a.txt target/fleet_soak_b.txt

echo "== overload gate (burst adversary, pinned floor, shed byte-identity) =="
# The prioritized posture under the worst targeted adversary: pins 1-8,
# a finite per-shard drain budget, burst-at-reanchor at p = 0.9. Two
# same-seed campaigns must print byte-identical reports and emit
# byte-identical traces, whole file, shed decisions and header
# included, and the pinned senders must authenticate every reveal
# (>= 0.99 x the clean baseline asserted below). See DESIGN.md §11.
$soak --fleet --seed 2016 --senders 64 --intervals 8 --buffers 4 \
    --shards 4 --flood 0.9 --copies 4 --adversary burst-reanchor \
    --pin-first 8 --drain-budget 96 --assert-soak \
    --assert-pinned-floor 990 --trace-out target/overload_a.jsonl \
    > target/overload_a.txt
$soak --fleet --seed 2016 --senders 64 --intervals 8 --buffers 4 \
    --shards 4 --flood 0.9 --copies 4 --adversary burst-reanchor \
    --pin-first 8 --drain-budget 96 --assert-soak \
    --assert-pinned-floor 990 --trace-out target/overload_b.jsonl \
    > target/overload_b.txt
cmp target/overload_a.txt target/overload_b.txt
cmp target/overload_a.jsonl target/overload_b.jsonl
test -s target/overload_a.jsonl
# The burst must actually overflow the budget: shed decisions traced.
grep -q '"ev":"shed_decision"' target/overload_a.jsonl
# Clean baseline for the 0.99x floor: no adversary, same posture — the
# pinned rate is 1000 permille, so the attacked floor above is >= 0.99x.
$soak --fleet --seed 2016 --senders 64 --intervals 8 --buffers 4 \
    --shards 4 --flood 0 --copies 1 --pin-first 8 --drain-budget 96 \
    --assert-pinned-floor 1000 > /dev/null

echo "== adaptive gate (live control plane: ramp to the ESS, byte-identity) =="
# DESIGN §13: --adaptive closes the loop — the driver estimates the
# forged share from reveal-time buffer evidence and broadcasts re-size
# directives at quiesced interval boundaries. Under a 0.1 -> 0.9 flood
# ramp the final commanded m must land within +-1 of the offline
# Algorithm 3 optimum (--assert-adaptive); two same-seed runs must
# print byte-identical snapshots and whole-file byte-identical traces
# (the feedback edge costs no determinism); and the trace must
# narrate at least one live re-size.
$soak --loopback --seed 2016 --intervals 300 --buffers 2 --shards 4 \
    --flood 0.1 --flood-end 0.9 --adaptive --assert-adaptive \
    --trace-out target/adaptive_a.jsonl > target/adaptive_a.txt
$soak --loopback --seed 2016 --intervals 300 --buffers 2 --shards 4 \
    --flood 0.1 --flood-end 0.9 --adaptive --assert-adaptive \
    --trace-out target/adaptive_b.jsonl > target/adaptive_b.txt
cmp target/adaptive_a.txt target/adaptive_b.txt
cmp target/adaptive_a.jsonl target/adaptive_b.jsonl
grep -q '"ev":"posture_change"' target/adaptive_a.jsonl
# No-flap leg: a stationary clean wire must never fire a directive.
$soak --loopback --seed 7 --intervals 120 --buffers 1 --flood 0 \
    --copies 1 --adaptive --assert-posture-stable > /dev/null
# Saturated leg: a 0.95 flood from interval zero on one buffer makes
# the first evidence sample all-forged (p-hat = 1000 permille). The
# run must finish cleanly and narrate the give-up posture.
$soak --loopback --adaptive --flood 0.95 --buffers 1 \
    --trace-out target/adaptive_saturated.jsonl > /dev/null
grep '"ev":"posture_change"' target/adaptive_saturated.jsonl \
    | grep -q '"give_up":true'

echo "== posture table (exhaustive Algorithm-3 agreement) =="
# DESIGN §13: the control plane reads m* from a committed breakpoint
# table. Re-solve every p in 0..=999 permille with exact Algorithm 3
# and compare each answer to the lookup; 1000 permille must read
# give-up. Exits 1 on any mismatch.
cargo run --release --offline -q -p dap-bench --bin posture_table \
    > target/posture_table.txt

echo "== daptrace gate (forensic audit of the captured traces) =="
# DESIGN §14: the audit engine replays every capture the gates above
# produced and proves the causal invariants hold — verify pairing,
# shed quiescence, monotone posture epochs, the k <= m reservoir
# bound, pinned-session immunity — exiting nonzero on any violation.
# The same-seed flood soak is traced twice (net_trace_a/b above); both
# must audit clean and their audits and reports must be byte-identical.
daptrace="cargo run --release --offline -q -p dap-net --bin daptrace --"
# The flood capture must actually carry flight-recorder spans.
grep -q '"ev":"frame_span"' target/net_trace_a.jsonl
$daptrace audit target/net_trace_a.jsonl > target/audit_a.txt
$daptrace audit target/net_trace_b.jsonl > target/audit_b.txt
cmp target/audit_a.txt target/audit_b.txt
$daptrace report target/net_trace_a.jsonl > target/report_a.txt
$daptrace report target/net_trace_b.jsonl > target/report_b.txt
cmp target/report_a.txt target/report_b.txt
test -s target/report_a.txt
# The stage-latency table and the attack-onset verdict must be there:
# a p = 0.9 flood from interval zero registers an onset immediately.
grep -q 'verify' target/report_a.txt
grep -q 'attack onset' target/report_a.txt
# The overload capture audits clean under its pinned-floor posture —
# --pin-first mirrors the soak flags, arming the pin-respected rule.
$daptrace audit --pin-first 8 target/overload_a.jsonl > /dev/null
# The adaptive captures' posture epochs are monotone end to end.
$daptrace audit target/adaptive_a.jsonl > /dev/null
$daptrace audit target/adaptive_saturated.jsonl > /dev/null
# A tampered capture must be rejected with a nonzero exit.
sed 's/"ev":"verify_end"/"ev":"verify_end_forged"/' \
    target/net_trace_a.jsonl > target/net_trace_tampered.jsonl
if $daptrace audit target/net_trace_tampered.jsonl > /dev/null 2>&1; then
    echo "daptrace accepted a tampered trace" >&2
    exit 1
fi

echo "== sweep parallelism gate (workers engaged, bit-identical) =="
# The perf smoke above wrote target/BENCH_sweep.json. The provisioning
# floor guarantees at least two engaged workers on any box; the speedup
# claim only means something with two real cores under the process.
engaged=$(grep -o '"workers_engaged":[0-9]*' target/BENCH_sweep.json | cut -d: -f2)
test -n "$engaged" && test "$engaged" -ge 2
grep -q '"bit_identical":true' target/BENCH_sweep.json
cores=$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)
if [ "$cores" -ge 2 ]; then
    speedup=$(grep -o '"speedup":[0-9.]*' target/BENCH_sweep.json | cut -d: -f2)
    echo "$speedup" | awk '{ exit !($1 > 1.2) }' || {
        echo "sweep speedup $speedup <= 1.2 on a $cores-core box" >&2
        exit 1
    }
fi

echo "== netbench smoke (ingress throughput + verify latency) =="
DAP_BENCH_MS=5 cargo run --release --offline -q -p dap-net --bin netbench -- target > /dev/null
# The verify lanes must report a real latency tail in BENCH_net.json.
p99=$(grep -o '"p99_ns":[0-9]*' target/BENCH_net.json | head -n1 | cut -d: -f2)
test -n "$p99" && test "$p99" -gt 0
# The fleet ingress lane (tagged frames through session tables) must be
# present and report a real rate.
grep -q '"name":"fleet_ingest"' target/BENCH_net.json
# The adversary survival matrix (class x posture) must be present with
# its survival fields (see EXPERIMENTS.md).
grep -q '"name":"overload_burst-reanchor_prioritized"' target/BENCH_net.json
grep -q '"pinned_permille"' target/BENCH_net.json

echo "== traced-ingest overhead gate (flight recorder <= 10%) =="
# The loopback ingest lane runs as an interleaved pair: untraced vs
# the flight-recorder posture (per-shard retain-last-8192 rings, a
# span on every frame). Tracing every frame may cost at most 10% of
# untraced throughput, or the recorder is not flight-recorder-grade.
# Trailing comma in the name match keeps loopback_ingest from also
# matching its _traced sibling.
untraced=$(grep '"name":"loopback_ingest",' target/BENCH_net.json \
    | grep -o '"frames_per_sec":[0-9.]*' | cut -d: -f2)
traced=$(grep '"name":"loopback_ingest_traced",' target/BENCH_net.json \
    | grep -o '"frames_per_sec":[0-9.]*' | cut -d: -f2)
test -n "$untraced" && test -n "$traced"
echo "$traced $untraced" | awk '{ exit !($1 >= 0.90 * $2) }' || {
    echo "traced ingest at $traced frames/s is < 0.90x untraced at $untraced frames/s" >&2
    exit 1
}

echo "== batch gate (lane-parallel reveal-verify >= 2x scalar) =="
# The batched lanes amortize the per-interval chain walk and push the
# HMAC re-key + MAC through the multi-lane SHA-256 kernels; the whole
# point is >= 2x the sequential lane on the same 2048-reveal workload
# (see DESIGN.md §12). Each lane's name is matched with its trailing
# comma so dap_reveal_verify does not also match its _batched sibling.
for pair in "dap_reveal_verify dap_reveal_verify_batched" \
            "teslapp_reveal_verify teslapp_reveal_verify_batched"; do
    set -- $pair
    scalar=$(grep "\"name\":\"$1\"," target/BENCH_net.json \
        | grep -o '"frames_per_sec":[0-9.]*' | cut -d: -f2)
    batched=$(grep "\"name\":\"$2\"," target/BENCH_net.json \
        | grep -o '"frames_per_sec":[0-9.]*' | cut -d: -f2)
    test -n "$scalar" && test -n "$batched"
    echo "$batched $scalar" | awk '{ exit !($1 >= 2.0 * $2) }' || {
        echo "$2 at $batched frames/s is < 2x $1 at $scalar frames/s" >&2
        exit 1
    }
done

echo "== crypto bench regression gate (vs committed BENCH_crypto.json) =="
# The perf smoke above wrote target/BENCH_crypto.json. Every lane in
# the committed baseline must keep >= 0.8x its committed speedup ratio
# in the fresh run — a >20% regression on any pre-existing crypto lane
# fails CI. Ratios (not raw ns) make this robust to slow boxes; lanes
# the host cannot produce (e.g. compress_x8 without AVX2) are skipped.
while IFS= read -r line; do
    case "$line" in *'"name"'*) ;; *) continue ;; esac
    name=$(echo "$line" | grep -o '"name":"[^"]*"' | cut -d'"' -f4)
    committed=$(echo "$line" | grep -o '"speedup":[0-9.]*' | cut -d: -f2)
    fresh=$(grep "\"name\":\"$name\"," target/BENCH_crypto.json \
        | grep -o '"speedup":[0-9.]*' | cut -d: -f2)
    if [ -z "$fresh" ]; then
        echo "  lane $name not produced on this host -- skipped"
        continue
    fi
    echo "$fresh $committed" | awk '{ exit !($1 >= 0.8 * $2) }' || {
        echo "crypto lane $name regressed: speedup $fresh < 0.8 x committed $committed" >&2
        exit 1
    }
done < BENCH_crypto.json

echo "== wirebench (the repository benchmark builds and replays correctly) =="
# BENCHMARK.json runs wirebench, a cargo package of its own outside the
# workspace, so none of the steps above build it. Build it, run its
# tests, and replay every workload once, briefly: the last stdout line
# must report "correct":true (no round authenticates more reveals than
# were sent, flood rounds stay inside the 1 - p^m soak envelope, and
# every round on a corpus renders the same counters).
wirebench="cargo run --quiet --release --offline --manifest-path wirebench/Cargo.toml --"
cargo build --release --offline --manifest-path wirebench/Cargo.toml
cargo test -q --release --offline --manifest-path wirebench/Cargo.toml
for workload in flood fleet adaptive; do
    $wirebench --workload "$workload" --seed 1 --seconds 1 --trace 0 \
        > "target/wirebench_$workload.txt" 2> "target/wirebench_$workload.log" || true
    tail -n 1 "target/wirebench_$workload.txt" | grep -q '"correct":true' || {
        echo "wirebench $workload did not replay correctly:" >&2
        tail -n 1 "target/wirebench_$workload.txt" >&2
        exit 1
    }
done

echo "ci.sh: all green"
