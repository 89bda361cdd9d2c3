//! The binaries' command lines are strict: a refused line prints usage
//! and exits 2 before any work starts, `--help` exits 0.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("spawn binary")
}

fn assert_refused(bin: &str, args: &[&str], message: &str) {
    let out = run(bin, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(message), "{args:?}: {stderr}");
    assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} ran before refusing");
}

const DAPD: &str = env!("CARGO_BIN_EXE_dapd");
const DAPTRACE: &str = env!("CARGO_BIN_EXE_daptrace");
const NETBENCH: &str = env!("CARGO_BIN_EXE_netbench");

#[test]
fn misspelt_option_cannot_pass_as_a_clean_run() {
    assert_refused(
        DAPD,
        &["--loopback", "--flod", "0.9", "--assert-soak"],
        "unknown option --flod",
    );
    assert_refused(DAPD, &["--loopback", "--seed"], "--seed needs a value");
    assert_refused(DAPD, &["--loopback", "stray"], "unexpected argument");
    assert_refused(DAPD, &["--loopback", "--seed", "pony"], "unparsable");
    assert_refused(DAPD, &[], "need --loopback");
    assert_refused(DAPD, &["--role", "spy"], "sender | receiver | flooder");
}

#[test]
fn flood_shares_outside_the_unit_interval_are_refused() {
    for bad in ["1.0", "1", "-0.1", "NaN", "inf"] {
        assert_refused(DAPD, &["--loopback", "--flood", bad], "outside [0, 1)");
        assert_refused(DAPD, &["--fleet", "--flood", bad], "outside [0, 1)");
        assert_refused(
            DAPD,
            &["--loopback", "--adaptive", "--flood-end", bad],
            "outside [0, 1)",
        );
    }
}

#[test]
fn daptrace_and_netbench_refuse_strays() {
    assert_refused(DAPTRACE, &["audit", "t.jsonl", "--bogus", "1"], "--bogus");
    assert_refused(
        DAPTRACE,
        &["audit", "t.jsonl", "extra"],
        "unexpected argument",
    );
    assert_refused(DAPTRACE, &["audit"], "trace path");
    assert_refused(
        DAPTRACE,
        &["explain", "t.jsonl"],
        "unexpected argument \"explain\"",
    );
    assert_refused(
        DAPTRACE,
        &["audit", "t.jsonl", "--limit"],
        "--limit needs a value",
    );
    assert_refused(NETBENCH, &["out", "extra"], "unexpected argument");
    assert_refused(NETBENCH, &["--json"], "unknown option --json");
}

#[test]
fn help_prints_usage_and_exits_zero() {
    for bin in [DAPD, DAPTRACE, NETBENCH] {
        let out = run(bin, &["--help"]);
        assert_eq!(out.status.code(), Some(0), "{bin}");
        assert!(
            String::from_utf8_lossy(&out.stdout).contains("usage:"),
            "{bin}"
        );
    }
}

/// A size that must be at least one, refused in every mode that takes it
/// (the receiver role refuses before it binds a socket).
fn assert_zero_refused(option: &str) {
    let message = format!("{option} 0 is outside 1 or more");
    for mode in [&["--loopback"][..], &["--fleet"], &["--role", "receiver"]] {
        assert_refused(DAPD, &[mode, &[option, "0"]].concat(), &message);
    }
}

#[test]
fn zero_buffers_are_refused() {
    assert_zero_refused("--buffers");
}

#[test]
fn zero_shards_are_refused() {
    assert_zero_refused("--shards");
}

#[test]
fn zero_queue_depth_is_refused() {
    assert_zero_refused("--queue-depth");
}

#[test]
fn zero_senders_are_refused() {
    assert_refused(
        DAPD,
        &["--fleet", "--senders", "0"],
        "--senders 0 is outside 1 or more",
    );
}

#[test]
fn loss_above_one_is_refused() {
    assert_refused(
        DAPD,
        &["--loopback", "--loss", "2"],
        "--loss 2 is outside [0, 1]",
    );
}

#[test]
fn corruption_above_one_is_refused() {
    assert_refused(
        DAPD,
        &["--loopback", "--corrupt", "2"],
        "--corrupt 2 is outside [0, 1]",
    );
}

/// A UDP role's option that must be at least one. Target and bind are
/// given, so the zero is the only thing on the line to refuse.
fn assert_udp_zero_refused(role: &str, option: &str) {
    let args = [
        "--role",
        role,
        "--target",
        "127.0.0.1:9",
        "--bind",
        "127.0.0.1:0",
        option,
        "0",
    ];
    assert_refused(DAPD, &args, &format!("{option} 0 is outside 1 or more"));
}

#[test]
fn zero_sender_copies_are_refused() {
    assert_udp_zero_refused("sender", "--copies");
}

#[test]
fn zero_tick_is_refused_on_every_udp_role() {
    for role in ["sender", "flooder", "receiver"] {
        assert_udp_zero_refused(role, "--tick-us");
    }
}

#[test]
fn zero_flood_rate_is_refused() {
    assert_udp_zero_refused("flooder", "--rate");
}

/// `--intervals` past the chain-memory ceiling is refused before any
/// chain is derived: with the check missing, these lines would try to
/// hold 2^64 (or a ceiling's worth plus one) keys in memory.
#[test]
fn intervals_past_the_chain_ceiling_are_refused_on_every_mode() {
    let max = u64::MAX.to_string();
    let past = (dap_net::opts::MAX_INTERVALS + 1).to_string();
    let udp = ["--target", "127.0.0.1:9", "--bind", "127.0.0.1:0"];
    for value in [max.as_str(), past.as_str()] {
        for mode in [&["--loopback"][..], &["--fleet", "--senders", "1"][..]] {
            let args: Vec<&str> = mode.iter().copied().chain(["--intervals", value]).collect();
            assert_refused(DAPD, &args, "chain-memory ceiling");
        }
        for role in ["sender", "receiver", "flooder"] {
            let args: Vec<&str> = ["--role", role]
                .into_iter()
                .chain(udp)
                .chain(["--intervals", value])
                .collect();
            assert_refused(DAPD, &args, "chain-memory ceiling");
        }
    }
    // A fleet's senders share the budget: the single-chain maximum is
    // already too long for two senders.
    let at_max = dap_net::opts::MAX_INTERVALS.to_string();
    assert_refused(
        DAPD,
        &["--fleet", "--senders", "2", "--intervals", &at_max],
        "chain-memory ceiling",
    );
    // The ceiling is documented where the operator looks.
    let help = run(DAPD, &["--help"]);
    assert!(String::from_utf8_lossy(&help.stdout).contains(&at_max));
}
