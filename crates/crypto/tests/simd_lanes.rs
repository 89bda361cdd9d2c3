//! Kernel-vs-reference equality for the SHA-256 stack, on the in-tree
//! `dap-testkit` harness (deterministic, seeded, shrinking).
//!
//! Every batch API in `dap-crypto` must be bit-identical to the scalar
//! loop it replaces, on every lane width this host supports and on
//! ragged batch sizes (0, 1, 3, lanes-1, lanes, lanes+1, and random) —
//! a SIMD kernel is a pure throughput trade-off, never an observable
//! one. The SHA-NI one-block kernel (on hosts that have it) must equal
//! the portable rounds block for block, and every batch API must give
//! the same answers under both settings of the software-kernel
//! selector. The standard vectors (FIPS 180-4 for SHA-256, RFC 4231 for
//! HMAC-SHA-256) are also routed through the multi-lane path, under
//! both selector settings, so each kernel is pinned to the
//! specification, not just to our own reference code.

use dap_crypto::hmac::{hmac_sha256, PreparedMacKey};
use dap_crypto::lanes::{
    block_kernel, compress_many, compress_many_with, detected_block_kernel, digest_many,
    digest_many_from_midstates, kernel_label, supported, with_software_kernels, BlockKernel,
    LaneWidth,
};
use dap_crypto::mac::{mac80, mac80_many, verify_mac80, verify_mac80_many, Mac80};
use dap_crypto::sha256::{digest, digest_from_midstate, Sha256, BLOCK_LEN, INITIAL_STATE};
use dap_crypto::Key;
use dap_testkit::{check, check_with, Config, Gen};

/// Runs `f` on the production kernels, then again inside the software
/// selector, so one test body covers both.
fn on_both_kernels(f: impl Fn()) {
    f();
    with_software_kernels(f);
}

/// The batch sizes every width must handle: empty, sub-width, exactly
/// one SIMD chunk, and one lane past a chunk boundary.
fn ragged_sizes(width: LaneWidth) -> Vec<usize> {
    let lanes = width.lanes();
    let mut sizes = vec![0, 1, 3, lanes.saturating_sub(1), lanes, lanes + 1];
    sizes.sort_unstable();
    sizes.dedup();
    sizes
}

fn arb_state(g: &mut Gen) -> [u32; 8] {
    let mut s = INITIAL_STATE;
    for word in &mut s {
        *word ^= g.any_u32();
    }
    s
}

fn arb_block(g: &mut Gen) -> [u8; BLOCK_LEN] {
    g.byte_array()
}

#[test]
fn compress_many_equals_scalar_loop_on_every_width_and_ragged_size() {
    check("compress_many_lane_vs_scalar", |g| {
        for &width in supported() {
            for n in ragged_sizes(width) {
                let states: Vec<[u32; 8]> = (0..n).map(|_| arb_state(g)).collect();
                let blocks: Vec<[u8; BLOCK_LEN]> = (0..n).map(|_| arb_block(g)).collect();
                let reference: Vec<[u32; 8]> = states
                    .iter()
                    .zip(blocks.iter())
                    .map(|(s, b)| Sha256::compress_portable(s, b))
                    .collect();
                let mut got = states.clone();
                compress_many_with(width, &mut got, &blocks);
                assert_eq!(got, reference, "width {width}, batch {n}");
            }
        }
    });
}

// ---------------------------------------------------------------------
// The single-block kernel and the software-kernel selector.
// ---------------------------------------------------------------------

/// Whether this CPU reports every feature the SHA-NI kernel enables.
fn cpu_has_sha_ni() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("sha")
            && std::arch::is_x86_feature_detected!("sse2")
            && std::arch::is_x86_feature_detected!("ssse3")
            && std::arch::is_x86_feature_detected!("sse4.1")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

#[test]
fn detected_kernel_is_sha_ni_whenever_the_cpu_has_it() {
    let want = if cpu_has_sha_ni() {
        BlockKernel::ShaNi
    } else {
        BlockKernel::Portable
    };
    assert_eq!(detected_block_kernel(), want);
    assert_eq!(block_kernel(), want, "outside the selector");
    let label = kernel_label();
    assert_eq!(label == "sha-ni", want == BlockKernel::ShaNi, "{label}");
}

#[test]
fn software_selector_is_scoped_to_the_calling_thread() {
    let outside = block_kernel();
    with_software_kernels(|| {
        assert_eq!(block_kernel(), BlockKernel::Portable);
        assert!(kernel_label().starts_with("portable"));
        // Nested scopes restore the enclosing setting, not the default.
        with_software_kernels(|| assert_eq!(block_kernel(), BlockKernel::Portable));
        assert_eq!(block_kernel(), BlockKernel::Portable);
        // A thread spawned inside runs the production kernel.
        let spawned = std::thread::spawn(block_kernel).join().expect("join");
        assert_eq!(spawned, detected_block_kernel());
    });
    assert_eq!(block_kernel(), outside);
    // An unwinding closure still restores the setting.
    let unwound = std::panic::catch_unwind(|| with_software_kernels(|| panic!("inside")));
    assert!(unwound.is_err());
    assert_eq!(block_kernel(), outside);
}

/// Over 100k random `(state, block)` pairs (1024 cases of 100), plus
/// the all-zero and all-`0xff` edges, the host's one-block kernel —
/// SHA-NI where present — equals the portable rounds.
#[test]
fn block_kernel_equals_the_portable_compression() {
    for byte in [0x00u8, 0xff] {
        let state = [u32::from_ne_bytes([byte; 4]); 8];
        let block = [byte; BLOCK_LEN];
        for s in [state, INITIAL_STATE] {
            assert_eq!(
                Sha256::compress_from(&s, &block),
                Sha256::compress_portable(&s, &block),
                "edge byte {byte:#04x}"
            );
        }
    }
    let config = Config {
        cases: 1024,
        ..Config::default()
    };
    check_with(config, "block_kernel_vs_portable", |g| {
        for _ in 0..100 {
            let state: [u32; 8] = std::array::from_fn(|_| g.any_u32());
            let block = arb_block(g);
            assert_eq!(
                Sha256::compress_from(&state, &block),
                Sha256::compress_portable(&state, &block),
                "kernel {:?}",
                block_kernel()
            );
        }
    });
}

#[test]
fn batch_apis_agree_under_both_selector_settings() {
    check("batch_apis_production_vs_software", |g| {
        let n = g.usize_in(0..19);
        let states: Vec<[u32; 8]> = (0..n).map(|_| arb_state(g)).collect();
        let blocks: Vec<[u8; BLOCK_LEN]> = (0..n).map(|_| arb_block(g)).collect();
        let tails: Vec<Vec<u8>> = (0..n).map(|_| g.bytes(0..150)).collect();
        let tail_refs: Vec<&[u8]> = tails.iter().map(Vec::as_slice).collect();
        let run = || {
            let mut compressed = states.clone();
            compress_many(&mut compressed, &blocks);
            let digests = digest_many_from_midstates(&states, BLOCK_LEN as u64, &tail_refs);
            (compressed, digests)
        };
        let production = run();
        let software = with_software_kernels(run);
        assert_eq!(production, software, "batch of {n}");
        let portable: Vec<[u32; 8]> = states
            .iter()
            .zip(&blocks)
            .map(|(s, b)| Sha256::compress_portable(s, b))
            .collect();
        assert_eq!(production.0, portable, "batch of {n}");
    });
}

/// The selector is a bench and test instrument: production code must
/// not be able to opt out of the host's kernels. Only the two bench
/// binaries that compare software code paths (and test files) may name
/// it.
#[test]
fn only_benches_and_tests_reach_the_software_selector() {
    fn visit(dir: &std::path::Path, hits: &mut Vec<String>) {
        for entry in std::fs::read_dir(dir).expect("readable source dir") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                visit(&path, hits);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let text = std::fs::read_to_string(&path).expect("readable source");
                if text.contains("with_software_kernels(") {
                    hits.push(path.display().to_string());
                }
            }
        }
    }
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut hits = Vec::new();
    for dir in ["crates", "src", "examples", "tests"] {
        let dir = root.join(dir);
        if dir.is_dir() {
            visit(&dir, &mut hits);
        }
    }
    let allowed = |path: &str| {
        path.contains("/tests/")
            || path.ends_with("/bin/perf.rs")
            || path.ends_with("/bin/netbench.rs")
            || path.ends_with("crypto/src/lanes.rs")
    };
    let stray: Vec<&String> = hits.iter().filter(|p| !allowed(p)).collect();
    assert!(stray.is_empty(), "selector reached from {stray:?}");
    assert!(hits.iter().any(|p| p.ends_with("/bin/perf.rs")), "{hits:?}");
}

#[test]
fn digest_many_equals_scalar_digest_on_ragged_batches() {
    check("digest_many_lane_vs_scalar", |g| {
        // Random batch size around the widest kernel's chunk boundary,
        // with per-lane lengths straddling block boundaries (empty,
        // sub-block, multi-block).
        let n = g.usize_in(0..19);
        let messages: Vec<Vec<u8>> = (0..n).map(|_| g.bytes(0..200)).collect();
        let refs: Vec<&[u8]> = messages.iter().map(Vec::as_slice).collect();
        let got = digest_many(&refs);
        assert_eq!(got.len(), n);
        for (i, msg) in messages.iter().enumerate() {
            assert_eq!(got[i], digest(msg), "lane {i} of {n}");
        }
    });
}

#[test]
fn midstate_batches_equal_the_scalar_midstate_path() {
    check("digest_many_from_midstates_lane_vs_scalar", |g| {
        let n = g.usize_in(0..13);
        // Each lane resumes from its own midstate, the HMAC shape: one
        // absorbed block, then a ragged tail.
        let prefixes: Vec<[u8; BLOCK_LEN]> = (0..n).map(|_| arb_block(g)).collect();
        let states: Vec<[u32; 8]> = prefixes
            .iter()
            .map(|p| Sha256::compress_from(&INITIAL_STATE, p))
            .collect();
        let tails: Vec<Vec<u8>> = (0..n).map(|_| g.bytes(0..150)).collect();
        let tail_refs: Vec<&[u8]> = tails.iter().map(Vec::as_slice).collect();
        let got = digest_many_from_midstates(&states, BLOCK_LEN as u64, &tail_refs);
        for i in 0..n {
            assert_eq!(
                got[i],
                digest_from_midstate(&states[i], BLOCK_LEN as u64, &tails[i]),
                "lane {i} of {n}"
            );
        }
    });
}

#[test]
fn mac80_many_equals_the_scalar_mac_loop() {
    check("mac80_many_lane_vs_scalar", |g| {
        let n = g.usize_in(0..17);
        let keys: Vec<Key> = (0..n)
            .map(|_| Key::from_slice(&g.byte_array::<10>()).unwrap())
            .collect();
        let messages: Vec<Vec<u8>> = (0..n).map(|_| g.bytes(0..96)).collect();
        let refs: Vec<&[u8]> = messages.iter().map(Vec::as_slice).collect();
        let got = mac80_many(&keys, &refs);
        for i in 0..n {
            assert_eq!(got[i], mac80(&keys[i], &messages[i]), "lane {i} of {n}");
        }
    });
}

#[test]
fn verify_mac80_many_equals_the_scalar_verify_loop() {
    check("verify_mac80_many_lane_vs_scalar", |g| {
        let n = g.usize_in(1..13);
        let keys: Vec<Key> = (0..n)
            .map(|_| Key::from_slice(&g.byte_array::<10>()).unwrap())
            .collect();
        let messages: Vec<Vec<u8>> = (0..n).map(|_| g.bytes(0..64)).collect();
        let refs: Vec<&[u8]> = messages.iter().map(Vec::as_slice).collect();
        // Corrupt a random subset of tags so both accept and reject
        // lanes appear in the same batch.
        let tags: Vec<Mac80> = mac80_many(&keys, &refs)
            .into_iter()
            .map(|tag| {
                if g.any_bool() {
                    let mut bytes = [0u8; Mac80::LEN];
                    bytes.copy_from_slice(tag.as_bytes());
                    bytes[0] ^= 1;
                    Mac80::from_slice(&bytes).unwrap()
                } else {
                    tag
                }
            })
            .collect();
        let got = verify_mac80_many(&keys, &refs, &tags);
        for i in 0..n {
            assert_eq!(
                got[i],
                verify_mac80(&keys[i], &messages[i], &tags[i]),
                "lane {i} of {n}"
            );
        }
    });
}

#[test]
fn prepared_mac_many_equals_the_scalar_prepared_mac() {
    check("prepared_mac_many_lane_vs_scalar", |g| {
        let n = g.usize_in(0..11);
        // Keys straddle the block boundary so both the copied and the
        // pre-hashed key schedules flow through the batch constructor.
        let keys: Vec<Vec<u8>> = (0..n).map(|_| g.bytes(0..96)).collect();
        let key_refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
        let prepared = PreparedMacKey::new_many(&key_refs);
        let messages: Vec<Vec<u8>> = (0..n).map(|_| g.bytes(0..128)).collect();
        let msg_refs: Vec<&[u8]> = messages.iter().map(Vec::as_slice).collect();
        let prepared_refs: Vec<&PreparedMacKey> = prepared.iter().collect();
        let got = PreparedMacKey::mac_many(&prepared_refs, &msg_refs);
        for i in 0..n {
            let scalar = PreparedMacKey::new(&keys[i]);
            assert_eq!(got[i], scalar.mac(&messages[i]), "lane {i} of {n}");
            assert_eq!(got[i], hmac_sha256(&keys[i], &messages[i]), "lane {i}");
        }
    });
}

// ---------------------------------------------------------------------
// Specification vectors through the multi-lane path.
// ---------------------------------------------------------------------

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// FIPS 180-4 SHA-256 vectors, all submitted as ONE ragged batch so the
/// answers come out of the lane-parallel kernels (on hosts that have
/// them) rather than one-message scalar code.
#[test]
fn fips_180_4_vectors_through_the_multi_lane_path() {
    let million_a = vec![b'a'; 1_000_000];
    let messages: [&[u8]; 4] = [
        b"abc",
        b"",
        b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
        &million_a,
    ];
    let expected = [
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
    ];
    on_both_kernels(|| {
        let got = digest_many(&messages);
        for (i, want) in expected.iter().enumerate() {
            assert_eq!(hex(&got[i]), *want, "FIPS vector {i} on {}", kernel_label());
            assert_eq!(
                hex(&digest(messages[i])),
                *want,
                "FIPS vector {i}, one-shot"
            );
        }
    });
}

/// RFC 4231 HMAC-SHA-256 test cases 1-4, 6 and 7 (case 5 specifies a
/// truncated output and is out of scope), all through
/// [`PreparedMacKey::new_many`] + [`PreparedMacKey::mac_many`] — the
/// lane-parallel HMAC pipeline the reveal-verify batch path uses.
#[test]
fn rfc_4231_vectors_through_the_multi_lane_path() {
    let case4_key: Vec<u8> = (1..=25).collect();
    let long_key = vec![0xaau8; 131];
    let keys: [&[u8]; 6] = [
        &[0x0bu8; 20],
        b"Jefe",
        &[0xaau8; 20],
        &case4_key,
        &long_key,
        &long_key,
    ];
    let data: [&[u8]; 6] = [
        b"Hi There",
        b"what do ya want for nothing?",
        &[0xddu8; 50],
        &[0xcdu8; 50],
        b"Test Using Larger Than Block-Size Key - Hash Key First",
        b"This is a test using a larger than block-size key and a larger \
          than block-size data. The key needs to be hashed before being \
          used by the HMAC algorithm.",
    ];
    let expected = [
        "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
        "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
        "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
        "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b",
        "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
        "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2",
    ];
    on_both_kernels(|| {
        let prepared = PreparedMacKey::new_many(&keys);
        let prepared_refs: Vec<&PreparedMacKey> = prepared.iter().collect();
        let got = PreparedMacKey::mac_many(&prepared_refs, &data);
        for (i, want) in expected.iter().enumerate() {
            assert_eq!(
                hex(&got[i]),
                *want,
                "RFC 4231 case {i} on {}",
                kernel_label()
            );
            let one = hmac_sha256(keys[i], data[i]);
            assert_eq!(hex(&one), *want, "RFC 4231 case {i}, one-shot");
        }
    });
}
