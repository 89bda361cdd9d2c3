//! The single-threaded layer replay: the same bytes, fed through
//! `codec::peek_*` and `codec::decode_tagged`, then one verifier per
//! shard with the pool's RNG forks, timing each call. Windowed
//! workloads call `prefetch` then `on_frame` per window, in the pool's
//! drain order. The replay times calls only; it never sheds (the
//! workloads are sized so the pool does not either).

use std::time::{Duration, Instant};

use dap_core::codec;
use dap_core::{DapMessage, PostureDirective, SenderId};
use dap_net::{
    DapShard, FleetShard, FrameVerifier, LiveCounters, PoolHandle, PriorityClass, Transport,
    UdpTransport,
};
use dap_simnet::{Registry, SimRng, SimTime};

use crate::corpus::Corpus;
use crate::workload::Workload;

/// Per-call durations and counts the replay observed.
#[derive(Debug, Default)]
pub struct Replay {
    /// `codec::peek_index` / `peek_sender` per datagram.
    pub peek_ns: Vec<u32>,
    /// `codec::decode_tagged` per datagram.
    pub decode_ns: Vec<u32>,
    /// `on_frame` on announces.
    pub announce_ns: Vec<u32>,
    /// `on_frame` on reveals.
    pub reveal_ns: Vec<u32>,
    /// `on_posture` per shard per directive.
    pub posture_ns: Vec<u32>,
    /// Total time in `prefetch`.
    pub prefetch_ns: u64,
    /// Reveals handed to `prefetch`.
    pub prefetch_reveals: u64,
    /// Non-empty `prefetch` calls.
    pub prefetch_batches: u64,
    /// Announces that went through reservoir sampling.
    pub offered: u64,
    /// Of those, the ones the reservoir kept.
    pub kept: u64,
    /// Reveals verified.
    pub reveals: u64,
    /// Reveals authenticated.
    pub auth: u64,
    /// Largest buffered memory across shards at any interval boundary.
    pub memory_bits: u64,
    /// Session lookups that found the sender resident (fleet only).
    pub resident: u64,
    /// Session lookups (fleet only).
    pub lookups: u64,
    /// Sessions evicted (fleet only).
    pub evicted: u64,
    /// Resident sessions at the end (fleet only).
    pub occupancy: u64,
}

fn ns_since(t: Instant) -> u32 {
    u32::try_from(t.elapsed().as_nanos()).unwrap_or(u32::MAX)
}

/// A shard verifier the replay can also inspect.
pub trait Inspect: FrameVerifier {
    /// Buffered reservoir memory right now, in bits.
    fn memory_bits(&self) -> u64;
    /// `(lookups that admitted, readmitted or found the id unknown,
    /// evictions, occupancy)` — zero without a session table.
    fn sessions(&self) -> (u64, u64, u64);
}

impl Inspect for DapShard {
    fn memory_bits(&self) -> u64 {
        self.receiver().memory_bits()
    }
    fn sessions(&self) -> (u64, u64, u64) {
        (0, 0, 0)
    }
}

impl Inspect for FleetShard {
    fn memory_bits(&self) -> u64 {
        self.table().memory_bits()
    }
    fn sessions(&self) -> (u64, u64, u64) {
        let s = self.table().stats();
        (
            s.admitted + s.readmitted + s.unknown,
            s.evicted,
            self.table().occupancy() as u64,
        )
    }
}

/// Replays `corpus` through `verifiers` (one per shard, in shard order),
/// routing with `route` (the pool's own `shard_of`) and applying each
/// `(slot, directive)` after its slot, as the pooled run posted them.
pub fn replay<V: Inspect>(
    w: &Workload,
    corpus: &Corpus,
    route: &PoolHandle,
    mut verifiers: Vec<V>,
    directives: &[(usize, PostureDirective)],
) -> Replay {
    let shards = verifiers.len();
    let mut parent = SimRng::new(corpus.pool_seed);
    let mut rngs: Vec<SimRng> = (0..shards).map(|s| parent.fork(s as u64)).collect();
    let mut registries: Vec<Registry> = (0..shards).map(|_| Registry::new()).collect();
    let live = LiveCounters::default();
    let mut windows: Vec<Vec<codec::TaggedFrame>> = (0..shards).map(|_| Vec::new()).collect();
    let mut out = Replay {
        peek_ns: Vec::with_capacity(corpus.len()),
        decode_ns: Vec::with_capacity(corpus.len()),
        announce_ns: Vec::with_capacity(corpus.len()),
        reveal_ns: Vec::with_capacity(corpus.slots.len() * w.senders as usize),
        ..Replay::default()
    };
    let mut pending_directives = directives.iter().peekable();
    let mut verify =
        |out: &mut Replay, shard: usize, frame: &codec::TaggedFrame, at: SimTime, v: &mut V| {
            let t = Instant::now();
            let verdict = v.on_frame(
                frame.sender,
                &frame.message,
                at,
                &mut rngs[shard],
                &mut registries[shard],
                &live,
            );
            let ns = ns_since(t);
            if verdict.key_reveal {
                out.reveal_ns.push(ns);
                out.reveals += 1;
                out.auth += u64::from(verdict.outcome == "auth");
            } else {
                out.announce_ns.push(ns);
            }
            if let Some(note) = verdict.buffer {
                out.offered += 1;
                out.kept += u64::from(note.kept);
            }
        };
    let mut next = 0usize;
    for (slot_idx, slot) in corpus.slots.iter().enumerate() {
        for k in next..slot.end {
            let bytes = corpus.datagram(k);
            let t = Instant::now();
            let key = if w.tagged() {
                codec::peek_sender(bytes).map(|s| s.0)
            } else {
                codec::peek_index(bytes)
            };
            out.peek_ns.push(ns_since(t));
            let t = Instant::now();
            let frame = codec::decode_tagged(bytes).expect("generated frames decode");
            out.decode_ns.push(ns_since(t));
            let shard = route.shard_of(key.unwrap_or(bytes.len() as u64));
            if w.windowed() {
                windows[shard].push(frame);
            } else {
                verify(&mut out, shard, &frame, slot.at, &mut verifiers[shard]);
            }
        }
        next = slot.end;
        if w.windowed() {
            for (shard, window) in windows.iter_mut().enumerate() {
                let v = &mut verifiers[shard];
                // The pool's drain order: by claimed sender's class,
                // then arrival.
                let mut order: Vec<(PriorityClass, usize)> = window
                    .iter()
                    .enumerate()
                    .map(|(idx, f)| (v.classify(f.sender), idx))
                    .collect();
                order.sort_unstable();
                let batch: Vec<(SenderId, DapMessage)> = order
                    .iter()
                    .map(|&(_, idx)| (window[idx].sender, window[idx].message.clone()))
                    .collect();
                if !batch.is_empty() {
                    let reveals = batch
                        .iter()
                        .filter(|(_, m)| matches!(m, DapMessage::Reveal(_)))
                        .count() as u64;
                    let t = Instant::now();
                    v.prefetch(&batch);
                    out.prefetch_ns += t.elapsed().as_nanos() as u64;
                    if reveals > 0 {
                        out.prefetch_reveals += reveals;
                        out.prefetch_batches += 1;
                    }
                }
                for &(_, idx) in &order {
                    verify(&mut out, shard, &window[idx], slot.at, v);
                }
                window.clear();
            }
        }
        while let Some((_, directive)) = pending_directives.next_if(|(s, _)| *s == slot_idx) {
            for v in &mut verifiers {
                let t = Instant::now();
                v.on_posture(directive);
                out.posture_ns.push(ns_since(t));
            }
        }
        let memory: u64 = verifiers.iter().map(Inspect::memory_bits).sum();
        out.memory_bits = out.memory_bits.max(memory);
    }
    let frames = out.announce_ns.len() as u64 + out.reveal_ns.len() as u64;
    let mut missed = 0;
    for v in &verifiers {
        let (misses, evicted, occupancy) = v.sessions();
        missed += misses;
        out.evicted += evicted;
        out.occupancy += occupancy;
    }
    if w.tagged() {
        out.lookups = frames;
        out.resident = frames - missed;
    }
    out
}

/// Per-call transport costs from a socket-only replay.
#[derive(Debug, Default)]
pub struct Wire {
    /// `Transport::send` per datagram.
    pub send_ns: Vec<u32>,
    /// `Transport::recv` per datagram.
    pub recv_ns: Vec<u32>,
    /// Time in send + recv over the replay's wall time.
    pub busy_share: f64,
}

/// Sends `corpus` through a real `UdpTransport` pair on 127.0.0.1 and
/// receives it back, one interval at a time (all of an interval's
/// datagrams, then exactly as many receives), timing every call. No
/// pool: this is the transport layer alone, for workloads that keep
/// their traffic in memory.
///
/// # Panics
///
/// Panics if the sockets cannot be bound or a datagram is lost.
#[must_use]
pub fn wire(corpus: &Corpus) -> Wire {
    let mut rx = UdpTransport::receiver("127.0.0.1:0", Duration::from_secs(1))
        .expect("bind receive socket on 127.0.0.1");
    let target = rx.local_addr().expect("bound address").to_string();
    let mut tx =
        UdpTransport::sender("127.0.0.1:0", &target).expect("bind send socket on 127.0.0.1");
    let mut buf = vec![0u8; codec::MAX_FRAME_LEN];
    let mut out = Wire {
        send_ns: Vec::with_capacity(corpus.len()),
        recv_ns: Vec::with_capacity(corpus.len()),
        busy_share: 0.0,
    };
    let start = Instant::now();
    let mut next = 0usize;
    for slot in &corpus.slots {
        for k in next..slot.end {
            let t = Instant::now();
            tx.send(corpus.datagram(k)).expect("udp send");
            out.send_ns.push(ns_since(t));
        }
        for k in next..slot.end {
            let t = Instant::now();
            let n = rx
                .recv(&mut buf)
                .expect("udp recv")
                .expect("loopback datagram lost");
            out.recv_ns.push(ns_since(t));
            assert_eq!(
                &buf[..n],
                corpus.datagram(k),
                "loopback reordered a datagram"
            );
        }
        next = slot.end;
    }
    let busy: u64 = out
        .send_ns
        .iter()
        .chain(&out.recv_ns)
        .map(|&ns| u64::from(ns))
        .sum();
    out.busy_share = busy as f64 / start.elapsed().as_nanos().max(1) as f64;
    out
}
