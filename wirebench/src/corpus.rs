//! Seeded wire generation. Every datagram a round replays is built here,
//! before any clock starts: genuine frames come from `DapSender`,
//! forgeries from `Flooder`, encoding from `codec`. The receiver only
//! ever sees these bytes.

use std::io;
use std::sync::{Arc, Mutex};

use dap_core::{codec, DapMessage, DapSender, SenderId};
use dap_crypto::sha256::Sha256;
use dap_net::fleet::fleet_chains;
use dap_net::{Flooder, Transport};
use dap_simnet::{FloodIntensity, SimRng, SimTime};

use crate::workload::{Workload, COPIES};

/// One interval's slice of the corpus: datagrams `[previous end, end)`,
/// all stamped `at`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot {
    /// One past the slot's last datagram.
    pub end: usize,
    /// Receive stamp handed to `PoolHandle::ingest`.
    pub at: SimTime,
}

/// A round's worth of wire bytes plus the seeds the receiver side needs.
#[derive(Debug, Clone)]
pub struct Corpus {
    bytes: Vec<u8>,
    /// End offset of each datagram in `bytes`.
    ends: Vec<usize>,
    /// Interval slices, in replay order (tail reveals included).
    pub slots: Vec<Slot>,
    /// Genuine reveals on the wire (every reveal is genuine: the
    /// flooder forges announces only).
    pub genuine_reveals: u64,
    /// Seed the sender chains derive from; the receiver re-derives its
    /// bootstrap from it, as `dapd --role receiver --seed` does.
    pub chain_seed: u64,
    /// Seed of the pool's per-shard RNG forks.
    pub pool_seed: u64,
}

impl Corpus {
    /// Datagrams in the corpus.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Datagram `k`.
    #[must_use]
    pub fn datagram(&self, k: usize) -> &[u8] {
        let start = if k == 0 { 0 } else { self.ends[k - 1] };
        &self.bytes[start..self.ends[k]]
    }

    /// SHA-256 over every datagram (length-prefixed) and every slot
    /// boundary and stamp: two corpora with equal digests replay
    /// identically.
    #[must_use]
    pub fn digest(&self) -> [u8; 32] {
        let mut h = Sha256::new();
        for k in 0..self.len() {
            let d = self.datagram(k);
            h.update(&(d.len() as u64).to_be_bytes());
            h.update(d);
        }
        for slot in &self.slots {
            h.update(&(slot.end as u64).to_be_bytes());
            h.update(&slot.at.ticks().to_be_bytes());
        }
        h.finalize()
    }
}

/// Datagrams laid end to end, as a corpus stores them.
#[derive(Debug, Default)]
struct Wire {
    bytes: Vec<u8>,
    ends: Vec<usize>,
}

/// A transport that only records what is sent, so `Flooder` output
/// lands in the corpus in emission order, straight into its flat
/// buffers.
#[derive(Clone, Default)]
struct Tap(Arc<Mutex<Wire>>);

impl Tap {
    fn len(&self) -> usize {
        self.0.lock().expect("tap poisoned").ends.len()
    }
}

impl Transport for Tap {
    fn send(&mut self, frame: &[u8]) -> io::Result<()> {
        let mut wire = self.0.lock().expect("tap poisoned");
        wire.bytes.extend_from_slice(frame);
        let end = wire.bytes.len();
        wire.ends.push(end);
        Ok(())
    }

    fn recv(&mut self, _buf: &mut [u8]) -> io::Result<Option<usize>> {
        Ok(None)
    }
}

fn encode(tag: Option<SenderId>, message: &DapMessage) -> Vec<u8> {
    match tag {
        Some(id) => codec::encode_tagged(id, message),
        None => codec::encode(message),
    }
    .expect("generated frames are encodable")
}

/// The run's wire: `w.corpora()` independent corpora, each seeded from
/// `seed`. The same seed gives byte-identical output.
#[must_use]
pub fn generate_all(w: &Workload, seed: u64) -> Vec<Corpus> {
    let mut rng = SimRng::new(seed);
    (0..w.corpora())
        .map(|_| generate(w, rng.next_u64()))
        .collect()
}

/// SHA-256 over the digests of every corpus, in order.
#[must_use]
pub fn wire_digest(corpora: &[Corpus]) -> [u8; 32] {
    let mut h = Sha256::new();
    for c in corpora {
        h.update(&c.digest());
    }
    h.finalize()
}

/// Builds one round's corpus for `w` from `seed`. The same seed gives
/// byte-identical output.
///
/// # Panics
///
/// Panics if the workload's flood share is outside `[0, 1)`.
#[must_use]
pub fn generate(w: &Workload, seed: u64) -> Corpus {
    let mut rng = SimRng::new(seed);
    let chain_seed = rng.next_u64();
    let pool_seed = rng.next_u64();
    let flooder_seed = rng.next_u64();
    let mut shuffle = rng.fork(4);

    let params = w.params();
    let schedule = params.schedule();
    let d = params.disclosure_delay;
    let mut senders: Vec<(Option<SenderId>, DapSender)> = if w.tagged() {
        fleet_chains(chain_seed, w.senders, w.chain_len())
            .into_iter()
            .zip(1..)
            .map(|(chain, id)| (Some(SenderId(id)), DapSender::with_chain(chain, params)))
            .collect()
    } else {
        vec![(
            None,
            DapSender::new(&chain_seed.to_be_bytes(), w.chain_len(), params),
        )]
    };

    let tap = Tap::default();
    let mut tx = tap.clone();
    let mut flooder = Flooder::new(tap.clone(), flooder_seed, w.flood_start);
    let mut slots = Vec::new();
    let mut genuine_reveals = 0u64;
    for i in 1..=w.intervals {
        let forged = FloodIntensity::of_bandwidth(w.flood_at(i)).forged_copies(u64::from(COPIES));
        for (tag, sender) in &mut senders {
            // The reveal for i − d leads the interval (Algorithm 1).
            if i > d {
                if let Some(reveal) = sender.reveal(i - d) {
                    tx.send(&encode(*tag, &DapMessage::Reveal(reveal)))
                        .expect("tap send");
                    genuine_reveals += 1;
                }
            }
            let announce = sender
                .announce(i, format!("reading {i}").as_bytes())
                .expect("chain sized for the round");
            let genuine = encode(*tag, &DapMessage::Announce(announce));
            // Genuine copies uniformly interleaved among the forgeries.
            let mut genuine_left = u64::from(COPIES);
            let mut slots_left = genuine_left + forged;
            while slots_left > 0 {
                if genuine_left > 0 && shuffle.below(slots_left) < genuine_left {
                    tx.send(&genuine).expect("tap send");
                    genuine_left -= 1;
                } else {
                    match tag {
                        Some(id) => flooder.send_forged_as(*id, i),
                        None => flooder.send_forged(i),
                    }
                    .expect("tap send");
                }
                slots_left -= 1;
            }
        }
        slots.push(Slot {
            end: tap.len(),
            at: SimTime(schedule.start_of(i).ticks() + 10),
        });
    }
    // Tail: the last d intervals' reveals, each at its own boundary.
    for i in w.intervals.saturating_sub(d) + 1..=w.intervals {
        for (tag, sender) in &mut senders {
            if let Some(reveal) = sender.reveal(i) {
                tx.send(&encode(*tag, &DapMessage::Reveal(reveal)))
                    .expect("tap send");
                genuine_reveals += 1;
            }
        }
        slots.push(Slot {
            end: tap.len(),
            at: SimTime(schedule.start_of(i + d).ticks() + 10),
        });
    }

    drop((tx, flooder));
    let Wire { bytes, ends } = Arc::try_unwrap(tap.0)
        .expect("generator holds the last tap")
        .into_inner()
        .expect("tap poisoned");
    Corpus {
        bytes,
        ends,
        slots,
        genuine_reveals,
        chain_seed,
        pool_seed,
    }
}
