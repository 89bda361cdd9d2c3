//! Multi-sender DAP.
//!
//! In an MCN "the sender and receiver can be any mobile node" (§IV-A):
//! a participant hears broadcasts from many task distributors at once.
//! [`DapMultiReceiver`] maintains one chain anchor per registered sender
//! while all senders' pending announcements share a **single** `m`-buffer
//! pool — memory is the contested resource, so the DoS analysis must hold
//! for the pool as a whole, not per sender.
//!
//! Entries are tagged `(sender, index, μMAC)` (64 + 56 bits in a real
//! implementation; the paper's 56-bit figure is per-sender — both
//! accountings are exposed).
//!
//! Design note: unlike the single-sender [`crate::DapReceiver`] (which
//! scopes its reservoirs per pending interval to defeat boundary
//! eviction — see EXPERIMENTS.md "Model notes"), this multi-sender pool
//! is deliberately *shared*: with many senders, per-(sender, interval)
//! pools would multiply memory by the sender count, defeating the whole
//! point of the constrained-memory design. The price is coupling — a
//! flood aimed at one sender's traffic also crowds out the others
//! (demonstrated by `flood_against_one_sender_degrades_the_other`) and a
//! boundary burst can evict a previous interval's entries. Deployments
//! that need per-sender isolation should run one `DapReceiver` per
//! trusted sender and cap the sender set.

use std::collections::BTreeMap;

use dap_crypto::mac::{mac80, micro_mac_prepared, prepare_receiver_key, MicroMac};
use dap_crypto::oneway::{one_way_iter, Domain};
use dap_crypto::{ChainAnchor, Key, PreparedMacKey};
use dap_simnet::{SimRng, SimTime};
use dap_tesla::ReservoirBuffer;

use crate::receiver::{AnnounceOutcome, RevealOutcome};
use crate::sender::DapBootstrap;
use crate::wire::{Announce, DapParams, Reveal};

/// Identifies a registered sender (task distributor).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SenderId(pub u64);

impl SenderId {
    /// The implicit sender of untagged (single-sender) wire frames —
    /// what [`crate::codec::decode_prefix_tagged`] attributes a legacy
    /// `0x01`/`0x02` frame to.
    pub const UNTAGGED: SenderId = SenderId(0);
}

impl std::fmt::Display for SenderId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sender#{}", self.0)
    }
}

/// Outcome of a multi-receiver operation addressed at an unregistered
/// sender.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnknownSender(pub SenderId);

impl std::fmt::Display for UnknownSender {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "no bootstrap registered for {}", self.0)
    }
}

impl std::error::Error for UnknownSender {}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    sender: SenderId,
    index: u64,
    micro: MicroMac,
}

/// Per-run counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MultiStats {
    /// Announcements offered to the shared pool.
    pub announces_offered: u64,
    /// Announcements discarded as unsafe.
    pub announces_unsafe: u64,
    /// Messages authenticated (all senders).
    pub authenticated: u64,
    /// Reveals with forged keys.
    pub weak_rejected: u64,
    /// Reveals failing the μMAC match.
    pub strong_rejected: u64,
    /// Reveals with no buffered candidate.
    pub no_candidate: u64,
}

/// A DAP receiver listening to many senders at once.
#[derive(Debug, Clone)]
pub struct DapMultiReceiver {
    params: DapParams,
    /// `K_recv` with its HMAC key schedule cached (see
    /// [`crate::DapReceiver`] — same announce-hot-path optimisation).
    local_key: PreparedMacKey,
    anchors: BTreeMap<SenderId, ChainAnchor>,
    pool: ReservoirBuffer<Entry>,
    rx_interval: u64,
    authenticated: Vec<(SenderId, u64, Vec<u8>)>,
    stats: MultiStats,
}

impl DapMultiReceiver {
    /// Creates a receiver with the given shared-pool parameters;
    /// `local_seed` derives the node-local μMAC secret.
    #[must_use]
    pub fn new(params: DapParams, local_seed: &[u8]) -> Self {
        Self {
            params,
            local_key: prepare_receiver_key(&Key::derive(b"dap/multi-receiver-local", local_seed)),
            anchors: BTreeMap::new(),
            pool: ReservoirBuffer::new(params.buffers),
            rx_interval: 0,
            authenticated: Vec::new(),
            stats: MultiStats::default(),
        }
    }

    /// Registers a sender's bootstrap (its chain commitment). Senders
    /// must share the receiver's interval grid; their `params` are
    /// otherwise ignored in favour of the receiver's.
    pub fn register(&mut self, id: SenderId, bootstrap: &DapBootstrap) {
        self.anchors
            .insert(id, ChainAnchor::new(bootstrap.commitment, 0, Domain::F));
    }

    /// Registered sender count.
    #[must_use]
    pub fn sender_count(&self) -> usize {
        self.anchors.len()
    }

    /// Counters.
    #[must_use]
    pub fn stats(&self) -> &MultiStats {
        &self.stats
    }

    /// Authenticated `(sender, interval, message)` triples.
    #[must_use]
    pub fn authenticated(&self) -> &[(SenderId, u64, Vec<u8>)] {
        &self.authenticated
    }

    /// Occupied shared-pool memory, counting the paper's 56 bits per
    /// entry plus a 64-bit sender tag.
    #[must_use]
    pub fn memory_bits(&self) -> u64 {
        self.pool.len() as u64 * (u64::from(dap_crypto::sizes::DAP_BUFFER_ENTRY_BITS) + 64)
    }

    /// Processes an announcement attributed to `sender`.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownSender`] when `sender` was never registered
    /// (nothing is buffered for unknown sources).
    pub fn on_announce(
        &mut self,
        sender: SenderId,
        announce: &Announce,
        local_time: SimTime,
        rng: &mut SimRng,
    ) -> Result<AnnounceOutcome, UnknownSender> {
        if !self.anchors.contains_key(&sender) {
            return Err(UnknownSender(sender));
        }
        self.tick(local_time);
        if !self.params.safety().is_safe(announce.index, local_time) {
            self.stats.announces_unsafe += 1;
            return Ok(AnnounceOutcome::Unsafe);
        }
        self.stats.announces_offered += 1;
        // Same keep-first order as `DapReceiver`: the μMAC is computed
        // only for a copy the shared pool keeps.
        let outcome = self.pool.offer_with(
            || Entry {
                sender,
                index: announce.index,
                micro: micro_mac_prepared(&self.local_key, &announce.mac),
            },
            rng,
        );
        Ok(if outcome.is_stored() {
            AnnounceOutcome::Stored
        } else {
            AnnounceOutcome::Dropped
        })
    }

    /// Processes a reveal attributed to `sender`.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownSender`] when `sender` was never registered.
    pub fn on_reveal(
        &mut self,
        sender: SenderId,
        reveal: &Reveal,
        local_time: SimTime,
    ) -> Result<RevealOutcome, UnknownSender> {
        self.tick(local_time);
        let anchor = self.anchors.get_mut(&sender).ok_or(UnknownSender(sender))?;

        // Weak authentication against *this sender's* chain.
        let weak_ok = match anchor.accept(&reveal.key, reveal.index) {
            Ok(_) => true,
            Err(dap_crypto::ChainVerifyError::NotAhead { .. }) => {
                let idx = anchor.index();
                reveal.index <= idx
                    && dap_crypto::ct_eq(
                        one_way_iter(Domain::F, anchor.key(), (idx - reveal.index) as usize)
                            .as_bytes(),
                        reveal.key.as_bytes(),
                    )
            }
            Err(_) => false,
        };
        if !weak_ok {
            self.stats.weak_rejected += 1;
            return Ok(RevealOutcome::WeakRejected {
                index: reveal.index,
            });
        }

        let expect = micro_mac_prepared(&self.local_key, &mac80(&reveal.key, &reveal.message));
        let candidates = self
            .pool
            .extract(|e| e.sender == sender && e.index == reveal.index);
        if candidates.is_empty() {
            self.stats.no_candidate += 1;
            return Ok(RevealOutcome::NoCandidate {
                index: reveal.index,
            });
        }
        if candidates.iter().any(|e| e.micro == expect) {
            self.stats.authenticated += 1;
            self.authenticated
                .push((sender, reveal.index, reveal.message.clone()));
            Ok(RevealOutcome::Authenticated {
                index: reveal.index,
                message: reveal.message.clone(),
            })
        } else {
            self.stats.strong_rejected += 1;
            Ok(RevealOutcome::StrongRejected {
                index: reveal.index,
            })
        }
    }

    fn tick(&mut self, local_time: SimTime) {
        let now = self.params.schedule().index_at(local_time);
        if now == self.rx_interval {
            return;
        }
        self.rx_interval = now;
        self.pool.reset_counter();
        let d = self.params.disclosure_delay;
        let _ = self.pool.purge(|e| e.index.saturating_add(d + 1) < now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sender::DapSender;
    use dap_simnet::SimDuration;

    fn params(m: usize) -> DapParams {
        DapParams::new(SimDuration(100), 1, 0, m)
    }

    fn setup(m: usize) -> (DapSender, DapSender, DapMultiReceiver, SimRng) {
        let p = params(m);
        let a = DapSender::new(b"sender-a", 32, p);
        let b = DapSender::new(b"sender-b", 32, p);
        let mut rx = DapMultiReceiver::new(p, b"multi-node");
        rx.register(SenderId(1), &a.bootstrap());
        rx.register(SenderId(2), &b.bootstrap());
        (a, b, rx, SimRng::new(3))
    }

    fn during(i: u64) -> SimTime {
        SimTime((i - 1) * 100 + 10)
    }

    #[test]
    fn interleaved_senders_both_authenticate() {
        let (mut a, mut b, mut rx, mut rng) = setup(8);
        let ann_a = a.announce(1, b"from A").unwrap();
        let ann_b = b.announce(1, b"from B").unwrap();
        rx.on_announce(SenderId(1), &ann_a, during(1), &mut rng)
            .unwrap();
        rx.on_announce(SenderId(2), &ann_b, during(1), &mut rng)
            .unwrap();
        assert!(rx
            .on_reveal(SenderId(1), &a.reveal(1).unwrap(), during(2))
            .unwrap()
            .is_authenticated());
        assert!(rx
            .on_reveal(SenderId(2), &b.reveal(1).unwrap(), during(2))
            .unwrap()
            .is_authenticated());
        assert_eq!(rx.authenticated().len(), 2);
        assert_eq!(rx.sender_count(), 2);
    }

    #[test]
    fn cross_sender_key_is_rejected() {
        let (mut a, mut b, mut rx, mut rng) = setup(8);
        let ann = a.announce(1, b"msg").unwrap();
        rx.on_announce(SenderId(1), &ann, during(1), &mut rng)
            .unwrap();
        // Replay sender B's reveal under sender A's identity: B's key is
        // not on A's chain → weak rejection.
        b.announce(1, b"msg").unwrap();
        let rev_b = b.reveal(1).unwrap();
        let out = rx.on_reveal(SenderId(1), &rev_b, during(2)).unwrap();
        assert_eq!(out, RevealOutcome::WeakRejected { index: 1 });
    }

    #[test]
    fn unknown_sender_is_an_error() {
        let (mut a, _, mut rx, mut rng) = setup(4);
        let ann = a.announce(1, b"m").unwrap();
        assert_eq!(
            rx.on_announce(SenderId(9), &ann, during(1), &mut rng),
            Err(UnknownSender(SenderId(9)))
        );
        let rev = {
            a.announce(2, b"m2").unwrap();
            a.reveal(2).unwrap()
        };
        assert!(rx.on_reveal(SenderId(9), &rev, during(3)).is_err());
        assert_eq!(
            UnknownSender(SenderId(9)).to_string(),
            "no bootstrap registered for sender#9"
        );
    }

    #[test]
    fn shared_pool_is_bounded_across_senders() {
        let (mut a, mut b, mut rx, mut rng) = setup(3);
        for i in [1u64] {
            let ann_a = a.announce(i, b"a").unwrap();
            let ann_b = b.announce(i, b"b").unwrap();
            for _ in 0..10 {
                rx.on_announce(SenderId(1), &ann_a, during(i), &mut rng)
                    .unwrap();
                rx.on_announce(SenderId(2), &ann_b, during(i), &mut rng)
                    .unwrap();
            }
        }
        // 3 entries × (56 + 64) bits.
        assert!(rx.memory_bits() <= 3 * 120);
    }

    #[test]
    fn flood_against_one_sender_degrades_the_other() {
        // The shared pool means a flood "against" sender A also crowds
        // out sender B — the coupling the per-node game model prices in.
        let (mut a, mut b, mut rx, mut rng) = setup(2);
        let mut b_ok = 0;
        for i in 1..=30u64 {
            let ann_b = b.announce(i, b"b").unwrap();
            // 9 forged copies claiming sender A.
            for _ in 0..9 {
                let mut mac = [0u8; 10];
                rng.fill_bytes(&mut mac);
                rx.on_announce(
                    SenderId(1),
                    &Announce {
                        index: i,
                        mac: dap_crypto::Mac80::from_slice(&mac).unwrap(),
                    },
                    during(i),
                    &mut rng,
                )
                .unwrap();
            }
            rx.on_announce(SenderId(2), &ann_b, during(i), &mut rng)
                .unwrap();
            let _ = a.announce(i, b"a").unwrap();
            if rx
                .on_reveal(SenderId(2), &b.reveal(i).unwrap(), during(i + 1))
                .unwrap()
                .is_authenticated()
            {
                b_ok += 1;
            }
        }
        // B's survival ≈ m/n = 2/10; far below 1.
        assert!(b_ok < 15, "b_ok = {b_ok}");
        assert!(b_ok > 0);
    }

    #[test]
    fn per_sender_anchors_advance_independently() {
        let (mut a, mut b, mut rx, mut rng) = setup(8);
        // Sender A active in intervals 1..=3; B only at 3.
        for i in 1..=3u64 {
            let ann = a.announce(i, b"a").unwrap();
            rx.on_announce(SenderId(1), &ann, during(i), &mut rng)
                .unwrap();
            rx.on_reveal(SenderId(1), &a.reveal(i).unwrap(), during(i + 1))
                .unwrap();
        }
        let ann = b.announce(3, b"b late start").unwrap();
        rx.on_announce(SenderId(2), &ann, during(3), &mut rng)
            .unwrap();
        // B's anchor must recover the 3-step gap on its own chain.
        assert!(rx
            .on_reveal(SenderId(2), &b.reveal(3).unwrap(), during(4))
            .unwrap()
            .is_authenticated());
    }
}
