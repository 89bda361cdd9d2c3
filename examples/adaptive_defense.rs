//! QoS-balanced DAP in action: the live control plane watches the
//! receiver's reveal-time buffer evidence, estimates the attack level,
//! and re-provisions the buffer pool from Algorithm 3's posture table —
//! including "giving up" on extra buffers when the channel is nearly
//! jammed.
//!
//! Run with: `cargo run --example adaptive_defense`

use crowdsense_dap::crypto::Mac80;
use crowdsense_dap::dap::wire::Announce;
use crowdsense_dap::dap::{DapParams, DapReceiver, DapSender};
use crowdsense_dap::game::cost::naive_defense_cost;
use crowdsense_dap::game::optimize::ess_cost;
use crowdsense_dap::game::DosGameParams;
use crowdsense_dap::net::{ControlConfig, ControlPlane};
use crowdsense_dap::simnet::{SimRng, SimTime};

/// Attack intensity per epoch: calm → moderate → severe → jammed → calm.
const EPOCH_ATTACK: &[f64] = &[0.0, 0.5, 0.75, 0.8, 0.9, 0.96, 0.99, 0.99, 0.99, 0.5];
const INTERVALS_PER_EPOCH: u64 = 150;

fn main() {
    let params = DapParams::default();
    let mut sender = DapSender::new(
        b"adaptive demo",
        EPOCH_ATTACK.len() * INTERVALS_PER_EPOCH as usize + 2,
        params,
    );
    let mut receiver = DapReceiver::new(sender.bootstrap(), b"adaptive node");
    let bootstrap = u32::try_from(params.buffers).expect("buffer count fits u32");
    let mut plane = ControlPlane::new(bootstrap, ControlConfig::default());
    let mut rng = SimRng::new(99);

    println!("Adaptive (QoS-balanced) DAP");
    println!("===========================");
    println!(
        "{:>5} {:>8} {:>8} {:>6} {:>10} {:>12} {:>10} {:>8}",
        "epoch", "true p", "est p", "m", "ESS", "E (game)", "N (naive)", "rate"
    );
    println!("{}", "-".repeat(76));

    let mut interval = 0u64;
    for (epoch, &p) in EPOCH_ATTACK.iter().enumerate() {
        let mut authenticated_epoch = 0u64;

        for _ in 0..INTERVALS_PER_EPOCH {
            interval += 1;
            let t_a = SimTime((interval - 1) * 100 + 10);
            let t_r = SimTime(interval * 100 + 10);
            let genuine = sender.announce(interval, b"reading").unwrap();
            // Forged copies to make forged fraction = p.
            let forged = if p > 0.0 {
                (p / (1.0 - p)).round() as u32
            } else {
                0
            };
            for _ in 0..forged {
                let mut mac = [0u8; 10];
                rng.fill_bytes(&mut mac);
                receiver.on_announce(
                    &Announce {
                        index: interval,
                        mac: Mac80::from_slice(&mac).unwrap(),
                    },
                    t_a,
                    &mut rng,
                );
            }
            receiver.on_announce(&genuine, t_a, &mut rng);
            if receiver
                .on_reveal(&sender.reveal(interval).unwrap(), t_r)
                .is_authenticated()
            {
                authenticated_epoch += 1;
            }
            // Interval boundary: fold the reveal-time buffer evidence
            // into p̂; a changed posture re-provisions the receiver.
            let stats = receiver.stats();
            if let Some(directive) =
                plane.step_evidence(stats.buffered_decided, stats.buffered_forged)
            {
                receiver.set_buffers(directive.effective_buffers());
            }
        }

        // The game's view of the commanded posture at the current p̂
        // (kept inside the game's p < 1 domain).
        let p_hat = f64::from(plane.p_hat_permille().min(999)) / 1000.0;
        let (ess, cost) = ess_cost(DosGameParams::paper_defaults(p_hat, plane.buffers()));
        let naive = naive_defense_cost(DosGameParams::paper_defaults(p_hat, 1), 50);

        println!(
            "{:>5} {:>8.2} {:>8.3} {:>6} {:>10} {:>12.2} {:>10.2} {:>8.3}{}",
            epoch,
            p,
            p_hat,
            plane.buffers(),
            ess.kind.to_string(),
            cost,
            naive,
            authenticated_epoch as f64 / INTERVALS_PER_EPOCH as f64,
            if plane.give_up() {
                "  << give-up regime"
            } else {
                ""
            },
        );
    }

    println!();
    println!("Note how m tracks the attack level, and how past p ≈ 0.94 the ESS");
    println!("moves to (X', 1) and the cost pins at R_a, far below the naive");
    println!("always-defend-with-M-buffers policy; once p̂ clears 981‰ the posture");
    println!("table says give up and the receiver drops to one buffer.");
}
