//! Algorithm 3's runtime answer: a committed breakpoint table.
//!
//! The live defense needs one fact per control tick: for the estimated
//! forged share `p̂` (in permille), how many buffers Algorithm 3 picks
//! and whether the game says to give up. With the paper's economy
//! (`R_a = 200`, `k1 = 20`, `k2 = 4`, `M = 50`) that answer is a step
//! function of `p̂` with a few dozen steps, so it is solved once,
//! offline, and committed here as [`POSTURE_TABLE`]. A lookup is a
//! binary search over the rows — O(1) in practice, no floats, no
//! step bound — and it is total: `p̂ = 1000‰` (an all-forged wire,
//! outside the game's `p < 1` domain) reads the last row, give-up.
//!
//! [`reference_posture`] is the exact Algorithm 3
//! ([`optimal_buffer_count`]) the table was generated from. The
//! `posture_table` binary in `dap-bench` re-solves every permille in
//! `0..=999` with it, compares each answer to [`posture_for_permille`]
//! and prints the regenerated rows; `ci.sh` fails on any mismatch.

use crate::ess::EssKind;
use crate::optimize::optimal_buffer_count;
use crate::payoff::DosGameParams;

/// The hardware buffer bound `M` the table is solved under (≤ ~50
/// buffers per sensor node, the paper's §VI-B-1 setting).
pub const POSTURE_CAP: u32 = 50;

/// The posture a receiver should hold at one attack level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Posture {
    /// Buffers to provision: Algorithm 3's `m*`, or the 1-buffer
    /// minimum under give-up.
    pub m: u32,
    /// The §V give-up verdict: the best ESS is `(0, 1)` or `(X′, 1)`,
    /// where the defender cost saturates at `R_a` and buffers no longer
    /// buy anything.
    pub give_up: bool,
}

/// One breakpoint: `posture` holds from `from_permille` up to the next
/// row's bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PostureRow {
    /// The smallest `p̂` (permille) this row covers.
    pub from_permille: u32,
    /// The posture over the row's range.
    pub posture: Posture,
}

const fn row(from_permille: u32, m: u32, give_up: bool) -> PostureRow {
    PostureRow {
        from_permille,
        posture: Posture { m, give_up },
    }
}

/// Algorithm 3 under the paper's economy for every `p̂` in permille,
/// run-length encoded. Regenerate with
/// `cargo run --release -p dap-bench --bin posture_table`.
pub const POSTURE_TABLE: &[PostureRow] = &[
    row(0, 1, false),
    row(21, 2, false),
    row(144, 3, false),
    row(294, 4, false),
    row(424, 5, false),
    row(520, 6, false),
    row(592, 7, false),
    row(647, 8, false),
    row(690, 9, false),
    row(725, 10, false),
    row(754, 11, false),
    row(778, 12, false),
    row(798, 13, false),
    row(815, 14, false),
    row(830, 15, false),
    row(840, 12, false),
    row(842, 13, false),
    row(862, 14, false),
    row(880, 15, false),
    row(896, 16, false),
    row(911, 17, false),
    row(926, 18, false),
    row(960, 17, false),
    row(965, 16, false),
    row(967, 15, false),
    row(969, 14, false),
    row(971, 13, false),
    row(972, 12, false),
    row(973, 11, false),
    row(974, 10, false),
    row(975, 9, false),
    row(976, 8, false),
    row(977, 7, false),
    row(978, 5, false),
    row(979, 3, false),
    row(980, 1, false),
    row(981, 1, true),
];

/// The posture for an estimated forged share of `p_permille`. Total:
/// 1000‰ and anything above it read the last row, give-up.
#[must_use]
pub fn posture_for_permille(p_permille: u32) -> Posture {
    let next = POSTURE_TABLE.partition_point(|r| r.from_permille <= p_permille);
    POSTURE_TABLE[next - 1].posture
}

/// The reference answer: exact Algorithm 3 at `p = p_permille / 1000`,
/// with give-up mapped to one buffer. Costs a full `m ∈ 1..=M` sweep of
/// replicator runs — the generator and checker of [`POSTURE_TABLE`],
/// not a control-loop step.
///
/// # Panics
///
/// Panics if `p_permille >= 1000` (the game needs `p < 1`).
#[must_use]
pub fn reference_posture(p_permille: u32) -> Posture {
    assert!(p_permille < 1000, "the game needs p < 1000 permille");
    let p = f64::from(p_permille) / 1000.0;
    let opt = optimal_buffer_count(DosGameParams::paper_defaults(p, 1), POSTURE_CAP);
    let give_up = matches!(
        opt.ess.kind,
        EssKind::GiveUpDefense | EssKind::PartialDefenseFullAttack
    );
    Posture {
        m: if give_up { 1 } else { opt.m },
        give_up,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::naive_defense_cost;
    use crate::optimize::ess_cost;

    #[test]
    fn table_agrees_with_exact_algorithm_3() {
        // Spot checks; `dap-bench`'s `posture_table` covers all 1000.
        for permille in [0u32, 100, 300, 500, 600, 700, 800, 900, 950, 990] {
            assert_eq!(
                posture_for_permille(permille),
                reference_posture(permille),
                "p = {permille}‰"
            );
        }
    }

    #[test]
    fn optimum_grows_with_estimated_attack_level() {
        let low = posture_for_permille(600);
        let high = posture_for_permille(900);
        assert!(low.m < high.m, "m*(0.6)={} m*(0.9)={}", low.m, high.m);
        assert!(!low.give_up && !high.give_up);
    }

    #[test]
    fn near_jamming_attack_gives_up() {
        // p = 0.99: every posture saturates at cost R_a — the §V "turns
        // to give up" regime — and the table falls back to one buffer.
        let posture = posture_for_permille(990);
        assert_eq!(
            posture,
            Posture {
                m: 1,
                give_up: true
            }
        );
    }

    #[test]
    fn all_forged_wire_gives_up() {
        for permille in [1000, 1001, u32::MAX] {
            assert_eq!(
                posture_for_permille(permille),
                Posture {
                    m: 1,
                    give_up: true
                },
                "p = {permille}‰"
            );
        }
    }

    #[test]
    fn clean_traffic_wants_minimum_buffers() {
        assert_eq!(
            posture_for_permille(0),
            Posture {
                m: 1,
                give_up: false
            }
        );
    }

    #[test]
    fn table_is_a_well_formed_run_length_encoding() {
        assert_eq!(POSTURE_TABLE[0].from_permille, 0);
        for pair in POSTURE_TABLE.windows(2) {
            assert!(pair[0].from_permille < pair[1].from_permille, "{pair:?}");
            assert_ne!(pair[0].posture, pair[1].posture, "{pair:?}");
        }
        for row in POSTURE_TABLE {
            assert!((1..=POSTURE_CAP).contains(&row.posture.m), "{row:?}");
            assert!(!row.posture.give_up || row.posture.m == 1, "{row:?}");
            assert_eq!(posture_for_permille(row.from_permille), row.posture);
        }
    }

    #[test]
    fn reference_is_deterministic() {
        assert_eq!(reference_posture(800), reference_posture(800));
    }

    #[test]
    #[should_panic(expected = "p < 1000")]
    fn reference_rejects_an_all_forged_share() {
        let _ = reference_posture(1000);
    }

    /// §VI-B-4 / Fig. 8: the game-guided posture never costs more than
    /// the naive always-defend-with-`M`-buffers policy — checked at both
    /// ends of every row.
    #[test]
    fn every_row_costs_no_more_than_naive_defense() {
        let ends = POSTURE_TABLE.iter().enumerate().map(|(i, row)| {
            let last = POSTURE_TABLE
                .get(i + 1)
                .map_or(999, |next| next.from_permille - 1);
            (row, [row.from_permille, last])
        });
        for (row, permilles) in ends {
            for permille in permilles {
                let p = f64::from(permille) / 1000.0;
                let (_, cost) = ess_cost(DosGameParams::paper_defaults(p, row.posture.m));
                let naive = naive_defense_cost(DosGameParams::paper_defaults(p, 1), POSTURE_CAP);
                assert!(
                    cost <= naive + 1e-6,
                    "p = {permille}‰, m = {}: cost {cost} > naive {naive}",
                    row.posture.m
                );
            }
        }
    }
}
