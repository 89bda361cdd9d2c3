//! Checks the committed Algorithm-3 posture table against the solver.
//!
//! Re-solves every `p` in `0..=999` permille with
//! [`dap_game::posture::reference_posture`] (exact Algorithm 3), compares
//! each answer with the runtime lookup
//! [`dap_game::posture::posture_for_permille`], checks that 1000‰ reads
//! give-up, and prints the regenerated rows in the table's source form.
//! Exits 1 on any mismatch. Takes no arguments; run it in release (each
//! solve is a 50-game replicator sweep):
//!
//! ```text
//! cargo run --release -p dap-bench --bin posture_table
//! ```

use std::process::ExitCode;

use dap_game::posture::{posture_for_permille, reference_posture, Posture};

fn main() -> ExitCode {
    let mut mismatches = 0u32;
    let mut rows: Vec<(u32, Posture)> = Vec::new();
    for p in 0..1000 {
        let solved = reference_posture(p);
        let table = posture_for_permille(p);
        if solved != table {
            mismatches += 1;
            eprintln!("mismatch at {p}‰: solver {solved:?}, table {table:?}");
        }
        if rows.last().is_none_or(|&(_, last)| last != solved) {
            rows.push((p, solved));
        }
    }
    if !posture_for_permille(1000).give_up {
        mismatches += 1;
        eprintln!("mismatch at 1000‰: an all-forged wire must read give-up");
    }
    for (from, posture) in &rows {
        println!("    row({from}, {}, {}),", posture.m, posture.give_up);
    }
    if mismatches == 0 {
        eprintln!(
            "posture table: {} rows match the solver on 0..=1000‰",
            rows.len()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("posture table: {mismatches} mismatches");
        ExitCode::FAILURE
    }
}
