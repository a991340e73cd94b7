//! Offline shield verification at full grid resolution: checks boundary
//! coverage (paper Eq. 3) and emergency invariance (Eq. 4) over a dense
//! state × window grid for every start position in the paper's sweep.
//!
//! Usage: `cargo run --release -p bench --bin verify_shield`

use left_turn::verify::{check_invariants, VerifyGrid};
use left_turn::LeftTurnScenario;

const USAGE: &str = "usage: verify_shield";

fn main() {
    bench::parse_args(USAGE, &[], &[], |_| Ok(()));
    let grid = VerifyGrid::default();
    let mut total_states = 0u64;
    let mut total_violations = 0usize;
    for start in cv_sim::EpisodeConfig::paper_start_grid() {
        let scenario = LeftTurnScenario::paper_default(start).expect("valid scenario");
        let t0 = std::time::Instant::now();
        let report = check_invariants(&scenario, &grid);
        println!(
            "start {start:5.1} m: {report} (pruned {} unreachable) in {:.2?}",
            report.unreachable_pruned,
            t0.elapsed()
        );
        total_states += report.states_checked;
        total_violations += report.violations.len();
    }
    println!("\ntotal: {total_states} state/window pairs, {total_violations} violations");
    if total_violations > 0 {
        std::process::exit(1);
    }
}
