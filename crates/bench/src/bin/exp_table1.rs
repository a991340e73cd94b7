//! Regenerates **Table I**: the conservative NN planner `κ_n,cons` vs. its
//! basic (`κ_cb,cons`) and ultimate (`κ_cu,cons`) compound planners under
//! the three communication settings.
//!
//! Usage: `cargo run --release -p bench --bin exp_table1 [--sims N] [--seed S]`

use bench::{evaluate_block, planners, table_header, CommScenario, Family};

const USAGE: &str = "usage: exp_table1 [--sims 2000] [--seed 1]";

fn main() {
    let (sims, seed): (usize, u64) = bench::parse_args(USAGE, &["--sims", "--seed"], &[], |a| {
        Ok((a.value("--sims", 2000)?, a.value("--seed", 1)?))
    });
    eprintln!("training/loading planners...");
    let (cons, _aggr) = planners();

    println!("\nTABLE I — conservative family ({sims} simulations per cell)");
    println!("{}", table_header());
    for scenario in CommScenario::all() {
        for row in evaluate_block(&cons, Family::Conservative, scenario, sims, seed) {
            println!("{}", row.format());
        }
    }
}
