//! Regenerates **Table II**: the aggressive NN planner `κ_n,aggr` vs. its
//! basic (`κ_cb,aggr`) and ultimate (`κ_cu,aggr`) compound planners under
//! the three communication settings. Reaching time counts safe episodes
//! only (the table's `*` footnote).
//!
//! Usage: `cargo run --release -p bench --bin exp_table2 [--sims N] [--seed S]`

use bench::{evaluate_block, planners, table_header, CommScenario, Family};

const USAGE: &str = "usage: exp_table2 [--sims 2000] [--seed 1]";

fn main() {
    let (sims, seed): (usize, u64) = bench::parse_args(USAGE, &["--sims", "--seed"], &[], |a| {
        Ok((a.value("--sims", 2000)?, a.value("--seed", 1)?))
    });
    eprintln!("training/loading planners...");
    let (_cons, aggr) = planners();

    println!("\nTABLE II — aggressive family ({sims} simulations per cell)");
    println!("{}", table_header());
    for scenario in CommScenario::all() {
        for row in evaluate_block(&aggr, Family::Aggressive, scenario, sims, seed) {
            println!("{}", row.format());
        }
    }
}
