//! The event wheel's delivery order (`cv_sim::events`, DESIGN.md §18)
//! pinned at full-stack scale by golden fingerprints.
//!
//! The stepper has one pair schedule: V2V arrivals queue per pair at send
//! time and are delivered at their arrival tick. Its documented order is,
//! per tick and pair, arrivals in send order, then the sensor read, then
//! the tick-wide control decision, with pairs in index order. The order is
//! observable through the estimates the planner sees, so every episode's
//! result moves if it changes.
//!
//! * **Bit-identity matrix** — seeds × worker counts × stacks (teacher
//!   conservative, teacher aggressive under delay and drops, an n = 4
//!   platoon with one lost V2V link, and a pure untrained NN).
//! * **Simultaneous events** — an n = 4 platoon under loss-free V2V at
//!   delays that force tick collisions.
//!
//! Every digest below was computed in a build that still carried the
//! per-tick polling schedule (drain every channel on every tick) and
//! asserted it equal to the wheel on that case, so these tests hold the
//! wheel to the polling semantics. The digest is the one of
//! `tests/engine_golden.rs` (`tests/common/golden.rs`).

mod common;

use common::golden::{assert_golden, batch_of, digest, in_mode, platoon_n4_one_lost, untrained_nn};
use safe_cv::comm::CommSetting;
use safe_cv::sim::{BatchMode, EpisodeConfig, PlatoonSpec, StackSpec, WindowKind};

/// The stacks of the matrix: the conservative teacher, the aggressive
/// teacher under delay and drops, the conservative teacher on an n = 4
/// platoon with one lost V2V link (one pair retires through sensing alone
/// while its neighbours keep scheduling arrivals), and a pure untrained NN.
fn matrix_stacks(seed: u64) -> [(&'static str, EpisodeConfig, StackSpec); 4] {
    let cons_template = EpisodeConfig::paper_default(seed);
    let cons = StackSpec::pure_teacher_conservative(&cons_template).expect("paper geometry");
    let mut aggr_template = EpisodeConfig::paper_default(seed);
    aggr_template.comm = CommSetting::Delayed {
        delay: 0.25,
        drop_prob: 0.5,
    };
    let aggr = StackSpec::pure_teacher_aggressive(&aggr_template).expect("paper geometry");
    let platoon_template = platoon_n4_one_lost(seed);
    let platoon = StackSpec::pure_teacher_conservative(&platoon_template).expect("paper geometry");
    let nn = StackSpec::PureNn {
        planner: untrained_nn(seed),
        window: WindowKind::Conservative,
    };
    [
        ("teacher-cons", cons_template, cons),
        ("teacher-aggr-delayed", aggr_template, aggr),
        ("platoon-n4-one-lost", platoon_template, platoon),
        ("nn-pure", EpisodeConfig::paper_default(seed), nn),
    ]
}

/// Pinned digests of [`bit_identity_matrix_across_seeds_threads_and_stacks`]:
/// 10 episodes per row. Both worker counts of a cell share one digest.
const MATRIX: &[(&str, u64)] = &[
    ("matrix/teacher-cons/seed3/x1", 0xd189ff47ddf3f851),
    ("matrix/teacher-cons/seed3/x2", 0xd189ff47ddf3f851),
    ("matrix/teacher-aggr-delayed/seed3/x1", 0x90dfdf02e44f5363),
    ("matrix/teacher-aggr-delayed/seed3/x2", 0x90dfdf02e44f5363),
    ("matrix/platoon-n4-one-lost/seed3/x1", 0xed82a759ab387eef),
    ("matrix/platoon-n4-one-lost/seed3/x2", 0xed82a759ab387eef),
    ("matrix/nn-pure/seed3/x1", 0xb7c9ccb3feaf4a79),
    ("matrix/nn-pure/seed3/x2", 0xb7c9ccb3feaf4a79),
    ("matrix/teacher-cons/seed17/x1", 0x50a42956dc875110),
    ("matrix/teacher-cons/seed17/x2", 0x50a42956dc875110),
    ("matrix/teacher-aggr-delayed/seed17/x1", 0x8e3c9430371c2164),
    ("matrix/teacher-aggr-delayed/seed17/x2", 0x8e3c9430371c2164),
    ("matrix/platoon-n4-one-lost/seed17/x1", 0x0ff6393bdb5262d9),
    ("matrix/platoon-n4-one-lost/seed17/x2", 0x0ff6393bdb5262d9),
    ("matrix/nn-pure/seed17/x1", 0x929ea01c60ad2e93),
    ("matrix/nn-pure/seed17/x2", 0x929ea01c60ad2e93),
    ("matrix/teacher-cons/seed101/x1", 0x65680b916422a658),
    ("matrix/teacher-cons/seed101/x2", 0x65680b916422a658),
    ("matrix/teacher-aggr-delayed/seed101/x1", 0x1c43ef5a7d69bb98),
    ("matrix/teacher-aggr-delayed/seed101/x2", 0x1c43ef5a7d69bb98),
    ("matrix/platoon-n4-one-lost/seed101/x1", 0xfc26763d7c7fcb29),
    ("matrix/platoon-n4-one-lost/seed101/x2", 0xfc26763d7c7fcb29),
    ("matrix/nn-pure/seed101/x1", 0x213eb9ffef9ffb6b),
    ("matrix/nn-pure/seed101/x2", 0x213eb9ffef9ffb6b),
    ("matrix/teacher-cons/seed4242/x1", 0x92782926fd3e34b8),
    ("matrix/teacher-cons/seed4242/x2", 0x92782926fd3e34b8),
    (
        "matrix/teacher-aggr-delayed/seed4242/x1",
        0xe045f8a3da621521,
    ),
    (
        "matrix/teacher-aggr-delayed/seed4242/x2",
        0xe045f8a3da621521,
    ),
    ("matrix/platoon-n4-one-lost/seed4242/x1", 0x4a2e209466228289),
    ("matrix/platoon-n4-one-lost/seed4242/x2", 0x4a2e209466228289),
    ("matrix/nn-pure/seed4242/x1", 0x2924a81869f1fb4c),
    ("matrix/nn-pure/seed4242/x2", 0x2924a81869f1fb4c),
];

#[test]
fn bit_identity_matrix_across_seeds_threads_and_stacks() {
    let mut got = Vec::new();
    for seed in [3u64, 17, 101, 4242] {
        for (stack_name, template, spec) in matrix_stacks(seed) {
            for threads in [1usize, 2] {
                let batch = batch_of(template.clone(), 10, threads);
                got.push((
                    format!("matrix/{stack_name}/seed{seed}/x{threads}"),
                    digest(&in_mode(&batch, &spec, BatchMode::EventDriven)),
                ));
            }
        }
    }
    assert_golden(&got, MATRIX);
}

/// An n = 4 platoon under loss-free V2V with a fixed `delay`. At 0 s every
/// arrival lands on its own send tick (arrival, broadcast and sensing all
/// simultaneous); at 0.1 and 0.2 s arrivals land exactly on later
/// broadcast ticks. With three conflicting vehicles a collision tick holds
/// several same-tick events per pair and across pairs.
fn tick_collision_platoon(delay: f64) -> EpisodeConfig {
    let mut platoon = PlatoonSpec::paper_default(4, 11).expect("n >= 2");
    platoon.comm = CommSetting::Delayed {
        delay,
        drop_prob: 0.0,
    };
    platoon.episode()
}

/// Pinned digests of [`simultaneous_events_resolve_in_the_documented_order`]:
/// 8 episodes on 2 workers per row.
const TICK_COLLISION: &[(&str, u64)] = &[
    ("tick-collision/delay0/teacher-cons", 0x9311e4875b168c9f),
    ("tick-collision/delay0.1/teacher-cons", 0x65d70a5aba69ddf8),
    ("tick-collision/delay0.2/teacher-cons", 0x915d3e1333d6ed15),
];

/// Any deviation from the documented order (queue order within a pair,
/// pair iteration, arrival-tick rounding) moves an estimator update across
/// a planner read and changes some episode's bits.
#[test]
fn simultaneous_events_resolve_in_the_documented_order() {
    let got: Vec<(String, u64)> = [0.0, 0.1, 0.2]
        .into_iter()
        .map(|delay| {
            let template = tick_collision_platoon(delay);
            let spec = StackSpec::pure_teacher_conservative(&template).expect("paper geometry");
            (
                format!("tick-collision/delay{delay}/teacher-cons"),
                digest(&in_mode(
                    &batch_of(template, 8, 2),
                    &spec,
                    BatchMode::EventDriven,
                )),
            )
        })
        .collect();
    assert_golden(&got, TICK_COLLISION);
}
