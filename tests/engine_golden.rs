//! Golden per-episode fingerprints of every exact execution path.
//!
//! Each case runs a fixed set of episodes and folds every result into one
//! 64-bit digest: `η` by `to_bits`, the outcome kind and time bits, both
//! step counters, the colliding pair, and — where traces are recorded —
//! every float of every trace by `to_bits`. The digests are pinned below,
//! so this file is a cross-commit oracle: an engine refactor that moves a
//! single bit of any exact path fails it, and nothing here compares one
//! engine against another in the same build.
//!
//! The matrix covers the per-episode path with traces (both teacher
//! families under all three comm settings; an untrained case-study-shaped
//! NN as pure, `κ_cb` and `κ_cu`) and without, the batch paths
//! (`EventDriven`, `Lanes(1)`), the n = 4 platoon with one lost V2V link,
//! and the dense and sparse n = 8 platoons. `Lanes(k > 1)` is not here: its
//! float contraction depends on the host's ISA tier, so it stays under the
//! tolerance gate (`tests/lane_batching.rs`).
//!
//! The `odd-cadence/` row pins the event wheel's delivery order (DESIGN.md
//! §18) at cadences and a delay that do not divide `Δt_c`; its digest was
//! computed in a build that still carried the per-tick polling schedule
//! and asserted it equal to the wheel. The seeds × worker counts × stacks
//! matrix and the tick-collision delays are pinned the same way in
//! `tests/event_core.rs`. The digest and the fixtures shared by both files
//! live in `tests/common/golden.rs`.

mod common;

use common::golden::{
    assert_golden, batch_of, digest, in_mode, platoon_n4_one_lost, untrained_nn as seeded_nn,
};
use safe_cv::comm::CommSetting;
use safe_cv::planner::NnPlanner;
use safe_cv::shield::AggressiveConfig;
use safe_cv::sim::{
    run_batch, run_episode, BatchConfig, BatchMode, EpisodeConfig, EpisodeResult, PlatoonFollower,
    PlatoonSpec, StackSpec, WindowKind,
};

/// The three comm settings of the paper's tables.
fn comms() -> [(&'static str, CommSetting); 3] {
    [
        ("perfect", CommSetting::NoDisturbance),
        ("delayed", CommSetting::delayed_with_drop(0.25)),
        ("lost", CommSetting::Lost),
    ]
}

/// Initialisation seed of the untrained network: one whose random policy
/// mixes collisions, reached targets, timeouts and emergency steps, so the
/// batch fingerprints (which carry no traces) still tell episodes apart.
const NET_SEED: u64 = 41;

/// An untrained case-study-shaped (5×32×32×1, tanh) NN planner.
fn untrained_nn() -> NnPlanner {
    seeded_nn(NET_SEED)
}

fn nn_stacks() -> [(&'static str, StackSpec); 3] {
    [
        (
            "nn-pure",
            StackSpec::PureNn {
                planner: untrained_nn(),
                window: WindowKind::Conservative,
            },
        ),
        ("nn-basic", StackSpec::basic(untrained_nn())),
        (
            "nn-ultimate",
            StackSpec::ultimate(untrained_nn(), AggressiveConfig::default()),
        ),
    ]
}

/// Episodes `0..n` of `template`'s seed through `run_episode` with traces.
fn traced(template: &EpisodeConfig, spec: &StackSpec, n: u64) -> Vec<EpisodeResult> {
    (0..n)
        .map(|k| {
            let mut cfg = template.clone();
            cfg.seed = template.seed + k;
            run_episode(&cfg, spec, true).expect("valid episode")
        })
        .collect()
}

/// The episodes of `batch` through `run_episode`, one at a time, untraced.
fn untraced(batch: &BatchConfig, spec: &StackSpec) -> Vec<EpisodeResult> {
    (0..batch.episodes)
        .map(|i| run_episode(&batch.episode(i), spec, false).expect("valid episode"))
        .collect()
}

/// The dense n = 8 platoon: paper spacing under delayed, dropping V2V.
fn dense_platoon_n8(seed: u64) -> BatchConfig {
    let mut platoon = PlatoonSpec::paper_default(8, seed).expect("n >= 2");
    platoon.comm = CommSetting::delayed_with_drop(0.25);
    batch_of(platoon.episode(), 3, 2)
}

/// The sparse n = 8 platoon: ego far upstream, leader at the zone edge,
/// 6 m gaps, V2V lost — every pair retires early.
fn sparse_platoon_n8(seed: u64) -> BatchConfig {
    let mut platoon = PlatoonSpec::paper_default(8, seed).expect("n >= 2");
    platoon.leader_start_shared = 16.0;
    platoon.comm = CommSetting::Lost;
    for f in &mut platoon.followers {
        *f = PlatoonFollower {
            gap: 6.0,
            ..PlatoonFollower::paper_default()
        };
    }
    let mut cfg = platoon.episode();
    cfg.ego_init.position = -150.0;
    let mut batch = batch_of(cfg, 3, 2);
    batch.starts = (0..20).map(|j| 16.0 + 0.25 * f64::from(j)).collect();
    batch
}

/// Cadences and a delay that divide neither each other nor `Δt_c`.
fn odd_cadence(seed: u64) -> EpisodeConfig {
    let mut cfg = EpisodeConfig::paper_default(seed);
    cfg.dt_m = 0.07;
    cfg.dt_s = 0.13;
    cfg.comm = CommSetting::Delayed {
        delay: 0.0333,
        drop_prob: 0.25,
    };
    cfg
}

/// Every case of the matrix, with its computed digest.
fn cases() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for (comm_name, comm) in comms() {
        let mut template = EpisodeConfig::paper_default(7);
        template.comm = comm;
        let cons = StackSpec::pure_teacher_conservative(&template).expect("paper geometry");
        let aggr = StackSpec::pure_teacher_aggressive(&template).expect("paper geometry");
        out.push((
            format!("teacher-cons/{comm_name}/traced"),
            digest(&traced(&template, &cons, 4)),
        ));
        out.push((
            format!("teacher-aggr/{comm_name}/traced"),
            digest(&traced(&template, &aggr, 4)),
        ));
    }

    let mut nn_template = EpisodeConfig::paper_default(31);
    nn_template.comm = CommSetting::delayed_with_drop(0.25);
    for (name, spec) in nn_stacks() {
        out.push((
            format!("{name}/delayed/traced"),
            digest(&traced(&nn_template, &spec, 3)),
        ));
        let batch = batch_of(nn_template.clone(), 6, 2);
        out.push((
            format!("{name}/run_batch"),
            digest(&run_batch(&batch, &spec).unwrap()),
        ));
        out.push((
            format!("{name}/per-episode"),
            digest(&untraced(&batch, &spec)),
        ));
        for (mode_name, mode) in [
            ("lanes1", BatchMode::Lanes(1)),
            ("event", BatchMode::EventDriven),
        ] {
            out.push((
                format!("{name}/{mode_name}"),
                digest(&in_mode(&batch, &spec, mode)),
            ));
        }
    }

    let platoon = platoon_n4_one_lost(5);
    let platoon_batch = batch_of(platoon.clone(), 6, 2);
    let teacher = StackSpec::pure_teacher_conservative(&platoon).expect("paper geometry");
    let ultimate = StackSpec::ultimate(untrained_nn(), AggressiveConfig::default());
    for (stack_name, spec) in [("teacher-cons", &teacher), ("nn-ultimate", &ultimate)] {
        out.push((
            format!("platoon-n4-one-lost/{stack_name}/traced"),
            digest(&traced(&platoon, spec, 2)),
        ));
        out.push((
            format!("platoon-n4-one-lost/{stack_name}/per-episode"),
            digest(&untraced(&platoon_batch, spec)),
        ));
        out.push((
            format!("platoon-n4-one-lost/{stack_name}/event"),
            digest(&in_mode(&platoon_batch, spec, BatchMode::EventDriven)),
        ));
    }

    for (platoon_name, batch) in [
        ("platoon-n8-dense", dense_platoon_n8(9)),
        ("platoon-n8-sparse", sparse_platoon_n8(9)),
    ] {
        let teacher =
            StackSpec::pure_teacher_conservative(&batch.template).expect("paper geometry");
        for (stack_name, spec) in [("teacher-cons", &teacher), ("nn-ultimate", &ultimate)] {
            out.push((
                format!("{platoon_name}/{stack_name}/event"),
                digest(&in_mode(&batch, spec, BatchMode::EventDriven)),
            ));
        }
    }

    out.push((
        "odd-cadence/nn-ultimate".to_string(),
        digest(&in_mode(
            &batch_of(odd_cadence(13), 10, 2),
            &ultimate,
            BatchMode::EventDriven,
        )),
    ));
    out
}

/// The pinned digests. A mismatch means some exact path changed what it
/// computes; the failure message lists every case's current digest.
const GOLDEN: &[(&str, u64)] = &[
    ("teacher-cons/perfect/traced", 0xa17f49f12b6a9b53),
    ("teacher-aggr/perfect/traced", 0x13ea2221bd127e84),
    ("teacher-cons/delayed/traced", 0xe903c7d9c9aa3518),
    ("teacher-aggr/delayed/traced", 0x496e89e04d2fd3f7),
    ("teacher-cons/lost/traced", 0xf2bcd92a93c77e5a),
    ("teacher-aggr/lost/traced", 0x0bcb69a055020ac9),
    ("nn-pure/delayed/traced", 0xffc6b6df7c1cdce6),
    ("nn-pure/run_batch", 0xad7d2fca9b5b00cd),
    ("nn-pure/per-episode", 0xad7d2fca9b5b00cd),
    ("nn-pure/lanes1", 0xad7d2fca9b5b00cd),
    ("nn-pure/event", 0xad7d2fca9b5b00cd),
    ("nn-basic/delayed/traced", 0x5d8850eb3456bf6f),
    ("nn-basic/run_batch", 0xbfe87772ca0853e0),
    ("nn-basic/per-episode", 0xbfe87772ca0853e0),
    ("nn-basic/lanes1", 0xbfe87772ca0853e0),
    ("nn-basic/event", 0xbfe87772ca0853e0),
    ("nn-ultimate/delayed/traced", 0x0d633945a4d5477d),
    ("nn-ultimate/run_batch", 0xafc3d1f1933c85d4),
    ("nn-ultimate/per-episode", 0xafc3d1f1933c85d4),
    ("nn-ultimate/lanes1", 0xafc3d1f1933c85d4),
    ("nn-ultimate/event", 0xafc3d1f1933c85d4),
    (
        "platoon-n4-one-lost/teacher-cons/traced",
        0x697276faa5c8be9a,
    ),
    (
        "platoon-n4-one-lost/teacher-cons/per-episode",
        0x6cc92e90f082c4d3,
    ),
    ("platoon-n4-one-lost/teacher-cons/event", 0x6cc92e90f082c4d3),
    ("platoon-n4-one-lost/nn-ultimate/traced", 0x0eb46b9d3b4cf092),
    (
        "platoon-n4-one-lost/nn-ultimate/per-episode",
        0x4532229e641f5d74,
    ),
    ("platoon-n4-one-lost/nn-ultimate/event", 0x4532229e641f5d74),
    ("platoon-n8-dense/teacher-cons/event", 0xb18deedd0ec3c1dd),
    ("platoon-n8-dense/nn-ultimate/event", 0xc26644b574bb1443),
    ("platoon-n8-sparse/teacher-cons/event", 0x3da3539076af580b),
    ("platoon-n8-sparse/nn-ultimate/event", 0x5808cbe23faada2b),
    ("odd-cadence/nn-ultimate", 0x997f04803a332284),
];

#[test]
fn exact_paths_reproduce_their_golden_fingerprints() {
    assert_golden(&cases(), GOLDEN);
}
