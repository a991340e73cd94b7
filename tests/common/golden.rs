//! Golden fingerprints shared by `tests/engine_golden.rs` and
//! `tests/event_core.rs`: the 64-bit episode digest, the pinned-table
//! check, and the batch fixtures both files build their cases from.

use safe_cv::comm::CommSetting;
use safe_cv::dynamics::VehicleState;
use safe_cv::estimation::{Interval, VehicleEstimate};
use safe_cv::nn::{Activation, Mlp};
use safe_cv::planner::{FeatureScaling, NnPlanner};
use safe_cv::shield::Outcome;
use safe_cv::sim::{
    run_batch_lanes, BatchConfig, BatchMode, EpisodeConfig, EpisodeResult, PlatoonSpec, StackSpec,
};

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn u(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f(&mut self, x: f64) {
        self.u(x.to_bits());
    }

    fn state(&mut self, s: &VehicleState) {
        self.f(s.position);
        self.f(s.velocity);
        self.f(s.acceleration);
    }

    fn interval(&mut self, i: &Interval) {
        self.f(i.lo());
        self.f(i.hi());
    }

    fn window(&mut self, w: &Option<Interval>) {
        match w {
            Some(i) => {
                self.u(1);
                self.interval(i);
            }
            None => self.u(0),
        }
    }

    fn estimate(&mut self, e: &VehicleEstimate) {
        self.f(e.time);
        self.interval(&e.position);
        self.interval(&e.velocity);
        self.interval(&e.acceleration);
        self.state(&e.nominal);
    }

    fn result(&mut self, r: &EpisodeResult) {
        self.f(r.eta);
        match r.outcome {
            Outcome::Collision { time } => {
                self.u(0);
                self.f(time);
            }
            Outcome::Reached { time } => {
                self.u(1);
                self.f(time);
            }
            Outcome::Timeout => self.u(2),
        }
        self.u(r.emergency_steps);
        self.u(r.total_steps);
        self.u(r.collided_pair.map_or(u64::MAX, |p| p as u64));
        let Some(tr) = &r.traces else {
            self.u(0);
            return;
        };
        self.u(1);
        for trajectory in std::iter::once(&tr.ego).chain(&tr.others) {
            self.u(trajectory.len() as u64);
            for sample in trajectory.iter() {
                self.f(sample.time);
                self.state(&sample.state);
            }
        }
        self.u(tr.measurements.len() as u64);
        for m in &tr.measurements {
            self.u(m.target as u64);
            self.f(m.stamp);
            self.f(m.position);
            self.f(m.velocity);
            self.f(m.acceleration);
        }
        self.u(tr.estimates.len() as u64);
        for (t, e) in &tr.estimates {
            self.f(*t);
            self.estimate(e);
        }
        self.u(tr.windows.len() as u64);
        for w in &tr.windows {
            self.f(w.time);
            self.window(&w.conservative);
            self.window(&w.aggressive);
            self.window(&w.truth_nominal);
        }
        self.u(tr.decisions.len() as u64);
        for d in &tr.decisions {
            self.f(d.time);
            self.u(d.source as u64);
            self.f(d.accel);
        }
    }
}

pub fn digest(results: &[EpisodeResult]) -> u64 {
    let mut d = Digest::new();
    d.u(results.len() as u64);
    for r in results {
        d.result(r);
    }
    d.0
}

/// Asserts that `got` reproduces `golden` row for row, names and digests.
/// On a mismatch the message lists every case's current digest.
pub fn assert_golden(got: &[(String, u64)], golden: &[(&str, u64)]) {
    let table: String = got
        .iter()
        .map(|(name, d)| format!("    (\"{name}\", {d:#018x}),\n"))
        .collect();
    assert_eq!(
        got.len(),
        golden.len(),
        "case list changed; current digests:\n{table}"
    );
    let diverged: Vec<&str> = got
        .iter()
        .zip(golden)
        .filter(|((name, d), (gname, gd))| name != gname || d != gd)
        .map(|((name, _), _)| name.as_str())
        .collect();
    assert!(
        diverged.is_empty(),
        "fingerprints diverged for {diverged:?}; current digests:\n{table}"
    );
}

/// An untrained case-study-shaped (5×32×32×1, tanh) NN planner whose
/// weights are drawn from `seed`.
pub fn untrained_nn(seed: u64) -> NnPlanner {
    let ego_limits = EpisodeConfig::paper_default(seed)
        .scenario()
        .expect("paper geometry")
        .ego_limits();
    let net = Mlp::new(&[5, 32, 32, 1], Activation::Tanh, Activation::Tanh, seed)
        .expect("case-study shape");
    NnPlanner::new(net, ego_limits, FeatureScaling::left_turn(), "golden-nn")
}

pub fn batch_of(template: EpisodeConfig, episodes: usize, threads: usize) -> BatchConfig {
    let mut batch = BatchConfig::new(template, episodes);
    batch.threads = threads;
    batch
}

pub fn in_mode(batch: &BatchConfig, spec: &StackSpec, mode: BatchMode) -> Vec<EpisodeResult> {
    run_batch_lanes(batch, spec, mode, None, None)
        .expect("valid batch")
        .into_results()
        .expect("episodes complete")
}

/// An n = 4 platoon whose first follower's V2V channel is lost.
pub fn platoon_n4_one_lost(seed: u64) -> EpisodeConfig {
    let mut platoon = PlatoonSpec::paper_default(4, seed).expect("n >= 2");
    platoon.followers[0].comm = Some(CommSetting::Lost);
    platoon.episode()
}
