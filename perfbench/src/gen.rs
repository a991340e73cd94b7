//! Workload generators. Every input the benchmark hands the program is a
//! pure function of the workload seed: the same seed gives the same
//! batches and job lists, a different seed different ones.

use bench::{CommScenario, Family};
use cv_comm::CommSetting;
use cv_rng::{split_stream, Rng, SplitMix64};
use cv_server::StackSpecWire;
use cv_sim::{BatchConfig, EpisodeConfig, PlatoonFollower, PlatoonSpec};

/// Worker threads of every in-process batch (the box has two cores).
pub const THREADS: usize = 2;

/// Salts keeping the workloads' seed streams apart.
const TABLES_SALT: u64 = 0x007A_B1E5;
const PLATOON_SALT: u64 = 0x91A7_0011;
const SERVICE_SALT: u64 = 0x05E7_F1CE;

/// Seed of the set-up warm-up inputs. It is fixed, so every run's set-up
/// does the same work whatever the run's seed.
pub const WARMUP_SEED: u64 = 0x3A2D_11FE;

/// Share of service submissions that re-send an earlier batch.
pub const REPEAT_SHARE: f64 = 0.5;
/// A re-sent batch is one of the client's last this-many fresh batches, so
/// the re-sent working set stays far below the daemon's cache budget.
pub const REPEAT_WINDOW: usize = 64;

/// One in-process job: a batch and the index of the stack that runs it.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    pub batch: BatchConfig,
    pub stack: usize,
}

/// Stack index of a table cell: `3·family + s`, with family 0 the
/// conservative planner (Table I) and 1 the aggressive one (Table II), and
/// `s` the pure-NN / `κ_cb` / `κ_cu` stack of [`bench::stacks_for`].
pub fn table_stack(family: usize, s: usize) -> usize {
    3 * family + s
}

pub const FAMILIES: [Family; 2] = [Family::Conservative, Family::Aggressive];

fn batch(template: EpisodeConfig, episodes: usize) -> BatchConfig {
    let mut b = BatchConfig::new(template, episodes);
    b.threads = THREADS;
    b
}

/// Round `round` of Tables I and II: 2 families × 3 comm settings, each
/// batch run by the family's three stacks on identical episodes (the
/// paired comparison the tables are built on) — 18 jobs.
pub fn tables_round(seed: u64, round: u64, episodes: usize) -> Vec<Job> {
    let round_seed = split_stream(seed ^ TABLES_SALT, round);
    let mut jobs = Vec::with_capacity(18);
    for f in 0..FAMILIES.len() {
        for (c, comm) in CommScenario::all().iter().enumerate() {
            let mut template =
                EpisodeConfig::paper_default(split_stream(round_seed, (3 * f + c) as u64));
            comm.apply(&mut template);
            let b = batch(template, episodes);
            jobs.extend((0..3).map(|s| Job {
                batch: b.clone(),
                stack: table_stack(f, s),
            }));
        }
    }
    jobs
}

/// Round `round` of the platoon workload: one dense n=8 batch of
/// `2·episodes` (`PlatoonSpec::paper_default` under delayed, dropping V2V)
/// and two sparse n=8 batches of `episodes` (ego 150 m upstream, leader at
/// the zone edge, 6 m gaps, V2V lost), all for the single `κ_cu` stack
/// (index 0). Half the episodes are dense; the job latencies then have no
/// even split between the two kinds for a percentile to straddle.
pub fn platoon_round(seed: u64, round: u64, episodes: usize) -> Vec<Job> {
    let round_seed = split_stream(seed ^ PLATOON_SALT, round);
    let mut dense = PlatoonSpec::paper_default(8, split_stream(round_seed, 0)).expect("n = 8");
    dense.comm = CommSetting::Delayed {
        delay: 0.25,
        drop_prob: 0.25,
    };
    let mut jobs = vec![Job {
        batch: batch(dense.episode(), 2 * episodes),
        stack: 0,
    }];
    for k in 1..=2 {
        let mut sparse = batch(sparse_platoon(split_stream(round_seed, k)), episodes);
        // Leader starts hugging the zone exit, so every episode keeps the
        // early-retirement geometry while still varying per index.
        sparse.starts = (0..20).map(|j| 16.0 + 0.25 * f64::from(j)).collect();
        jobs.push(Job {
            batch: sparse,
            stack: 0,
        });
    }
    jobs
}

/// The sparse-disturbance n=8 platoon of `exp_throughput`'s
/// `platoon-n8-sparse` cell.
fn sparse_platoon(seed: u64) -> EpisodeConfig {
    let mut platoon = PlatoonSpec::paper_default(8, seed).expect("n = 8");
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
    cfg
}

/// One service submission.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceJob {
    pub batch: BatchConfig,
    pub stack: StackSpecWire,
    /// Index (into this client's fresh jobs) of the batch it re-sends.
    pub repeat_of: Option<usize>,
}

/// The endless job stream of one service client: teacher batches of
/// 20–200 episodes under a random comm setting, about half of them
/// re-sending one of the client's own recent batches.
pub struct ServiceStream {
    rng: SplitMix64,
    fresh: Vec<(BatchConfig, StackSpecWire)>,
}

impl ServiceStream {
    pub fn new(seed: u64, client: u64) -> Self {
        Self {
            rng: SplitMix64::seed_from_u64(split_stream(seed ^ SERVICE_SALT, client)),
            fresh: Vec::new(),
        }
    }

    /// The fresh batches issued so far, in issue order.
    pub fn fresh(&self) -> &[(BatchConfig, StackSpecWire)] {
        &self.fresh
    }

    pub fn next_job(&mut self) -> ServiceJob {
        if !self.fresh.is_empty() && self.rng.random_bool(REPEAT_SHARE) {
            let window = self.fresh.len().min(REPEAT_WINDOW);
            let i = self.fresh.len() - 1 - self.rng.random_index(window);
            let (batch, stack) = self.fresh[i].clone();
            return ServiceJob {
                batch,
                stack,
                repeat_of: Some(i),
            };
        }
        let episodes = self.rng.random_range(20..=200usize);
        let mut template = EpisodeConfig::paper_default(self.rng.next_u64());
        CommScenario::all()[self.rng.random_index(3)].apply(&mut template);
        let stack = if self.rng.random_bool(0.5) {
            StackSpecWire::TeacherConservative
        } else {
            StackSpecWire::TeacherAggressive
        };
        let b = batch(template, episodes);
        self.fresh.push((b.clone(), stack));
        ServiceJob {
            batch: b,
            stack,
            repeat_of: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn service_jobs(seed: u64, client: u64, n: usize) -> Vec<ServiceJob> {
        let mut s = ServiceStream::new(seed, client);
        (0..n).map(|_| s.next_job()).collect()
    }

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(tables_round(5, 3, 40), tables_round(5, 3, 40));
        assert_eq!(platoon_round(5, 3, 40), platoon_round(5, 3, 40));
        assert_eq!(service_jobs(5, 1, 200), service_jobs(5, 1, 200));
    }

    #[test]
    fn different_seed_different_inputs() {
        assert_ne!(tables_round(5, 0, 40), tables_round(6, 0, 40));
        assert_ne!(tables_round(5, 0, 40), tables_round(5, 1, 40));
        assert_ne!(platoon_round(5, 0, 40), platoon_round(6, 0, 40));
        assert_ne!(service_jobs(5, 0, 50), service_jobs(6, 0, 50));
        assert_ne!(service_jobs(5, 0, 50), service_jobs(5, 1, 50));
    }

    #[test]
    fn tables_pair_every_stack_on_one_batch_per_cell() {
        let jobs = tables_round(1, 0, 10);
        assert_eq!(jobs.len(), 18);
        let stacks: Vec<usize> = jobs.iter().map(|j| j.stack).collect();
        assert_eq!(&stacks[..6], &[0, 1, 2, 0, 1, 2]);
        for cell in jobs.chunks(3) {
            assert!(cell.iter().all(|j| j.batch == cell[0].batch));
        }
        // Cells never share episode seeds.
        assert_ne!(jobs[0].batch.base_seed, jobs[3].batch.base_seed);
    }

    #[test]
    fn platoon_rounds_are_half_dense_by_episodes() {
        let jobs = platoon_round(1, 0, 15);
        let sizes: Vec<usize> = jobs.iter().map(|j| j.batch.episodes).collect();
        assert_eq!(sizes, [30, 15, 15]);
        assert_ne!(jobs[1].batch, jobs[2].batch);
    }

    #[test]
    fn service_mix_repeats_about_half_and_sizes_in_range() {
        let jobs = service_jobs(9, 0, 2000);
        let repeats = jobs.iter().filter(|j| j.repeat_of.is_some()).count();
        assert!((800..1200).contains(&repeats), "{repeats} repeats");
        assert!(jobs.iter().all(|j| (20..=200).contains(&j.batch.episodes)));
        let mut s = ServiceStream::new(9, 0);
        for _ in 0..300 {
            let job = s.next_job();
            if let Some(i) = job.repeat_of {
                assert!(s.fresh().len() - i <= REPEAT_WINDOW);
                assert_eq!(s.fresh()[i].0, job.batch);
            }
        }
    }
}
