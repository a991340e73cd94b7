//! Content-addressed cache keys for episodes (DESIGN.md §14).
//!
//! An episode is a pure function of `(EpisodeConfig, StackSpec, code
//! version, build features)` — seeded RNG streams make the simulator
//! deterministic, and the bit-identity suites pin that down across every
//! batch path. This module derives the stable 128-bit [`CacheKey`] that
//! names one such computation:
//!
//! * [`EpisodeConfig`] implements [`Hashable`] field for field — every f64
//!   by its bit pattern (so `-0.0 ≠ 0.0`), every enum with a discriminant
//!   byte, every collection length-prefixed. A NaN anywhere is a typed
//!   [`KeyError`], never a silent key.
//! * [`stack_digest`] folds the planner stack — including full NN weight
//!   matrices — plus the *salt*: the key-format tag, the crate version and
//!   the set of active feature flags that can change simulation behaviour (`fault-injection`
//!   compiles a different [`StackSpec`] shape, so its artifacts must never
//!   collide with default-build ones).
//! * [`episode_key`] combines the two; [`crate::BatchConfig::episode`] + this is
//!   what [`crate::run_batch_with`] looks up before spawning a worker.
//!
//! The digest is computed once per batch (NN weights are the expensive
//! part) and mixed into each per-episode key.

use cv_cache::{CacheKey, Hashable, KeyError, KeyHasher, PersistValue, PersistentCache};
use cv_comm::CommSetting;
use cv_dynamics::VehicleState;
use cv_estimation::FilterMode;
use cv_planner::{NnPlanner, TeacherPolicy};
use cv_sensing::SensorNoise;
use safe_shield::{Outcome, Planner, WindowSource};

use crate::{EpisodeConfig, EpisodeResult, StackSpec, WindowKind};

/// The episode-result cache: per-episode summaries keyed by content hash,
/// memory-only via [`PersistentCache::new`] or disk-backed via
/// [`PersistentCache::open`] with [`store_salt`] as the segment salt.
pub type EpisodeCache = PersistentCache<EpisodeResult>;

/// Default byte budget for an in-process episode cache (64 MiB — a few
/// hundred thousand episode summaries).
pub const DEFAULT_CACHE_BYTES: usize = 64 << 20;

/// Estimated resident weight of one cached episode result, in bytes: the
/// value itself plus map/LRU bookkeeping. Cached results carry no traces
/// (the batch paths run trace-free), so the struct size dominates.
pub fn episode_weight(result: &EpisodeResult) -> usize {
    let traces = if result.traces.is_some() {
        // Trace-bearing results are heap-heavy and unbounded; weigh them
        // prohibitively so they never crowd out thousands of summaries.
        1 << 20
    } else {
        0
    };
    std::mem::size_of::<EpisodeResult>() + std::mem::size_of::<CacheKey>() + 64 + traces
}

fn feed_state(h: &mut KeyHasher, s: &VehicleState) -> Result<(), KeyError> {
    h.write_f64("position", s.position)?;
    h.write_f64("velocity", s.velocity)?;
    h.write_f64("acceleration", s.acceleration)
}

fn feed_comm(h: &mut KeyHasher, comm: &CommSetting) -> Result<(), KeyError> {
    match comm {
        CommSetting::NoDisturbance => h.write_u8(0),
        CommSetting::Delayed { delay, drop_prob } => {
            h.write_u8(1);
            h.write_f64("comm.delay", *delay)?;
            h.write_f64("comm.drop_prob", *drop_prob)?;
        }
        CommSetting::Lost => h.write_u8(2),
    }
    Ok(())
}

fn feed_noise(h: &mut KeyHasher, noise: &SensorNoise) -> Result<(), KeyError> {
    h.write_f64("noise.delta_p", noise.delta_p)?;
    h.write_f64("noise.delta_v", noise.delta_v)?;
    h.write_f64("noise.delta_a", noise.delta_a)
}

fn feed_driver(h: &mut KeyHasher, driver: &crate::DriverModel) -> Result<(), KeyError> {
    match driver {
        crate::DriverModel::UniformRandom => h.write_u8(0),
        crate::DriverModel::OrnsteinUhlenbeck { theta, sigma } => {
            h.write_u8(1);
            h.write_f64("driver.theta", *theta)?;
            h.write_f64("driver.sigma", *sigma)?;
        }
        crate::DriverModel::ConstantSpeed => h.write_u8(2),
        crate::DriverModel::Ambush { brake_at } => {
            h.write_u8(3);
            h.write_f64("driver.brake_at", *brake_at)?;
        }
        crate::DriverModel::GapTracking { target_gap, gain } => {
            h.write_u8(4);
            h.write_f64("driver.target_gap", *target_gap)?;
            h.write_f64("driver.gain", *gain)?;
        }
    }
    Ok(())
}

impl Hashable for EpisodeConfig {
    fn feed(&self, h: &mut KeyHasher) -> Result<(), KeyError> {
        feed_state(h, &self.ego_init)?;
        h.write_f64("dt_c", self.dt_c)?;
        h.write_f64("dt_m", self.dt_m)?;
        h.write_f64("dt_s", self.dt_s)?;
        h.write_f64("horizon", self.horizon)?;
        feed_comm(h, &self.comm)?;
        feed_noise(h, &self.noise)?;
        h.write_u64(self.seed);
        h.write_f64("sensor_dropout", self.sensor_dropout)?;
        h.write_len(self.others.len());
        for other in &self.others {
            h.write_f64("others.start_shared", other.start_shared)?;
            h.write_f64("others.init_speed", other.init_speed)?;
            feed_driver(h, &other.driver)?;
            match &other.comm {
                None => h.write_u8(0),
                Some(comm) => {
                    h.write_u8(1);
                    feed_comm(h, comm)?;
                }
            }
        }
        Ok(())
    }
}

fn feed_window(h: &mut KeyHasher, window: WindowKind) {
    h.write_u8(match window {
        WindowKind::Conservative => 0,
        WindowKind::Nominal => 1,
    });
}

fn feed_teacher(h: &mut KeyHasher, policy: &TeacherPolicy) {
    let (bits, name) = policy.content_bits();
    h.write_str(name);
    for b in bits {
        h.write_u64(b);
    }
}

fn feed_nn(h: &mut KeyHasher, planner: &NnPlanner) -> Result<(), KeyError> {
    h.write_str(Planner::name(planner));
    let scaling = planner.scaling();
    h.write_f64("scaling.time", scaling.time)?;
    h.write_f64("scaling.position", scaling.position)?;
    h.write_f64("scaling.velocity", scaling.velocity)?;
    h.write_f64("scaling.window", scaling.window)?;
    let limits = planner.limits();
    h.write_f64("limits.v_min", limits.v_min())?;
    h.write_f64("limits.v_max", limits.v_max())?;
    h.write_f64("limits.a_min", limits.a_min())?;
    h.write_f64("limits.a_max", limits.a_max())?;
    let net = planner.network();
    h.write_len(net.layers().len());
    for layer in net.layers() {
        h.write_len(layer.in_dim());
        h.write_len(layer.out_dim());
        h.write_str(layer.activation().name());
        for w in layer.weights().as_slice() {
            h.write_f64("nn.weight", *w)?;
        }
        for b in layer.bias() {
            h.write_f64("nn.bias", *b)?;
        }
    }
    Ok(())
}

/// Folds the *salt* — everything outside the configs that can change what a
/// simulation produces — into a key stream: the key-format tag, the crate
/// version (code evolution invalidates old entries wholesale), the NN
/// numerics tag ([`cv_nn::NUMERICS`]: a build whose network outputs round
/// differently must not serve another's results) and the active
/// behaviour-relevant feature flags (a `fault-injection` build compiles
/// different stack shapes and must never share keys with a default build).
fn feed_salt(h: &mut KeyHasher) {
    // Bumped whenever a feed changes shape (2: one `others` list), so a
    // store written under the old feed is refused, not loaded as dead keys.
    h.write_str("key-format/2");
    h.write_str(concat!("cv-sim/", env!("CARGO_PKG_VERSION")));
    h.write_str(cv_nn::NUMERICS);
    h.write_u8(u8::from(cfg!(feature = "fault-injection")));
}

/// The segment-store salt: the same key-format + code-version + numerics +
/// feature-flag stream that salts every [`stack_digest`], hashed alone. A
/// persistent cache directory written by a different binary (key-format or
/// version bump, NN numerics or feature change) fails the salt check at
/// startup and is *refused* — counted as stale, never misread — instead of
/// serving results the current code would not reproduce.
pub fn store_salt() -> CacheKey {
    let mut h = KeyHasher::new();
    feed_salt(&mut h);
    h.finish()
}

/// Content digest of a planner stack, salted with the code version and
/// active feature flags. Compute once per batch, then mix into each
/// episode's key with [`episode_key`].
///
/// # Errors
///
/// [`KeyError`] if any stack parameter (including an NN weight) is NaN.
pub fn stack_digest(spec: &StackSpec) -> Result<CacheKey, KeyError> {
    let mut h = KeyHasher::new();
    feed_salt(&mut h);
    match spec {
        StackSpec::PureNn { planner, window } => {
            h.write_u8(0);
            feed_window(&mut h, *window);
            feed_nn(&mut h, planner)?;
        }
        StackSpec::PureTeacher { policy, window } => {
            h.write_u8(1);
            feed_window(&mut h, *window);
            feed_teacher(&mut h, policy);
        }
        #[cfg(feature = "fault-injection")]
        StackSpec::PanicInjection {
            policy,
            window,
            panic_seeds,
        } => {
            h.write_u8(2);
            feed_window(&mut h, *window);
            feed_teacher(&mut h, policy);
            h.write_len(panic_seeds.len());
            for seed in panic_seeds {
                h.write_u64(*seed);
            }
        }
        StackSpec::Compound {
            planner,
            filter_mode,
            window_source,
        } => {
            h.write_u8(3);
            h.write_u8(match filter_mode {
                FilterMode::HardOnly => 0,
                FilterMode::Fused => 1,
            });
            match window_source {
                WindowSource::Conservative => h.write_u8(0),
                WindowSource::Aggressive(cfg) => {
                    h.write_u8(1);
                    h.write_f64("aggressive.a_buf", cfg.a_buf)?;
                    h.write_f64("aggressive.v_buf", cfg.v_buf)?;
                }
            }
            feed_nn(&mut h, planner)?;
        }
    }
    Ok(h.finish())
}

/// The content key of one episode: the batch's stack digest mixed with the
/// full episode configuration.
///
/// # Errors
///
/// [`KeyError`] if any floating-point field of `cfg` is NaN.
pub fn episode_key(stack: CacheKey, cfg: &EpisodeConfig) -> Result<CacheKey, KeyError> {
    let mut h = KeyHasher::new();
    h.write_u64(stack.hi);
    h.write_u64(stack.lo);
    cfg.feed(&mut h)?;
    Ok(h.finish())
}

// The persistent record encoding of an episode result (DESIGN.md §17):
// fixed little-endian layout, no self-description — the segment header's
// version + salt already pin the writer, and the per-record CRC64 pins the
// bytes. Trace-bearing results are refused (`encode_persist` returns
// `false`): traces are heap-heavy, batch paths never produce them, and a
// memory-only entry is the right place for the odd one that exists.
impl PersistValue for EpisodeResult {
    fn encode_persist(&self, out: &mut Vec<u8>) -> bool {
        if self.traces.is_some() {
            return false;
        }
        match self.outcome {
            Outcome::Collision { time } => {
                out.push(0);
                out.extend_from_slice(&time.to_bits().to_le_bytes());
            }
            Outcome::Reached { time } => {
                out.push(1);
                out.extend_from_slice(&time.to_bits().to_le_bytes());
            }
            Outcome::Timeout => {
                out.push(2);
                out.extend_from_slice(&0u64.to_le_bytes());
            }
        }
        out.extend_from_slice(&self.eta.to_bits().to_le_bytes());
        out.extend_from_slice(&self.emergency_steps.to_le_bytes());
        out.extend_from_slice(&self.total_steps.to_le_bytes());
        match self.collided_pair {
            None => {
                out.push(0);
                out.extend_from_slice(&0u64.to_le_bytes());
            }
            Some(i) => {
                out.push(1);
                out.extend_from_slice(&(i as u64).to_le_bytes());
            }
        }
        true
    }

    fn decode_persist(bytes: &[u8]) -> Option<Self> {
        // 2 tag bytes + 5 u64 fields, and nothing trailing: a record that
        // is the wrong length was not written by this encoder.
        const LEN: usize = 2 + 5 * 8;
        if bytes.len() != LEN {
            return None;
        }
        let u64_at = |off: usize| u64::from_le_bytes(bytes[off..off + 8].try_into().unwrap());
        let outcome = match bytes[0] {
            0 => Outcome::Collision {
                time: f64::from_bits(u64_at(1)),
            },
            1 => Outcome::Reached {
                time: f64::from_bits(u64_at(1)),
            },
            2 => Outcome::Timeout,
            _ => return None,
        };
        let collided_pair = match bytes[33] {
            0 => None,
            1 => Some(u64_at(34) as usize),
            _ => return None,
        };
        Some(EpisodeResult {
            outcome,
            eta: f64::from_bits(u64_at(9)),
            emergency_steps: u64_at(17),
            total_steps: u64_at(25),
            collided_pair,
            traces: None,
        })
    }

    fn reload_weight(&self) -> usize {
        episode_weight(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DriverModel;

    fn base() -> EpisodeConfig {
        EpisodeConfig::paper_default(11)
    }

    fn digest() -> CacheKey {
        stack_digest(&StackSpec::pure_teacher_conservative(&base()).unwrap()).unwrap()
    }

    fn key_of(cfg: &EpisodeConfig) -> CacheKey {
        episode_key(digest(), cfg).unwrap()
    }

    cv_rng::props! {
        fn identical_configs_key_equal(cases = 64, seed in 0..u64::MAX, start in 50.0..60.0) {
            let mut a = EpisodeConfig::paper_default(seed);
            a.others[0].start_shared = start;
            // An independently reconstructed config — not a clone — must
            // produce the same key: the hash is content, not identity.
            let mut b = EpisodeConfig::paper_default(seed);
            b.others[0].start_shared = start;
            assert_eq!(key_of(&a), key_of(&b));
            let d1 = stack_digest(&StackSpec::pure_teacher_conservative(&a).unwrap()).unwrap();
            let d2 = stack_digest(&StackSpec::pure_teacher_conservative(&b).unwrap()).unwrap();
            assert_eq!(d1, d2);
        }
    }

    #[test]
    fn flipping_any_single_field_changes_the_key() {
        type Mutation = (&'static str, fn(&mut EpisodeConfig));
        let mutations: &[Mutation] = &[
            ("others[0].start_shared", |c| {
                c.others[0].start_shared += 0.5
            }),
            ("ego_init.position", |c| c.ego_init.position += 1.0),
            ("ego_init.velocity", |c| c.ego_init.velocity += 1.0),
            ("ego_init.acceleration", |c| c.ego_init.acceleration += 0.5),
            ("others[0].init_speed", |c| c.others[0].init_speed += 1.0),
            ("dt_c", |c| c.dt_c = 0.025),
            ("dt_m", |c| c.dt_m = 0.2),
            ("dt_s", |c| c.dt_s = 0.2),
            ("horizon", |c| c.horizon += 5.0),
            ("comm->delayed", |c| {
                c.comm = CommSetting::Delayed {
                    delay: 0.25,
                    drop_prob: 0.0,
                }
            }),
            ("comm->lost", |c| c.comm = CommSetting::Lost),
            ("noise.delta_p", |c| c.noise.delta_p += 0.5),
            ("noise.delta_v", |c| c.noise.delta_v += 0.5),
            ("noise.delta_a", |c| c.noise.delta_a += 0.5),
            ("seed", |c| c.seed += 1),
            ("sensor_dropout", |c| c.sensor_dropout = 0.1),
            ("sensor_dropout->-0.0", |c| c.sensor_dropout = -0.0),
            ("others[0].driver->ou", |c| {
                c.others[0].driver = DriverModel::OrnsteinUhlenbeck {
                    theta: 0.5,
                    sigma: 1.0,
                }
            }),
            ("others[0].driver->constant", |c| {
                c.others[0].driver = DriverModel::ConstantSpeed
            }),
            ("others[0].driver->ambush", |c| {
                c.others[0].driver = DriverModel::Ambush { brake_at: 2.0 }
            }),
            ("others.push", |c| {
                c.others.push(crate::OtherVehicle::new(
                    80.0,
                    9.0,
                    DriverModel::UniformRandom,
                ))
            }),
        ];
        let reference = key_of(&base());
        for (name, mutate) in mutations {
            let mut cfg = base();
            mutate(&mut cfg);
            assert_ne!(
                key_of(&cfg),
                reference,
                "mutation '{name}' did not change the key"
            );
        }
    }

    #[test]
    fn every_platoon_vehicle_field_flip_changes_the_key() {
        let platoon = || crate::PlatoonSpec::paper_default(4, 17).unwrap();
        let reference = key_of(&platoon().episode());
        // Independently reconstructed identical platoons collide (content,
        // not identity).
        assert_eq!(key_of(&platoon().episode()), reference);

        type Mutation = (&'static str, fn(&mut crate::PlatoonSpec));
        let mutations: &[Mutation] = &[
            ("follower[0].gap", |p| p.followers[0].gap += 0.5),
            ("follower[1].gap", |p| p.followers[1].gap += 0.5),
            ("follower[0].init_speed", |p| {
                p.followers[0].init_speed += 1.0
            }),
            ("follower[1].policy_gain", |p| {
                p.followers[1].policy_gain += 0.1
            }),
            ("follower[0].comm->delayed", |p| {
                p.followers[0].comm = Some(CommSetting::Delayed {
                    delay: 0.25,
                    drop_prob: 0.0,
                })
            }),
            ("follower[1].comm->lost", |p| {
                p.followers[1].comm = Some(CommSetting::Lost)
            }),
            ("leader.comm->delayed", |p| {
                p.comm = CommSetting::Delayed {
                    delay: 0.25,
                    drop_prob: 0.1,
                }
            }),
            ("leader_start_shared", |p| p.leader_start_shared += 1.0),
        ];
        for (name, mutate) in mutations {
            let mut spec = platoon();
            mutate(&mut spec);
            assert_ne!(
                key_of(&spec.episode()),
                reference,
                "platoon mutation '{name}' did not change the key"
            );
        }

        // Per-pair channel knobs: with an override present, both the delay
        // and the drop probability of that single pair are keyed.
        let delayed = |delay, drop_prob| {
            let mut spec = platoon();
            spec.followers[1].comm = Some(CommSetting::Delayed { delay, drop_prob });
            key_of(&spec.episode())
        };
        assert_ne!(delayed(0.25, 0.1), delayed(0.5, 0.1), "pair delay inert");
        assert_ne!(
            delayed(0.25, 0.1),
            delayed(0.25, 0.2),
            "pair drop_prob inert"
        );

        // An explicit override equal to the inherited setting is still a
        // different config (`Some(x)` vs `None`): the key must not alias
        // the two spellings, because a later template change to the
        // inherited comm would silently diverge them.
        let mut pinned = platoon();
        pinned.followers[0].comm = Some(pinned.comm);
        assert_ne!(key_of(&pinned.episode()), reference);

        // The leader `C_1` is `others[0]`, keyed like every follower: its
        // own override, even one equal to the inherited setting, is a
        // different config.
        for comm in [CommSetting::Lost, platoon().comm] {
            let mut cfg = platoon().episode();
            cfg.others[0].comm = Some(comm);
            assert_ne!(key_of(&cfg), reference, "others[0].comm {comm:?} inert");
        }
    }

    #[test]
    fn each_disturbance_knob_changes_the_key() {
        let mut delayed = base();
        delayed.comm = CommSetting::Delayed {
            delay: 0.25,
            drop_prob: 0.35,
        };
        let reference = key_of(&delayed);
        let mut delay_bump = delayed.clone();
        delay_bump.comm = CommSetting::Delayed {
            delay: 0.5,
            drop_prob: 0.35,
        };
        assert_ne!(key_of(&delay_bump), reference, "delay knob inert");
        let mut drop_bump = delayed.clone();
        drop_bump.comm = CommSetting::Delayed {
            delay: 0.25,
            drop_prob: 0.4,
        };
        assert_ne!(key_of(&drop_bump), reference, "drop_prob knob inert");
    }

    #[test]
    fn negative_zero_differs_from_zero_everywhere_it_can_appear() {
        let mut plus = base();
        plus.ego_init.acceleration = 0.0;
        let mut minus = base();
        minus.ego_init.acceleration = -0.0;
        assert_ne!(key_of(&plus), key_of(&minus));
    }

    #[test]
    fn nan_bearing_configs_are_rejected_with_a_typed_error() {
        type Poison = (&'static str, fn(&mut EpisodeConfig));
        let poisons: &[Poison] = &[
            ("others.start_shared", |c| {
                c.others[0].start_shared = f64::NAN
            }),
            ("ego_init.velocity", |c| c.ego_init.velocity = f64::NAN),
            ("dt_c", |c| c.dt_c = f64::NAN),
            ("horizon", |c| c.horizon = f64::NAN),
            ("comm.delay", |c| {
                c.comm = CommSetting::Delayed {
                    delay: f64::NAN,
                    drop_prob: 0.0,
                }
            }),
            ("comm.drop_prob", |c| {
                c.comm = CommSetting::Delayed {
                    delay: 0.25,
                    drop_prob: f64::NAN,
                }
            }),
            ("noise.delta_v", |c| c.noise.delta_v = f64::NAN),
            ("sensor_dropout", |c| c.sensor_dropout = f64::NAN),
            ("driver.sigma", |c| {
                c.others[0].driver = DriverModel::OrnsteinUhlenbeck {
                    theta: 0.5,
                    sigma: f64::NAN,
                }
            }),
            ("others.init_speed", |c| {
                c.others.push(crate::OtherVehicle::new(
                    80.0,
                    f64::NAN,
                    DriverModel::UniformRandom,
                ))
            }),
            ("driver.gain", |c| {
                c.others.push(crate::OtherVehicle::new(
                    80.0,
                    9.0,
                    DriverModel::GapTracking {
                        target_gap: 9.0,
                        gain: f64::NAN,
                    },
                ))
            }),
            ("driver.target_gap", |c| {
                c.others.push(crate::OtherVehicle::new(
                    80.0,
                    9.0,
                    DriverModel::GapTracking {
                        target_gap: f64::NAN,
                        gain: 0.6,
                    },
                ))
            }),
            ("others.comm.delay", |c| {
                c.others.push(
                    crate::OtherVehicle::new(80.0, 9.0, DriverModel::UniformRandom).with_comm(
                        CommSetting::Delayed {
                            delay: f64::NAN,
                            drop_prob: 0.0,
                        },
                    ),
                )
            }),
            ("others.comm.drop_prob", |c| {
                c.others.push(
                    crate::OtherVehicle::new(80.0, 9.0, DriverModel::UniformRandom).with_comm(
                        CommSetting::Delayed {
                            delay: 0.25,
                            drop_prob: f64::NAN,
                        },
                    ),
                )
            }),
        ];
        for (name, poison) in poisons {
            let mut cfg = base();
            poison(&mut cfg);
            match episode_key(digest(), &cfg) {
                Err(KeyError::NanField { field }) => {
                    assert!(
                        field.contains(name.split('.').next_back().unwrap()),
                        "poison '{name}' surfaced as field '{field}'"
                    );
                }
                Ok(_) => panic!("poison '{name}' was silently keyed"),
            }
        }
    }

    #[test]
    fn stack_digest_distinguishes_policies_and_windows() {
        let cfg = base();
        let cons = stack_digest(&StackSpec::pure_teacher_conservative(&cfg).unwrap()).unwrap();
        let aggr = stack_digest(&StackSpec::pure_teacher_aggressive(&cfg).unwrap()).unwrap();
        assert_ne!(cons, aggr);
        // Same policy, different window flavour.
        let StackSpec::PureTeacher { policy, .. } =
            StackSpec::pure_teacher_conservative(&cfg).unwrap()
        else {
            unreachable!()
        };
        let nominal = stack_digest(&StackSpec::PureTeacher {
            policy,
            window: WindowKind::Nominal,
        })
        .unwrap();
        assert_ne!(cons, nominal);
    }

    #[test]
    fn episode_key_depends_on_the_stack_digest() {
        let cfg = base();
        let cons = stack_digest(&StackSpec::pure_teacher_conservative(&cfg).unwrap()).unwrap();
        let aggr = stack_digest(&StackSpec::pure_teacher_aggressive(&cfg).unwrap()).unwrap();
        assert_ne!(
            episode_key(cons, &cfg).unwrap(),
            episode_key(aggr, &cfg).unwrap()
        );
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn panic_seed_list_is_part_of_the_digest() {
        let cfg = base();
        let a = stack_digest(&StackSpec::panic_injection(&cfg, vec![1]).unwrap()).unwrap();
        let b = stack_digest(&StackSpec::panic_injection(&cfg, vec![2]).unwrap()).unwrap();
        let none = stack_digest(&StackSpec::panic_injection(&cfg, vec![]).unwrap()).unwrap();
        let teacher = stack_digest(&StackSpec::pure_teacher_conservative(&cfg).unwrap()).unwrap();
        assert_ne!(a, b);
        assert_ne!(a, none);
        assert_ne!(none, teacher, "injection wrapper aliases the plain teacher");
    }

    #[test]
    fn episode_result_persist_round_trip_is_bit_identical() {
        let results = [
            EpisodeResult {
                outcome: safe_shield::Outcome::Reached { time: 7.25 },
                eta: -0.0,
                emergency_steps: 3,
                total_steps: 401,
                collided_pair: None,
                traces: None,
            },
            EpisodeResult {
                outcome: safe_shield::Outcome::Collision { time: 1.5 },
                eta: f64::NEG_INFINITY,
                emergency_steps: 0,
                total_steps: 12,
                collided_pair: Some(2),
                traces: None,
            },
            EpisodeResult {
                outcome: safe_shield::Outcome::Timeout,
                eta: 0.125,
                emergency_steps: 9,
                total_steps: u64::MAX,
                collided_pair: None,
                traces: None,
            },
        ];
        for r in &results {
            let mut buf = Vec::new();
            assert!(r.encode_persist(&mut buf));
            let back = EpisodeResult::decode_persist(&buf).expect("decodable");
            assert_eq!(back.outcome, r.outcome);
            assert_eq!(back.eta.to_bits(), r.eta.to_bits(), "eta bits must survive");
            assert_eq!(back.emergency_steps, r.emergency_steps);
            assert_eq!(back.total_steps, r.total_steps);
            assert_eq!(back.collided_pair, r.collided_pair);
            assert!(back.traces.is_none());
            // Truncated or padded buffers are refused, not misread.
            assert!(EpisodeResult::decode_persist(&buf[..buf.len() - 1]).is_none());
            let mut padded = buf.clone();
            padded.push(0);
            assert!(EpisodeResult::decode_persist(&padded).is_none());
        }
        // Trace-bearing results refuse to persist without counting as a
        // fault.
        let heavy = EpisodeResult {
            traces: Some(Default::default()),
            ..results[0].clone()
        };
        assert!(!heavy.encode_persist(&mut Vec::new()));
    }

    #[test]
    fn a_budget_of_eight_results_holds_all_eight() {
        // The whole budget is one LRU: a cache sized for exactly eight
        // results keeps eight, wherever their keys fall.
        let result = |steps: u64| EpisodeResult {
            outcome: safe_shield::Outcome::Timeout,
            eta: 0.0,
            emergency_steps: 0,
            total_steps: steps,
            collided_pair: None,
            traces: None,
        };
        let weight = episode_weight(&result(0));
        let cache = EpisodeCache::new(8 * weight);
        let digest = digest();
        let keys: Vec<CacheKey> = (0..8)
            .map(|seed| episode_key(digest, &EpisodeConfig::paper_default(seed)).unwrap())
            .collect();
        for (steps, key) in (0..).zip(&keys) {
            cache.insert(*key, result(steps), weight);
        }
        for (steps, key) in (0..).zip(&keys) {
            let got = cache.get(key).map(|r| r.total_steps);
            assert_eq!(got, Some(steps), "result {steps} was not kept");
        }
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.evictions, stats.entries), (8, 0, 8));
    }

    #[test]
    fn trace_bearing_results_weigh_prohibitively() {
        let slim = EpisodeResult {
            outcome: safe_shield::Outcome::Timeout,
            eta: 0.0,
            emergency_steps: 0,
            total_steps: 10,
            collided_pair: None,
            traces: None,
        };
        let heavy = EpisodeResult {
            traces: Some(Default::default()),
            ..slim.clone()
        };
        assert!(episode_weight(&heavy) > 100 * episode_weight(&slim));
    }
}
