//! Counting-allocator proof of the zero-allocation NN hot paths.
//!
//! A `#[global_allocator]` wrapper (used only in this test binary) counts
//! every heap allocation, so the assertions below are exact: `predict_into`
//! and the planner's per-step `plan` call perform *zero* allocations in the
//! steady state, a warmed episode loop allocates only a small per-episode
//! constant (the estimator boxes rebuilt by `EpisodeWorkspace::arm_pairs`) — never
//! per step — and `Trainer::fit` allocates nothing per mini-batch once its
//! scratch has grown. See DESIGN.md §13. The same allocator also tracks
//! live heap bytes, which bound what the episode-result cache holds
//! against its byte budget.
//!
//! The tests take one lock, so the default parallel test harness cannot
//! pollute the counters from another test's thread. The harness's own
//! bookkeeping thread can still allocate at arbitrary moments, so each
//! measurement takes the *minimum* over several attempts: background noise
//! only ever adds counts, so a minimum of zero is a sound proof that the
//! measured path allocates nothing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use cv_dynamics::{VehicleLimits, VehicleState};
use cv_estimation::Interval;
use cv_nn::{
    Activation, BatchScratch, Matrix, Mlp, MlpScratch, Optimizer, TrainConfig, Trainer, LANE_WIDTH,
};
use cv_planner::{FeatureScaling, NnPlanner};
use cv_sim::{
    episode_weight, run_batch_lanes, BatchConfig, BatchMode, EpisodeCache, EpisodeConfig,
    EpisodeResult, EpisodeWorkspace, KeyHasher, StackSpec,
};
use safe_shield::{Observation, Outcome, Planner};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Bytes of the live heap blocks, each counted as 64-bit glibc malloc
/// sizes it: the request plus an 8-byte header, rounded up to 16, at
/// least 32.
static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);

fn heap_block(size: usize) -> isize {
    ((size + 8).div_ceil(16) * 16).max(32) as isize
}

// SAFETY: defers every operation to `System`; the counters are relaxed
// atomic updates with no other side effects.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(heap_block(layout.size()), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(heap_block(layout.size()), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(
            heap_block(new_size) - heap_block(layout.size()),
            Ordering::Relaxed,
        );
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(heap_block(layout.size()), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

/// Held by every test for its whole run, so no two measure at once.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::SeqCst)
}

/// Runs `f` and returns how many heap allocations it performed.
fn count_allocs(mut f: impl FnMut()) -> u64 {
    let before = allocs();
    f();
    allocs() - before
}

/// Minimum allocation count of `f` over `attempts` runs — immune to
/// unrelated allocations from the test harness's bookkeeping thread.
fn min_allocs(attempts: usize, mut f: impl FnMut()) -> u64 {
    (0..attempts)
        .map(|_| count_allocs(&mut f))
        .min()
        .expect("at least one attempt")
}

fn case_study_net() -> Mlp {
    // The case-study planner shape: 5 scenario features -> [32, 32] -> 1.
    Mlp::new(&[5, 32, 32, 1], Activation::Tanh, Activation::Tanh, 7).unwrap()
}

#[test]
fn nn_hot_paths_are_allocation_free() {
    let _serial = serial();
    // --- predict_into: exactly zero allocations per call once warm. ---
    let net = case_study_net();
    let mut scratch = MlpScratch::for_net(&net);
    let input = [0.2, -0.4, 0.1, 0.8, -0.3];
    let mut out = [0.0];
    net.predict_into(&input, &mut scratch, &mut out).unwrap();
    let n = min_allocs(5, || {
        for _ in 0..100 {
            net.predict_into(&input, &mut scratch, &mut out).unwrap();
        }
    });
    assert_eq!(n, 0, "predict_into allocated {n} times in 100 calls");

    // --- NnPlanner::plan: the per-step planner call is alloc-free. ---
    let limits = VehicleLimits::new(0.0, 12.0, -6.0, 3.0).unwrap();
    let mut planner = NnPlanner::new(net, limits, FeatureScaling::left_turn(), "alloc-guard");
    let obs = Observation::new(
        1.5,
        VehicleState::new(-28.0, 7.5, 0.0),
        Some(Interval::new(2.0, 5.0)),
    );
    let _ = planner.plan(&obs);
    let n = min_allocs(5, || {
        for _ in 0..100 {
            let _ = planner.plan(&obs);
        }
    });
    assert_eq!(n, 0, "NnPlanner::plan allocated {n} times in 100 calls");

    // --- Steady-state episode loop through the full NN planner stack. ---
    // A warmed workspace may allocate a small per-episode constant (the
    // estimator boxes `EpisodeWorkspace::arm_pairs` rebuilds) but nothing per step:
    // a warmed run's allocation count must stay far below one per step.
    let cfg = EpisodeConfig::paper_default(42);
    let spec = StackSpec::basic(planner);
    let mut ws = EpisodeWorkspace::new(spec);
    let reference = ws.run(&cfg, false).unwrap(); // cold run grows every buffer
    ws.run(&cfg, false).unwrap(); // warm run settles capacities
    let mut last = None;
    let per_episode = min_allocs(4, || {
        last = Some(ws.run(&cfg, false).unwrap());
    });
    let result = last.unwrap();
    assert_eq!(result, reference, "warmed runs must be bit-identical");
    assert!(result.total_steps >= 50, "episode too short to be a proof");
    assert!(
        per_episode <= 8,
        "per-episode allocation count {per_episode} exceeds the reinit \
         constant (total steps: {}) — something allocates per step",
        result.total_steps
    );

    // --- forward_batch_into: exactly zero allocations once warm. ---
    // The lane-batched forward is the per-round kernel of `run_batch_lanes`;
    // with the plan and slabs pre-built it must never touch the heap.
    let net = case_study_net();
    let plan = net.lane_plan();
    let mut batch_scratch = BatchScratch::for_net(&net);
    let input = Matrix::zeros(net.input_dim(), LANE_WIDTH);
    let mut lanes_out = Matrix::zeros(net.output_dim(), LANE_WIDTH);
    net.forward_batch_into(&plan, &input, &mut batch_scratch, &mut lanes_out)
        .unwrap();
    let n = min_allocs(5, || {
        for _ in 0..100 {
            net.forward_batch_into(&plan, &input, &mut batch_scratch, &mut lanes_out)
                .unwrap();
        }
    });
    assert_eq!(n, 0, "forward_batch_into allocated {n} times in 100 calls");

    // --- Trainer::fit: no allocation per mini-batch. Every buffer of the
    // training step (batch gather, forward caches, gradients, Adam moments)
    // is set up or grown within the first mini-batches and reused after, so
    // a run of 6 epochs must allocate exactly as often as a run of 2 — the
    // 16 extra mini-batches add nothing. A batch of 24 leaves a ragged
    // batch of 16 at the end of every epoch, so buffers shrink and regrow.
    let x = Matrix::from_fn(64, 5, |r, c| ((r * 5 + c) as f64 * 0.37).sin());
    let y = Matrix::from_fn(64, 1, |r, _| (r as f64 * 0.21).cos() * 0.5);
    let fit = |epochs: usize| {
        let cfg = TrainConfig {
            epochs,
            batch_size: 24,
            seed: 5,
        };
        let trainer = Trainer::new(Optimizer::adam(0.01), cfg);
        let mut net = case_study_net();
        min_allocs(3, || {
            trainer.fit(&mut net, &x, &y).unwrap();
        })
    };
    let (short, long) = (fit(2), fit(6));
    assert_eq!(
        short, long,
        "Trainer::fit allocated {short} times over 2 epochs but {long} over 6 \
         — something allocates per mini-batch"
    );

    // --- Lane-batched step loop: allocations scale per episode, not per
    // step. `run_batch_lanes` builds a fresh lane group per call (O(K)
    // setup) and each episode arm rebuilds the estimator boxes (the same
    // reinit constant as above), so the whole call cannot be zero. The
    // sound proof is differential: growing the batch must grow the count by
    // at most a small per-episode constant — hundreds of steps per episode
    // would otherwise add hundreds of counts each.
    let lane_planner = NnPlanner::new(
        case_study_net(),
        limits,
        FeatureScaling::left_turn(),
        "alloc-guard-lanes",
    );
    let spec = StackSpec::basic(lane_planner);
    let run_lanes = |episodes: usize| {
        let mut batch = BatchConfig::new(EpisodeConfig::paper_default(42), episodes);
        batch.threads = 1;
        min_allocs(3, || {
            run_batch_lanes(&batch, &spec, BatchMode::Lanes(4), None, None)
                .unwrap()
                .into_results()
                .unwrap();
        })
    };
    let small = run_lanes(8);
    let large = run_lanes(24);
    let growth = large.saturating_sub(small);
    assert!(
        growth <= 12 * (24 - 8),
        "lane batch of 24 episodes allocated {growth} more than a batch of 8 \
         (small: {small}, large: {large}) — something allocates per step"
    );
}

#[test]
fn the_episode_cache_stays_within_its_byte_budget() {
    let _serial = serial();
    // Trace-free results, as the batch paths cache them. Filled four times
    // over, with a hit re-stamping an older entry every third insert, the
    // map and the recency index reach the layouts that eviction churn
    // leaves; after every insert the cache's live heap must fit its budget.
    let result = EpisodeResult {
        outcome: Outcome::Timeout,
        eta: 0.0,
        emergency_steps: 0,
        total_steps: 100,
        collided_pair: None,
        traces: None,
    };
    let weight = episode_weight(&result);
    let key = |i: u64| {
        let mut h = KeyHasher::new();
        h.write_u64(i);
        h.finish()
    };
    for budget in [1usize << 20, 3 << 20, 16 << 20] {
        let base = LIVE_BYTES.load(Ordering::SeqCst);
        let cache = EpisodeCache::new(budget);
        let capacity = budget / weight;
        let mut peak = 0;
        for i in 0..4 * capacity as u64 {
            cache.insert(key(i), result.clone(), weight);
            if i % 3 == 0 {
                cache.get(&key(i / 2));
            }
            peak = peak.max(LIVE_BYTES.load(Ordering::SeqCst) - base);
        }
        assert_eq!(cache.len(), capacity, "a {budget}-byte cache is full");
        assert!(
            peak <= budget as isize,
            "a {budget}-byte cache of {capacity} results held {peak} live heap bytes"
        );
    }
}
