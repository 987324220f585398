//! Micro-benchmarks of HotC's control-plane hot path: the real CPU cost of
//! the pool bookkeeping that sits on every request (the paper's "negligible
//! overhead" claim, §V-E).

use containersim::engine::ExecWork;
use containersim::{ContainerConfig, ContainerEngine, HardwareProfile, ImageId};
use hotc::{ContainerPool, KeyPolicy, RuntimeKey};
use hotc_bench::Harness;
use simclock::{SimDuration, SimTime};
use std::hint::black_box;

fn configs(n: usize) -> Vec<ContainerConfig> {
    let images = [
        "python:3.8-alpine",
        "golang:1.13",
        "node:12-alpine",
        "openjdk:8-jre",
    ];
    (0..n)
        .map(|i| {
            let mut c = ContainerConfig::bridge(ImageId::parse(images[i % images.len()]));
            c.exec.env.insert("SHARD".into(), i.to_string());
            c
        })
        .collect()
}

fn bench_key_canonicalization(h: &mut Harness) {
    let config = &configs(1)[0];
    h.bench("key/exact_from_config", || {
        RuntimeKey::from_config(black_box(config), KeyPolicy::Exact)
    });
    h.bench("key/fuzzy_from_config", || {
        RuntimeKey::from_config(black_box(config), KeyPolicy::Fuzzy)
    });
    // The steady-state replacement for the formatting above: a re-intern of
    // a known configuration hashes the key-relevant fields and returns the
    // u32 id — no string is built, nothing is allocated.
    let pool = hotc::ShardedPool::new(KeyPolicy::Exact);
    let id = pool.intern_config(config);
    h.bench("key/intern_hit", || {
        assert_eq!(id, pool.intern_config(black_box(config)));
    });
}

fn bench_acquire_release_reuse(h: &mut Harness) {
    // Steady-state: the container exists and is available; measure the pure
    // bookkeeping of Algorithm 1 + Algorithm 2 (reuse path).
    let mut engine = ContainerEngine::with_local_images(HardwareProfile::server());
    let mut pool = ContainerPool::new(KeyPolicy::Exact);
    let config = &configs(1)[0];
    pool.prewarm(&mut engine, config, SimTime::ZERO).unwrap();
    let work = ExecWork::light(SimDuration::from_millis(1));

    let mut now = SimTime::ZERO;
    h.bench("acquire_exec_release_reuse", || {
        now += SimDuration::from_millis(10);
        let acq = pool.acquire(&mut engine, config, now).unwrap();
        assert!(!acq.cold);
        let out = engine.begin_exec(acq.container, work, now).unwrap();
        engine.end_exec(acq.container, now + out.latency).unwrap();
        pool.release(&mut engine, acq.container, now).unwrap();
    });
}

fn bench_acquire_many_types(h: &mut Harness) {
    // 100 distinct runtime types warm in the pool: lookup cost at scale.
    let mut engine = ContainerEngine::with_local_images(HardwareProfile::server());
    let mut pool = ContainerPool::new(KeyPolicy::Exact);
    let configs = configs(100);
    for config in &configs {
        pool.prewarm(&mut engine, config, SimTime::ZERO).unwrap();
    }
    let work = ExecWork::light(SimDuration::from_millis(1));
    let mut i = 0usize;
    let mut now = SimTime::ZERO;
    h.bench("reuse_among_100_types", || {
        i = (i + 7) % configs.len();
        now += SimDuration::from_millis(10);
        let acq = pool.acquire(&mut engine, &configs[i], now).unwrap();
        let out = engine.begin_exec(acq.container, work, now).unwrap();
        engine.end_exec(acq.container, now + out.latency).unwrap();
        pool.release(&mut engine, acq.container, now).unwrap();
    });
}

fn bench_cold_create_and_remove(h: &mut Harness) {
    // The cold path's bookkeeping (engine create + pool insert + teardown).
    let config = configs(1).remove(0);
    h.bench_with_setup(
        "cold_create_then_evict",
        || {
            let engine = ContainerEngine::with_local_images(HardwareProfile::server());
            (engine, ContainerPool::new(KeyPolicy::Exact))
        },
        |(mut engine, mut pool)| {
            for i in 0..8u64 {
                pool.prewarm(&mut engine, &config, SimTime::from_secs(i))
                    .unwrap();
            }
            while pool
                .evict_oldest(&mut engine, SimTime::from_secs(100))
                .unwrap()
                .is_some()
            {}
            black_box(pool.total_live())
        },
    );
}

fn bench_evict_oldest_at_scale(h: &mut Harness) {
    // The flash-crowd shape under the 500-container cap: 10k tracked keys,
    // 500 live containers, the oldest 250 held in use. Each iteration is
    // one cold start plus the forced eviction it triggers, so the live
    // population stays at 500.
    let mut engine = ContainerEngine::with_local_images(HardwareProfile::server());
    let mut pool = ContainerPool::new(KeyPolicy::Exact);
    let configs = configs(10_000);
    for (i, config) in configs.iter().enumerate() {
        pool.prewarm(&mut engine, config, SimTime::from_millis(i as u64))
            .unwrap();
    }
    let now = SimTime::from_secs(100);
    for config in &configs[500..] {
        pool.retire_one(&mut engine, &pool.key_of(config), now)
            .unwrap();
    }
    for config in &configs[..250] {
        assert!(!pool.acquire(&mut engine, config, now).unwrap().cold);
    }
    assert_eq!(pool.total_live(), 500);
    let mut now = now;
    let mut i = 0usize;
    let mut cold_start_then_evict = || {
        i = (i + 7919) % configs.len();
        now += SimDuration::from_millis(1);
        pool.prewarm(&mut engine, &configs[i], now).unwrap();
        assert!(pool.evict_oldest(&mut engine, now).unwrap().is_some());
    };
    // Turn the 250 idle containers over once before timing, so the window
    // measures the steady state, not the one-off purge of the index entries
    // the setup's retires and warm acquires left behind.
    for _ in 0..500 {
        cold_start_then_evict();
    }
    h.bench(
        "evict_oldest/10k_keys_500_live_half_busy",
        cold_start_then_evict,
    );
}

fn main() {
    let mut h = Harness::new("pool");
    bench_key_canonicalization(&mut h);
    bench_acquire_release_reuse(&mut h);
    bench_acquire_many_types(&mut h);
    bench_cold_create_and_remove(&mut h);
    bench_evict_oldest_at_scale(&mut h);
    h.finish();
}
