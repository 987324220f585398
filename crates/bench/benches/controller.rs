//! Control-plane tick benchmarks: full-sweep vs dirty-set controller steps.
//!
//! The scenario is the one that motivates the dirty set — a registered
//! fleet much larger than the active fleet: `types` runtime types are
//! tracked by the pool (their slots exist, pending a far-off GC deadline),
//! but only `HOT` of them see traffic each interval. A full-sweep step
//! visits every tracked slot; a dirty-set step visits only the touched
//! keys plus the due cold-GC deadlines, so its cost is independent of
//! `types`. Each timed iteration drives one warm request round per hot key
//! (identical in both modes) and then takes one controller step.
//!
//! The quiet-fleet points keep every key alive instead: `QUIET` keys each
//! hold one idle container. Each interval the [`HOT`] keys see a request,
//! and so do two quiet keys in rotation — the long tail of rarely invoked
//! functions, each invoked often enough that its one container stays
//! warm. A full sweep visits every key every interval; the dirty step
//! parks the provably idle ones, so in steady state it visits the touched
//! keys plus the parked keys whose deadline came due.

use containersim::engine::ExecWork;
use containersim::{ContainerConfig, ContainerEngine, HardwareProfile, ImageId};
use hotc::{AdaptiveController, ControllerConfig, EngineRef, KeyPolicy, ShardedPool};
use hotc_bench::Harness;
use simclock::{SimDuration, SimTime};
use std::hint::black_box;
use stdshim::sync::Mutex;

/// Hot keys per interval — the "active types" a dirty step is linear in.
const HOT: usize = 10;

/// Keys in the quiet fleet, each holding one idle container.
const QUIET: usize = 500;

/// Quiet keys touched per interval, in rotation: each sees a request every
/// `QUIET / QUIET_TOUCHED` intervals.
const QUIET_TOUCHED: usize = 2;

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
            c.exec.env.insert("T".into(), i.to_string());
            c
        })
        .collect()
}

/// A pool tracking `types` slots of which the first [`HOT`] hold a warm
/// container; the rest are empty, cold, and far from their GC deadline.
fn fleet(types: usize) -> (Mutex<ContainerEngine>, ShardedPool, Vec<ContainerConfig>) {
    let engine = Mutex::labeled(
        ContainerEngine::with_local_images(HardwareProfile::server()),
        "core/engine",
    );
    let mut pool = ShardedPool::new(KeyPolicy::Exact);
    // Keep the idle fleet tracked for the whole run: the bench measures
    // steady-state tick cost, not the GC burst.
    pool.set_gc_intervals(1_000_000);
    let all = configs(types);
    for (i, c) in all.iter().enumerate() {
        pool.prewarm(&engine, c, SimTime::ZERO).unwrap();
        if i >= HOT {
            let id = pool.intern_config(c);
            pool.retire_one_id(&engine, id, SimTime::ZERO).unwrap();
        }
    }
    // One marking sweep moves the drained slots onto the cold queue and off
    // the active list, so the timed loop starts from steady state.
    for shard in 0..pool.num_shards() {
        pool.take_shard_snapshot(shard);
    }
    let hot = all.into_iter().take(HOT).collect();
    (engine, pool, hot)
}

/// One timed interval: a warm round trip on each key of `touched`, then
/// one controller step.
fn interval<'a>(
    pool: &ShardedPool,
    engine: &Mutex<ContainerEngine>,
    ctl: &mut AdaptiveController,
    touched: impl IntoIterator<Item = &'a ContainerConfig>,
    full: bool,
    tick: u64,
) -> usize {
    let now = SimTime::from_secs(30 * tick);
    let work = ExecWork::light(SimDuration::from_millis(1));
    for c in touched {
        let acq = pool.acquire(engine, c, now).unwrap();
        let end = engine.with_engine(|e| {
            let out = e.begin_exec(acq.container, work, now).unwrap();
            let end = now + out.latency;
            e.end_exec(acq.container, end).unwrap();
            end
        });
        pool.release(engine, acq.container, end).unwrap();
    }
    let report = if full {
        ctl.step_sharded_full(pool, engine, now).unwrap()
    } else {
        ctl.step_sharded(pool, engine, now).unwrap()
    };
    report.demand.len()
}

fn bench_tick(h: &mut Harness, types: usize) {
    for full in [true, false] {
        let (engine, pool, hot) = fleet(types);
        let mut ctl = AdaptiveController::new(ControllerConfig::default());
        let mut tick = 0u64;
        let name = format!(
            "{}_{}types",
            if full { "full_sweep" } else { "dirty" },
            types
        );
        h.bench(&name, || {
            tick += 1;
            black_box(interval(&pool, &engine, &mut ctl, &hot, full, tick))
        });
    }
}

fn bench_quiet(h: &mut Harness) {
    for full in [true, false] {
        let engine = Mutex::labeled(
            ContainerEngine::with_local_images(HardwareProfile::server()),
            "core/engine",
        );
        let pool = ShardedPool::new(KeyPolicy::Exact);
        let all = configs(QUIET);
        let mut ctl = AdaptiveController::new(ControllerConfig::default());
        // One request per key cold-starts its container; the next zero
        // intervals seed every smoother (mean of the first five), so the
        // timed loop starts with each quiet key sized to one container.
        let mut tick = 1u64;
        interval(&pool, &engine, &mut ctl, &all, full, tick);
        for _ in 0..8 {
            tick += 1;
            interval(&pool, &engine, &mut ctl, &all[..HOT], full, tick);
        }
        let name = format!(
            "{}_quiet_{QUIET}keys",
            if full { "full_sweep" } else { "dirty" }
        );
        h.bench(&name, || {
            tick += 1;
            let from = HOT + (tick as usize * QUIET_TOUCHED) % (QUIET - HOT);
            let quiet = all[HOT..]
                .iter()
                .cycle()
                .skip(from - HOT)
                .take(QUIET_TOUCHED);
            let touched = all[..HOT].iter().chain(quiet);
            black_box(interval(&pool, &engine, &mut ctl, touched, full, tick))
        });
        assert_eq!(
            pool.total_live(),
            QUIET,
            "every quiet key kept its container"
        );
    }
}

fn main() {
    let mut h = Harness::new("controller_tick");
    bench_tick(&mut h, 100);
    bench_tick(&mut h, 1000);
    bench_quiet(&mut h);
    h.finish();
}
