//! Lockstep check of the app-switch rule on both HotC gateways.
//!
//! HotC pools runtimes, so apps that share a runtime configuration share
//! containers, and a reused container must load the new app's code when it
//! last ran a different app (§IV). The gateways keep that last app on the
//! container itself: `faas::Gateway` on the engine record, `ShardedGateway`
//! in the pool slot's atomic word (or on the engine record for containers
//! beyond the slot array). This test drives random begin/finish/tick
//! sequences with crashes and a pool cap that forces evictions, and holds
//! every request's app-init charge to a model that keeps the original rule:
//! a side map from container id to the last app dispatched to it, consulted
//! together with `first_exec`. The model is never pruned; container ids are
//! never reused, so a disposed container's entry is never consulted again.

use containersim::engine::ExecWork;
use containersim::{ContainerEngine, ContainerId, HardwareProfile, ImageId};
use faas::gateway::{Gateway, InFlight};
use faas::AppProfile;
use hotc::{HotC, HotCConfig, PoolLimits, ShardedGateway};
use simclock::{SimDuration, SimTime};
use std::collections::HashMap;

const APPS: [&str; 3] = ["alpha", "beta", "gamma"];

/// Per-key slots in `ShardedPool`'s lock-free table: a burst larger than
/// this puts containers in the overflow path.
const SLOTS_PER_KEY: usize = 128;

/// `n` apps with distinct, nonzero init costs and one shared runtime
/// configuration, so the pool treats them as a single runtime type.
fn apps(n: usize) -> Vec<AppProfile> {
    APPS[..n]
        .iter()
        .enumerate()
        .map(|(i, &name)| AppProfile {
            name,
            image: ImageId::parse("python:3.8-alpine"),
            app_init: SimDuration::from_millis(200 + 100 * i as u64),
            work: ExecWork::light(SimDuration::from_millis(20)),
        })
        .collect()
}

fn config(cap: usize) -> HotCConfig {
    HotCConfig {
        limits: PoolLimits::new(cap, 0.99),
        ..HotCConfig::default()
    }
}

fn engine(crash_rate: f64, seed: u64) -> ContainerEngine {
    let mut engine = ContainerEngine::with_local_images(HardwareProfile::server());
    if crash_rate > 0.0 {
        engine.set_fault_injection(crash_rate, seed);
    }
    engine
}

/// The rule the gateways followed when the last app lived in a side map:
/// app init is due on a runtime's first execution, or when the container
/// last ran a different app; every dispatch is recorded.
#[derive(Default)]
struct LastAppModel {
    last_app: HashMap<ContainerId, &'static str>,
}

impl LastAppModel {
    fn needs_app_init(&mut self, inflight: &InFlight, app: &'static str) -> bool {
        let prev = self.last_app.insert(inflight.container, app);
        inflight.first_exec || prev != Some(app)
    }
}

/// The begin/finish/tick surface both gateways share.
trait Drive {
    fn begin(&mut self, function: &str, now: SimTime) -> InFlight;
    fn finish(&mut self, inflight: InFlight);
    fn tick(&mut self, now: SimTime);
}

impl Drive for Gateway<HotC> {
    fn begin(&mut self, function: &str, now: SimTime) -> InFlight {
        Gateway::begin(self, function, now).unwrap()
    }
    fn finish(&mut self, inflight: InFlight) {
        Gateway::finish(self, inflight).unwrap();
    }
    fn tick(&mut self, now: SimTime) {
        Gateway::tick(self, now).unwrap();
    }
}

impl Drive for ShardedGateway {
    fn begin(&mut self, function: &str, now: SimTime) -> InFlight {
        ShardedGateway::begin(self, function, now).unwrap()
    }
    fn finish(&mut self, inflight: InFlight) {
        ShardedGateway::finish(self, inflight).unwrap();
    }
    fn tick(&mut self, now: SimTime) {
        ShardedGateway::tick(self, now).unwrap();
    }
}

/// What one random run exercised.
#[derive(Default)]
struct Coverage {
    switches: u64,
    repeats: u64,
    max_inflight: usize,
}

/// Drives one random sequence through `gw` and checks each request's
/// `init_latency > 0` against the model. Events run in time order: every
/// in-flight request whose `t4` has passed finishes before the next
/// arrival or tick.
fn run_lockstep(gw: &mut impl Drive, g: &mut testkit::Gen, n_apps: usize) -> Coverage {
    let mut model = LastAppModel::default();
    let mut cov = Coverage::default();
    let mut pending: Vec<InFlight> = Vec::new();
    let mut now = SimTime::ZERO;
    let steps = g.usize_in(50..150);
    for _ in 0..steps {
        match g.u64_in(0..10) {
            0..=4 => {
                // Mostly single arrivals; now and then a burst of one key
                // past the slot array.
                let burst = if g.u64_in(0..25) == 0 {
                    g.usize_in(SLOTS_PER_KEY + 1..SLOTS_PER_KEY + 24)
                } else {
                    1
                };
                for _ in 0..burst {
                    let app = APPS[g.usize_in(0..n_apps)];
                    let inflight = gw.begin(app, now);
                    let want = model.needs_app_init(&inflight, app);
                    assert_eq!(
                        !inflight.init_latency.is_zero(),
                        want,
                        "{app} on {:?} at {now}: first_exec {}",
                        inflight.container,
                        inflight.first_exec
                    );
                    if !want {
                        cov.repeats += 1;
                    } else if !inflight.first_exec {
                        cov.switches += 1;
                    }
                    pending.push(inflight);
                }
                cov.max_inflight = cov.max_inflight.max(pending.len());
            }
            5..=8 => {
                now += SimDuration::from_millis(g.u64_in(0..45_000));
                pending.sort_by_key(|f| std::cmp::Reverse(f.t4_func_end));
                while pending.last().is_some_and(|f| f.t4_func_end <= now) {
                    gw.finish(pending.pop().unwrap());
                }
            }
            _ => gw.tick(now),
        }
    }
    pending.sort_by_key(|f| std::cmp::Reverse(f.t4_func_end));
    while let Some(f) = pending.pop() {
        gw.finish(f);
    }
    cov
}

struct Case {
    n_apps: usize,
    cap: usize,
    crash_rate: f64,
    seed: u64,
}

fn case(g: &mut testkit::Gen) -> Case {
    Case {
        n_apps: g.usize_in(2..4),
        cap: g.usize_in(2..6),
        crash_rate: *g.pick(&[0.0, 0.05, 0.2]),
        seed: g.u64_in(1..1_000),
    }
}

#[test]
fn prop_gateway_app_init_matches_last_app_model() {
    let mut total = Coverage::default();
    testkit::check(24, |g| {
        let c = case(g);
        let mut gw = Gateway::new(engine(c.crash_rate, c.seed), HotC::new(config(c.cap)));
        for app in apps(c.n_apps) {
            gw.register_app(app);
        }
        let cov = run_lockstep(&mut gw, g, c.n_apps);
        total.switches += cov.switches;
        total.repeats += cov.repeats;
    });
    assert!(total.switches > 0, "no run reused a container across apps");
    assert!(
        total.repeats > 0,
        "no run reused a container for the same app"
    );
}

#[test]
fn prop_sharded_gateway_app_init_matches_last_app_model() {
    let mut total = Coverage::default();
    testkit::check(24, |g| {
        let c = case(g);
        let mut gw = ShardedGateway::new(engine(c.crash_rate, c.seed), config(c.cap));
        for app in apps(c.n_apps) {
            gw.register_app(app);
        }
        let cov = run_lockstep(&mut gw, g, c.n_apps);
        total.switches += cov.switches;
        total.repeats += cov.repeats;
        total.max_inflight = total.max_inflight.max(cov.max_inflight);
    });
    assert!(total.switches > 0, "no run reused a container across apps");
    assert!(
        total.repeats > 0,
        "no run reused a container for the same app"
    );
    assert!(
        total.max_inflight > SLOTS_PER_KEY,
        "no run reached the overflow path"
    );
}
