//! End-to-end request-path benchmarks: the real CPU cost of serving one
//! request through gateway + watchdog + engine, warm vs cold, per provider.

use containersim::{ContainerEngine, HardwareProfile};
use faas::policy::{ColdStartAlways, FixedKeepAlive};
use faas::{AppProfile, Gateway, RuntimeProvider};
use hotc::HotC;
use hotc_bench::Harness;
use simclock::{SimDuration, SimTime};
use std::hint::black_box;

fn hotc_gateway() -> Gateway<HotC> {
    let engine = ContainerEngine::with_local_images(HardwareProfile::server());
    let mut gw = Gateway::new(engine, HotC::with_defaults());
    gw.register_app(AppProfile::random_number());
    gw
}

fn bench_warm_request(h: &mut Harness) {
    {
        let mut gw = hotc_gateway();
        gw.handle("random-number", SimTime::ZERO).unwrap(); // prime
        let mut now = SimTime::from_secs(1);
        h.bench("warm_request/hotc", || {
            now += SimDuration::from_millis(100);
            black_box(gw.handle("random-number", now).unwrap())
        });
    }
    {
        let engine = ContainerEngine::with_local_images(HardwareProfile::server());
        let mut gw = Gateway::new(engine, FixedKeepAlive::aws_default());
        gw.register_app(AppProfile::random_number());
        gw.handle("random-number", SimTime::ZERO).unwrap();
        let mut now = SimTime::from_secs(1);
        h.bench("warm_request/fixed-keepalive", || {
            now += SimDuration::from_millis(100);
            black_box(gw.handle("random-number", now).unwrap())
        });
    }
}

fn bench_cold_request(h: &mut Harness) {
    // Cold path: every iteration creates and destroys a container.
    let engine = ContainerEngine::with_local_images(HardwareProfile::server());
    let mut gw = Gateway::new(engine, ColdStartAlways::new());
    gw.register_app(AppProfile::random_number());
    let mut now = SimTime::ZERO;
    h.bench("cold_request_cycle", || {
        now += SimDuration::from_secs(1);
        black_box(gw.handle("random-number", now).unwrap())
    });
}

fn bench_tick_with_large_pool(h: &mut Harness) {
    // Controller tick cost with a big, diverse pool (the per-interval
    // maintenance the paper's Algorithm 3 adds).
    h.bench_with_setup(
        "hotc_tick_100_types",
        || {
            let mut gw = hotc_gateway();
            for i in 0..100 {
                let app = AppProfile::random_number();
                let mut config = app.default_config();
                config.exec.env.insert("T".into(), i.to_string());
                gw.register(
                    faas::FunctionSpec::from_app(app)
                        .named(format!("fn-{i}"))
                        .with_config(config),
                );
            }
            for i in 0..100 {
                gw.handle(&format!("fn-{i}"), SimTime::from_millis(i))
                    .unwrap();
            }
            gw
        },
        |mut gw| {
            for k in 1..=10u64 {
                gw.tick(SimTime::from_secs(30 * k)).unwrap();
            }
            black_box(gw.engine().live_count());
            // Returned so the harness tears the gateway down outside the
            // timed span — the bench measures tick cost, not Drop.
            gw
        },
    );
}

fn bench_request_under_eviction(h: &mut Harness) {
    // The pool sits at its 500-container cap and every request is for a
    // runtime type that was evicted long ago: each iteration is one cold
    // begin, the forced oldest-first eviction it triggers, and a finish —
    // the per-request cost of a gateway serving churn at the cap.
    const CAP: u64 = 500;
    const KEYS: u64 = 2 * CAP;
    let mut gw = hotc_gateway();
    let names: Vec<String> = (0..KEYS).map(|i| format!("fn-{i}")).collect();
    for (i, name) in names.iter().enumerate() {
        let app = AppProfile::random_number();
        let mut config = app.default_config();
        config.exec.env.insert("T".into(), i.to_string());
        gw.register(
            faas::FunctionSpec::from_app(app)
                .named(name.clone())
                .with_config(config),
        );
    }
    let mut now = SimTime::ZERO;
    let mut i = 0usize;
    let mut request = move |gw: &mut Gateway<HotC>| {
        now += SimDuration::from_secs(1);
        i = (i + 1) % names.len();
        gw.handle(&names[i], now).unwrap()
    };
    // One pass over every key fills the pool to the cap and pays each
    // function's one-time costs (key interning, its `fn/` stage set) outside
    // the timed loop; then check that a request at the cap is cold and
    // evicts.
    for _ in 0..KEYS {
        request(&mut gw);
    }
    let evicted = gw.provider().forced_evictions();
    assert!(request(&mut gw).cold);
    assert_eq!(gw.provider().forced_evictions(), evicted + 1);
    assert_eq!(gw.engine().live_count() as u64, CAP);
    h.bench("request_under_eviction/500_cap", || request(&mut gw));
}

fn main() {
    let mut h = Harness::new("pipeline");
    bench_warm_request(&mut h);
    bench_cold_request(&mut h);
    bench_tick_with_large_pool(&mut h);
    bench_request_under_eviction(&mut h);
    h.finish();
}
