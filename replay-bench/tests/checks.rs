//! The benchmark's own checks, at reduced size. Run in release mode:
//! `cargo test --release --offline --manifest-path replay-bench/Cargo.toml`.

use hotc_cli::Scenario;
use hotc_replay_bench::replay::{self, check_outputs, digest, Record};
use hotc_replay_bench::{workload, WORKLOADS};
use stdshim::ToJson as _;

/// Runs a scenario untraced, traced and through `hotc_cli::run_scenario`,
/// and asserts that all three produce one digest.
fn replay_all_three(text: &str) -> (Record, Record, u64) {
    let expected = replay::reference_digest(text).expect("reference run");
    let plain = replay::run_untraced(text).expect("untraced run");
    let traced = replay::run_traced(text).expect("traced run");
    assert_eq!(
        plain.digest, expected,
        "untraced digest differs from run_scenario"
    );
    assert_eq!(
        traced.digest, expected,
        "traced digest differs from run_scenario"
    );
    (plain, traced, expected)
}

fn layer(r: &Record, name: &str) -> f64 {
    r.layers
        .iter()
        .find(|(k, _)| *k == name)
        .unwrap_or_else(|| panic!("no layer metric {name}"))
        .1
}

#[test]
fn each_workload_passes_its_checks_at_reduced_size() {
    // The crowd's arrival rate is requests over a fixed window: below about
    // 3.6e5 requests it no longer pushes pool/live over the cap, so that
    // workload shrinks least.
    for (name, requests) in [
        ("zipf_10k_evict", 20_000),
        ("hot_set_warm", 100_000),
        ("flash_crowd_cap", 380_000),
    ] {
        let w = workload(name).expect("known workload");
        assert!(
            requests < w.requests,
            "{name}: the test runs a reduced size"
        );
        let text = w.scenario(7, requests);
        let (plain, traced, expected) = replay_all_three(&text);
        w.check(&plain, expected)
            .unwrap_or_else(|e| panic!("untraced {name}: {e}"));
        w.check(&traced, expected)
            .unwrap_or_else(|e| panic!("traced {name}: {e}"));
        assert_eq!(plain.finished, requests);
    }
}

#[test]
fn traced_provider_matches_hotc_where_limits_and_controller_fire() {
    // 900 keys over the 500-container cap in one busy hour: cold starts
    // evict, and the controller steps on every 60 s tick.
    let text = "hardware = server\nprovider = hotc\nseed = 5\ntick = 60s\n\n\
                [function f]\napp = random-number\nreplicas = 900\n\n\
                [workload]\npattern = synth\nrequests = 6000\nkeys = 900\n\
                duration = 60m\nzipf = 1.1\nshape = diurnal\npeak = 3.0\n";
    let (plain, traced, expected) = replay_all_three(text);
    check_outputs(&plain, expected).expect("untraced checks");
    check_outputs(&traced, expected).expect("traced checks");
    assert!(
        layer(&traced, "limits.evictions") > 0.0,
        "limits never fired"
    );
    assert!(
        layer(&traced, "controller.step.calls") > 0.0,
        "controller never stepped"
    );
    assert_eq!(traced.evictions, plain.evictions);
}

#[test]
fn traced_run_reports_every_declared_per_layer_metric() {
    let spec = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let spec = stdshim::JsonValue::parse(&spec).expect("BENCHMARK.json parses");
    let declared: Vec<&str> = spec
        .get("per_layer")
        .and_then(|v| v.as_array())
        .expect("per_layer list")
        .iter()
        .map(|m| m.get("name").and_then(|n| n.as_str()).expect("metric name"))
        .collect();
    let w = &WORKLOADS[1];
    let traced = replay::run_traced(&w.scenario(3, 20_000)).expect("traced run");
    let mut produced: Vec<&str> = traced.layers.iter().map(|(k, _)| *k).collect();
    // Computed by run.py from the traced and untraced replay times.
    produced.push("trace.overhead_frac");
    produced.sort_unstable();
    let mut declared = declared;
    declared.sort_unstable();
    assert_eq!(produced, declared);
}

#[test]
fn a_dropped_request_fails_the_check() {
    let text = workload("hot_set_warm").expect("known").scenario(3, 5_000);
    let expected = replay::reference_digest(&text).expect("reference run");
    let good = replay::run_untraced(&text).expect("untraced run");
    check_outputs(&good, expected).expect("an intact run passes");

    let mut dropped = good.clone();
    dropped.finished -= 1;
    assert!(check_outputs(&dropped, expected).is_err());

    let mut uncounted = good.clone();
    uncounted.counter_requests -= 1;
    assert!(check_outputs(&uncounted, expected).is_err());

    let mut cold = good;
    cold.counter_cold_starts += 1;
    assert!(check_outputs(&cold, expected).is_err());
}

#[test]
fn a_changed_metrics_json_fails_the_check() {
    let text = workload("hot_set_warm").expect("known").scenario(3, 5_000);
    let report = hotc_cli::run_scenario(&Scenario::parse(&text).expect("parses")).expect("runs");
    let rendered = report.render(false);
    let json = report.metrics.to_json().to_pretty_string();
    let mut record = replay::run_untraced(&text).expect("untraced run");
    let expected = record.digest;

    record.digest = digest(&rendered, &json);
    check_outputs(&record, expected).expect("the digest covers the report and JSON");

    let changed = json.replacen(
        "\"gateway/requests\": 5000",
        "\"gateway/requests\": 4999",
        1,
    );
    assert_ne!(changed, json, "the JSON holds the request counter");
    record.digest = digest(&rendered, &changed);
    assert!(check_outputs(&record, expected).is_err());
}
