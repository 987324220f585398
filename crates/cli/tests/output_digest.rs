//! Cross-commit byte-identity pin for the report and metrics JSON.
//!
//! The determinism suite proves two runs in one build agree; this test
//! proves the bytes do not change *across* builds. It runs a small many-key
//! synthesized day — thousands of functions over the 500-container pool
//! cap, so cold starts evict and thousands of `fn/` and `key/` scopes reach
//! the snapshot — and compares an FNV-1a digest of the verbose report plus
//! the metrics JSON with a value recorded before the telemetry layer last
//! changed. A change that is meant to alter the output must update
//! `EXPECTED_DIGEST` and say why; a telemetry refactor must not.

use hotc_cli::{run_scenario, Scenario};
use stdshim::ToJson;

const MANY_KEYS: &str = "\
hardware = server
provider = hotc
seed     = 4242
tick     = 60s

[function tier-a]
app      = random-number
replicas = 1800

[function tier-b]
app      = qr-code
lang     = python
replicas = 1200

[workload]
pattern  = synth
requests = 10000
keys     = 3000
duration = 240m
zipf     = 1.0
shape    = diurnal
peak     = 3.0
";

/// FNV-1a over the verbose report, a 0xff separator, and the metrics JSON.
fn digest(rendered: &str, metrics_json: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in rendered.bytes().chain([0xff]).chain(metrics_json.bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// HotC's default live-container cap.
const POOL_CAP: usize = 500;

const EXPECTED_DIGEST: u64 = 0x4800_956f_eaa0_2ef8;

#[test]
fn many_key_report_and_metrics_bytes_are_pinned() {
    let scenario = Scenario::parse(MANY_KEYS).expect("scenario parses");
    let report = run_scenario(&scenario).expect("scenario runs");
    // More functions ran than the cap holds, and the live pool reached
    // the cap: later cold starts had to evict.
    let ran = report
        .metrics
        .stages
        .iter()
        .filter(|(scope, _)| scope.starts_with("fn/"))
        .count();
    let peak_live = report
        .metrics
        .series
        .iter()
        .find(|(name, _)| name == "pool/live")
        .map(|(_, s)| s.points().iter().map(|&(_, v)| v).fold(0.0, f64::max))
        .expect("pool/live series");
    assert!(ran > POOL_CAP, "only {ran} functions ran");
    assert_eq!(peak_live, POOL_CAP as f64, "the pool never reached its cap");
    let json = report.metrics.to_json().to_pretty_string();
    let got = digest(&report.render(true), &json);
    assert_eq!(
        got, EXPECTED_DIGEST,
        "report + metrics JSON bytes changed: digest {got:#018x}"
    );
}
