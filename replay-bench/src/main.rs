//! One replay per process, so that `VmHWM` is this replay's peak alone.
//!
//! ```text
//! hotc-replay-bench run --workload <name> --seed <n> --expect <digest> [--trace]
//! hotc-replay-bench reference --workload <name> --seed <n>
//! ```
//!
//! `run` prints one JSON line with the phase times, the time of the
//! host-speed probe run once before the replay and once after it
//! (`probe_s`, the sum of the two), the simulated outcome,
//! the digest, the output and workload checks (which compare the digest with
//! `--expect`, the `reference` digest), and (with `--trace`) the
//! per-layer metrics. `reference` prints the digest `hotc_cli::run_scenario`
//! gives for the same scenario.

use hotc_replay_bench::calibrate;
use hotc_replay_bench::replay::{self, Record};
use hotc_replay_bench::{workload, Workload};
use stdshim::JsonValue;

struct Args {
    command: String,
    workload: &'static Workload,
    seed: u64,
    trace: bool,
    expect: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let command = args.next().ok_or("missing command: run | reference")?;
    let (mut name, mut seed, mut trace, mut expect) = (None, None, false, None);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => name = Some(value()?),
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| e.to_string())?),
            "--trace" => trace = true,
            "--expect" => {
                expect = Some(u64::from_str_radix(&value()?, 16).map_err(|e| e.to_string())?)
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let name = name.ok_or("missing --workload")?;
    let workload = workload(&name).ok_or(format!("unknown workload '{name}'"))?;
    Ok(Args {
        command,
        workload,
        seed: seed.ok_or("missing --seed")?,
        trace,
        expect,
    })
}

/// This process's peak resident set (`VmHWM`), in kB.
fn vm_hwm_kb() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

fn record_json(r: &Record, check: Result<(), String>, vm_hwm_kb: u64, probe_s: f64) -> JsonValue {
    let num = |v: f64| JsonValue::Float(v);
    let int = |v: u64| JsonValue::Int(v as i64);
    JsonValue::object([
        (
            "check_error",
            check.err().map_or(JsonValue::Null, JsonValue::Str),
        ),
        ("digest", JsonValue::Str(format!("{:016x}", r.digest))),
        ("setup_s", num(r.setup_s)),
        ("replay_s", num(r.replay_s)),
        ("report_s", num(r.report_s)),
        ("total_s", num(r.total_s())),
        ("probe_s", num(probe_s)),
        ("replay_req_per_s", num(r.replay_req_per_s())),
        ("peak_rss_mb", num(vm_hwm_kb as f64 / 1024.0)),
        ("requests", int(r.finished)),
        ("failed", int(r.failed)),
        ("cold_start_frac", num(r.cold_start_frac)),
        (
            "failed_frac",
            num(r.failed as f64 / r.finished.max(1) as f64),
        ),
        ("sim_mean_ms", num(r.sim_mean_ms)),
        ("sim_p50_ms", num(r.sim_p50_ms)),
        ("sim_p99_ms", num(r.sim_p99_ms)),
        ("mean_live_containers", num(r.mean_live_containers)),
        ("peak_live", int(r.peak_live as u64)),
        ("max_inflight", int(r.max_inflight as u64)),
        ("evictions", int(r.evictions)),
        (
            "layers",
            JsonValue::object(r.layers.iter().map(|&(k, v)| (k, num(v)))),
        ),
    ])
}

fn main() {
    let result = parse_args().and_then(|args| {
        let text = args.workload.scenario(args.seed, args.workload.requests);
        match args.command.as_str() {
            "run" => {
                let expect = args.expect.ok_or("run needs --expect <reference digest>")?;
                let before = calibrate::probe_s();
                let record = if args.trace {
                    replay::run_traced(&text)?
                } else {
                    replay::run_untraced(&text)?
                };
                // The replay's peak, before the second probe can add to it.
                let peak_kb = vm_hwm_kb()?;
                let probe_s = before + calibrate::probe_s();
                let check = args.workload.check(&record, expect);
                Ok(record_json(&record, check, peak_kb, probe_s))
            }
            "reference" => {
                let digest = replay::reference_digest(&text)?;
                Ok(JsonValue::object([(
                    "digest",
                    JsonValue::Str(format!("{digest:016x}")),
                )]))
            }
            other => Err(format!("unknown command '{other}': run | reference")),
        }
    });
    match result {
        Ok(json) => println!("{json}"),
        Err(e) => {
            eprintln!("hotc-replay-bench: {e}");
            std::process::exit(1);
        }
    }
}
