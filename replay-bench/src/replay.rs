//! One replay of a scenario, in three timed phases: setup, replay, report.
//!
//! The untraced run is the program as `hotc-sim` runs it: `hotc::HotC`
//! behind `faas::Gateway`, driven by `hotc_bench::run_trace`. The traced run
//! swaps in [`TracedHotC`] and [`replay_traced`], a copy of the streaming
//! driver loop that times each call it makes. Both fold finished requests
//! into the same report `hotc_cli::run_scenario` builds, and both end with a
//! digest over the rendered report and the metrics JSON.

use crate::provider::{Span, TracedHotC};
use containersim::ContainerEngine;
use faas::gateway::Gateway;
use faas::{AppProfile, FunctionSpec, InFlight, RequestTrace, RuntimeProvider};
use hotc::{HotC, HotCConfig};
use hotc_cli::scenario::{FunctionDecl, ProviderSpec};
use hotc_cli::{build_trace, Scenario, ScenarioReport, LATENCY_DETAIL_CAP};
use metrics_lite::LatencyHistogram;
use simclock::{SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;
use stdshim::ToJson as _;
use workloads::trace::Trace;

/// What one replay measured and produced.
#[derive(Debug, Clone)]
pub struct Record {
    /// Host seconds to parse the scenario, build the trace and the gateway.
    pub setup_s: f64,
    /// Host seconds of the replay loop.
    pub replay_s: f64,
    /// Host seconds to snapshot metrics, render the report and the JSON.
    pub report_s: f64,
    /// Arrivals pulled from the trace.
    pub arrivals: u64,
    /// Requests the report aggregated.
    pub finished: u64,
    /// The `gateway/requests` counter.
    pub counter_requests: u64,
    /// The `gateway/cold_starts` counter.
    pub counter_cold_starts: u64,
    /// Requests whose function process failed.
    pub failed: u64,
    /// The report's cold-start fraction.
    pub cold_start_frac: f64,
    /// Simulated mean latency (ms).
    pub sim_mean_ms: f64,
    /// Simulated median latency (ms).
    pub sim_p50_ms: f64,
    /// Simulated p99 latency (ms).
    pub sim_p99_ms: f64,
    /// Mean of the `pool/live` samples taken at every tick.
    pub mean_live_containers: f64,
    /// Largest `pool/live` sample.
    pub peak_live: usize,
    /// Most requests in flight at once.
    pub max_inflight: usize,
    /// Containers the pool limits evicted.
    pub evictions: u64,
    /// Digest over the rendered report and the metrics JSON.
    pub digest: u64,
    /// Per-layer metrics: every layer for a traced run, only the report
    /// phase's for an untraced one.
    pub layers: Vec<(&'static str, f64)>,
}

impl Record {
    /// Setup plus replay plus report.
    pub fn total_s(&self) -> f64 {
        self.setup_s + self.replay_s + self.report_s
    }

    /// Simulated requests completed per host second of replay.
    pub fn replay_req_per_s(&self) -> f64 {
        self.finished as f64 / self.replay_s
    }
}

/// Checks that hold for every correct replay: every arrival pulled finished
/// and was counted once, the counters agree with the report, and the report
/// and metrics JSON hash to `expected`, the digest of
/// [`reference_digest`].
pub fn check_outputs(r: &Record, expected: u64) -> Result<(), String> {
    if r.digest != expected {
        return Err(format!(
            "digest {:016x} differs from run_scenario's {expected:016x}",
            r.digest
        ));
    }
    if r.finished != r.arrivals || r.counter_requests != r.arrivals {
        return Err(format!(
            "request accounting differs: {} arrivals pulled, {} finished, gateway/requests = {}",
            r.arrivals, r.finished, r.counter_requests
        ));
    }
    let counted = r.counter_cold_starts as f64 / r.counter_requests as f64;
    if counted != r.cold_start_frac {
        return Err(format!(
            "gateway/cold_starts / requests = {counted} but the report says {}",
            r.cold_start_frac
        ));
    }
    Ok(())
}

/// FNV-1a over the rendered report, a separator, and the metrics JSON.
pub fn digest(rendered: &str, metrics_json: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let bytes = rendered.bytes().chain([0xff]).chain(metrics_json.bytes());
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The digest of `hotc_cli::run_scenario` on the same scenario: the
/// program's own assembly, which both benchmark runs must reproduce.
pub fn reference_digest(text: &str) -> Result<u64, String> {
    let scenario = Scenario::parse(text).map_err(|e| format!("scenario: {e}"))?;
    let report = hotc_cli::run_scenario(&scenario)?;
    let json = report.metrics.to_json().to_pretty_string();
    Ok(digest(&report.render(false), &json))
}

/// Replays the scenario as `hotc-sim` does, timing only the three phases.
pub fn run_untraced(text: &str) -> Result<Record, String> {
    let start = Instant::now();
    let mut setup = Setup::new(text, HotC::new(HotCConfig::default()))?;
    let setup_s = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let mut agg = ReportAggregator::new();
    let names = &setup.names;
    let out = hotc_bench::run_trace(
        setup.gateway,
        setup.trace.as_mut(),
        |config_id| names[config_id % names.len()].clone(),
        setup.tick,
        |seq, t| agg.observe(seq, t),
    );
    if let Some(e) = out.trace_error {
        return Err(format!("trace source error: {e}"));
    }
    let replay_s = start.elapsed().as_secs_f64();

    let live: Vec<usize> = out.live_samples.iter().map(|&(_, n)| n).collect();
    let replay = Replayed {
        arrivals: out.requests,
        live,
        max_inflight: out.max_inflight,
    };
    finish(agg, &out.gateway, replay, setup_s, replay_s)
}

/// Replays the scenario through [`TracedHotC`] and [`replay_traced`], and
/// breaks the host time down by layer.
pub fn run_traced(text: &str) -> Result<Record, String> {
    let start = Instant::now();
    let mut setup = Setup::new(text, TracedHotC::new(HotCConfig::default()))?;
    let setup_s = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let mut agg = ReportAggregator::new();
    let (gateway, replay, spans) = replay_traced(
        setup.gateway,
        setup.trace.as_mut(),
        &setup.names,
        setup.tick,
        &mut agg,
    )?;
    let replay_s = start.elapsed().as_secs_f64();

    let mut record = finish(agg, &gateway, replay, setup_s, replay_s)?;
    record.layers = layer_metrics(&setup.spans, &spans, &gateway.provider().spans, &record);
    Ok(record)
}

/// Timings of the setup phase, taken in both runs.
#[derive(Debug, Clone, Copy, Default)]
struct SetupSpans {
    parse: Span,
    build_trace: Span,
    register: Span,
}

struct Setup<P: RuntimeProvider> {
    gateway: Gateway<P>,
    trace: Box<dyn Trace>,
    names: Vec<String>,
    tick: SimDuration,
    spans: SetupSpans,
}

impl<P: RuntimeProvider> Setup<P> {
    /// Parses the scenario, builds its arrival stream, and registers every
    /// function slot on a fresh gateway, as `hotc_cli::run_scenario` does.
    fn new(text: &str, provider: P) -> Result<Self, String> {
        let mut spans = SetupSpans::default();
        let scenario = spans
            .parse
            .time(|| Scenario::parse(text))
            .map_err(|e| format!("scenario: {e}"))?;
        if scenario.provider != ProviderSpec::HotC {
            return Err("the benchmark replays provider = hotc only".into());
        }
        let slots: usize = scenario.functions.iter().map(|f| f.replicas).sum();
        let trace = spans.build_trace.time(|| {
            let mut trace = build_trace(&scenario.workload, slots, scenario.seed)?;
            match trace.peek() {
                Some(_) => Ok(trace),
                None => Err(trace
                    .take_error()
                    .unwrap_or_else(|| "workload generated no arrivals".into())),
            }
        })?;
        let (gateway, names) = spans.register.time(|| build_gateway(provider, &scenario))?;
        Ok(Setup {
            gateway,
            trace,
            names,
            tick: scenario.tick,
            spans,
        })
    }
}

fn build_app(decl: &FunctionDecl) -> Result<AppProfile, String> {
    match decl.app.as_str() {
        "random-number" => Ok(AppProfile::random_number()),
        "qr-code" => Ok(AppProfile::qr_code(decl.lang)),
        other => Err(format!(
            "app '{other}' is not used by any benchmark workload"
        )),
    }
}

/// Registers `name#i` for each replica with a distinct `HOTC_REPLICA` env
/// var, the slot layout `hotc_cli` routes `config_id % slots` over.
fn build_gateway<P: RuntimeProvider>(
    provider: P,
    scenario: &Scenario,
) -> Result<(Gateway<P>, Vec<String>), String> {
    let mut engine = ContainerEngine::with_local_images(scenario.hardware.clone());
    if scenario.crash_rate > 0.0 {
        engine.set_fault_injection(scenario.crash_rate, scenario.seed);
    }
    let mut gateway = Gateway::new(engine, provider);
    let mut names = Vec::new();
    for decl in &scenario.functions {
        let app = build_app(decl)?;
        for i in 0..decl.replicas {
            let name = if decl.replicas == 1 {
                decl.name.clone()
            } else {
                format!("{}#{i}", decl.name)
            };
            let mut config = app.config_with_network(decl.network);
            for (k, v) in &decl.env {
                config.exec.env.insert(k.clone(), v.clone());
            }
            if decl.replicas > 1 {
                config
                    .exec
                    .env
                    .insert("HOTC_REPLICA".to_string(), i.to_string());
            }
            gateway.register(
                FunctionSpec::from_app(app.clone())
                    .named(name.clone())
                    .with_config(config),
            );
            names.push(name);
        }
    }
    Ok((gateway, names))
}

/// The replay facts both loops report.
struct Replayed {
    arrivals: u64,
    live: Vec<usize>,
    max_inflight: usize,
}

/// Builds the report as `hotc_cli` does, timing the snapshot and the JSON,
/// and fills the record.
fn finish<P: RuntimeProvider>(
    agg: ReportAggregator,
    gateway: &Gateway<P>,
    replay: Replayed,
    setup_s: f64,
    replay_s: f64,
) -> Result<Record, String> {
    let start = Instant::now();
    let (mut snapshot_span, mut to_json_span) = (Span::default(), Span::default());
    let failed = agg.failed;
    let snapshot = snapshot_span.time(|| gateway.metrics().snapshot());
    let report = agg.finish(
        gateway.engine().live_count(),
        gateway.provider().background_cost(),
        snapshot,
    );
    let rendered = report.render(false);
    let json = to_json_span.time(|| report.metrics.to_json().to_pretty_string());
    let report_s = start.elapsed().as_secs_f64();

    let counter = |name: &str| {
        report
            .metrics
            .counter(name)
            .ok_or_else(|| format!("metrics snapshot has no {name} counter"))
    };
    let live = &replay.live;
    Ok(Record {
        setup_s,
        replay_s,
        report_s,
        arrivals: replay.arrivals,
        finished: report.requests as u64,
        counter_requests: counter("gateway/requests")?,
        counter_cold_starts: counter("gateway/cold_starts")?,
        failed,
        cold_start_frac: report.cold_fraction,
        sim_mean_ms: report.mean_ms,
        sim_p50_ms: report.p50_ms,
        sim_p99_ms: report.p99_ms,
        mean_live_containers: live.iter().sum::<usize>() as f64 / live.len().max(1) as f64,
        peak_live: live.iter().copied().max().unwrap_or(0),
        max_inflight: replay.max_inflight,
        evictions: gateway.provider().forced_evictions(),
        digest: digest(&rendered, &json),
        layers: vec![
            ("metrics.snapshot.ns", snapshot_span.ns as f64),
            ("metrics.to_json.ns", to_json_span.ns as f64),
        ],
    })
}

/// Timings of the calls the traced loop makes.
#[derive(Debug, Clone, Copy, Default)]
pub struct LoopSpans {
    /// `Gateway::begin`, including the provider's acquire.
    pub begin: Span,
    /// `Gateway::finish`, including the provider's release.
    pub finish: Span,
    /// `Gateway::tick`, including the controller and limits.
    pub tick: Span,
    /// `Trace::next_arrival`.
    pub next_arrival: Span,
    /// The whole loop.
    pub loop_ns: u64,
}

/// A pending finish, ordered by `(t4, arrival seq)` as in the program's
/// streaming driver.
struct FinishAt {
    at: SimTime,
    seq: u64,
    inflight: InFlight,
}

impl PartialEq for FinishAt {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl Eq for FinishAt {}
impl PartialOrd for FinishAt {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for FinishAt {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// The event loop of `hotc_bench::run_trace`, with each call into the trace
/// and the gateway timed. At equal instants a tick runs before an arrival,
/// and an arrival before a finish; finishes run in `(t4, seq)` order; ticks
/// continue to two intervals past the last arrival.
fn replay_traced(
    mut gateway: Gateway<TracedHotC>,
    trace: &mut dyn Trace,
    names: &[String],
    tick_interval: SimDuration,
    agg: &mut ReportAggregator,
) -> Result<(Gateway<TracedHotC>, Replayed, LoopSpans), String> {
    let start = Instant::now();
    let mut spans = LoopSpans::default();
    let mut live = Vec::new();
    let mut pending: BinaryHeap<Reverse<FinishAt>> = BinaryHeap::new();
    let mut next_tick = SimTime::ZERO;
    let mut ticks_done = false;
    let mut last_arrival_at: Option<SimTime> = None;
    let mut seq: u64 = 0;
    let mut max_inflight = 0usize;

    loop {
        let tick_at = (!ticks_done).then_some(next_tick);
        let arrival_at = trace.peek().map(|a| a.at);
        let finish_at = pending.peek().map(|Reverse(f)| f.at);
        let candidates = [
            tick_at.map(|t| (t, 0u8)),
            arrival_at.map(|t| (t, 1u8)),
            finish_at.map(|t| (t, 2u8)),
        ];
        let Some(&(now, class)) = candidates.iter().flatten().min() else {
            break;
        };
        match class {
            0 => {
                spans
                    .tick
                    .time(|| gateway.tick(now))
                    .map_err(|e| format!("tick: {e}"))?;
                let n = gateway.engine().live_count();
                gateway.metrics().sample_series("pool/live", now, n as f64);
                live.push(n);
                next_tick += tick_interval;
                if arrival_at.is_none() {
                    let horizon = last_arrival_at
                        .map(|last| last + tick_interval * 2)
                        .unwrap_or(SimTime::ZERO);
                    if next_tick > horizon {
                        ticks_done = true;
                    }
                }
            }
            1 => {
                let arrival = spans
                    .next_arrival
                    .time(|| trace.next_arrival())
                    .ok_or("the trace retracted a peeked arrival")?;
                if last_arrival_at.is_some_and(|t| arrival.at < t) {
                    return Err("trace is not time-ordered".into());
                }
                last_arrival_at = Some(arrival.at);
                let function = names[arrival.config_id % names.len()].clone();
                let inflight = spans
                    .begin
                    .time(|| gateway.begin(&function, now))
                    .map_err(|e| format!("begin: {e}"))?;
                pending.push(Reverse(FinishAt {
                    at: inflight.t4_func_end,
                    seq,
                    inflight,
                }));
                max_inflight = max_inflight.max(pending.len());
                seq += 1;
            }
            _ => {
                let Reverse(f) = pending.pop().ok_or("no pending finish")?;
                let done = spans
                    .finish
                    .time(|| gateway.finish(f.inflight))
                    .map_err(|e| format!("finish: {e}"))?;
                agg.observe(f.seq, &done);
            }
        }
    }
    if let Some(e) = trace.take_error() {
        return Err(format!("trace source error: {e}"));
    }
    spans.loop_ns = start.elapsed().as_nanos() as u64;
    let replay = Replayed {
        arrivals: seq,
        live,
        max_inflight,
    };
    Ok((gateway, replay, spans))
}

/// Names and values of the traced run's per-layer metrics. A layer's self
/// time is its calls' time minus the timed calls made inside them.
fn layer_metrics(
    phase: &SetupSpans,
    lp: &LoopSpans,
    p: &crate::provider::ProviderSpans,
    r: &Record,
) -> Vec<(&'static str, f64)> {
    let acquire_ns = p.acquire_warm.ns + p.acquire_cold.ns + p.enforce.ns;
    let named_ns = lp.begin.ns + lp.finish.ns + lp.tick.ns + lp.next_arrival.ns;
    let cold_starts = p.acquire_cold.calls.max(1) as f64;
    let acquires = (p.acquire_warm.calls + p.acquire_cold.calls).max(1) as f64;
    let mut out = vec![
        ("setup.parse.ns", phase.parse.ns as f64),
        ("setup.build_trace.ns", phase.build_trace.ns as f64),
        ("setup.register.ns", phase.register.ns as f64),
        ("trace.next_arrival.ns", lp.next_arrival.ns as f64),
        ("trace.next_arrival.calls", lp.next_arrival.calls as f64),
        (
            "driver.loop.self_ns",
            lp.loop_ns.saturating_sub(named_ns) as f64,
        ),
        ("driver.max_inflight", r.max_inflight as f64),
        (
            "gateway.begin.self_ns",
            lp.begin.ns.saturating_sub(acquire_ns) as f64,
        ),
        ("gateway.begin.calls", lp.begin.calls as f64),
        (
            "gateway.finish.self_ns",
            lp.finish.ns.saturating_sub(p.release.ns) as f64,
        ),
        (
            "gateway.tick.self_ns",
            lp.tick
                .ns
                .saturating_sub(p.controller.ns + p.enforce_tick.ns) as f64,
        ),
        ("pool.acquire_warm.ns", p.acquire_warm.ns as f64),
        ("pool.acquire_warm.calls", p.acquire_warm.calls as f64),
        ("pool.acquire_cold.ns", p.acquire_cold.ns as f64),
        ("pool.acquire_cold.calls", p.acquire_cold.calls as f64),
        ("pool.release.ns", p.release.ns as f64),
        ("pool.release.calls", p.release.calls as f64),
        (
            "pool.warm_hit_ratio",
            p.acquire_warm.calls as f64 / acquires,
        ),
        ("limits.enforce.ns", p.enforce.ns as f64),
        ("limits.enforce.calls", p.enforce.calls as f64),
        ("limits.enforce_tick.ns", p.enforce_tick.ns as f64),
        ("limits.evictions", r.evictions as f64),
        (
            "limits.evictions_per_cold_start",
            r.evictions as f64 / cold_starts,
        ),
        ("controller.step.ns", p.controller.ns as f64),
        ("controller.step.calls", p.controller_steps as f64),
        (
            "trace.attributed_frac",
            named_ns as f64 / lp.loop_ns.max(1) as f64,
        ),
    ];
    out.extend(r.layers.iter().copied());
    out
}

/// The request fold of `hotc_cli`'s report: a latency histogram, exact
/// per-request detail up to [`LATENCY_DETAIL_CAP`], and the tallies.
struct ReportAggregator {
    hist: LatencyHistogram,
    detail: Vec<(u64, f64)>,
    detailed: bool,
    total_ns: u128,
    count: u64,
    failed: u64,
    cold: u64,
}

impl ReportAggregator {
    fn new() -> Self {
        ReportAggregator {
            hist: LatencyHistogram::new(),
            detail: Vec::new(),
            detailed: true,
            total_ns: 0,
            count: 0,
            failed: 0,
            cold: 0,
        }
    }

    fn observe(&mut self, seq: u64, t: &RequestTrace) {
        let total = t.total();
        self.count += 1;
        self.total_ns += total.as_nanos() as u128;
        self.hist.record(total);
        self.failed += t.failed as u64;
        self.cold += t.cold as u64;
        if self.detailed {
            if self.detail.len() == LATENCY_DETAIL_CAP {
                self.detailed = false;
                self.detail = Vec::new();
            } else {
                self.detail.push((seq, total.as_millis_f64()));
            }
        }
    }

    fn finish(
        mut self,
        live_at_end: usize,
        background: SimDuration,
        metrics: metrics_lite::MetricsSnapshot,
    ) -> ScenarioReport {
        let count = self.count.max(1) as f64;
        let mean_ns = (self.total_ns / self.count.max(1) as u128) as u64;
        let (p50, p99) = if self.count == 0 {
            (SimDuration::ZERO, SimDuration::ZERO)
        } else {
            (self.hist.quantile(0.5), self.hist.quantile(0.99))
        };
        self.detail.sort_by_key(|(seq, _)| *seq);
        ScenarioReport {
            requests: self.count as usize,
            mean_ms: SimDuration::from_nanos(mean_ns).as_millis_f64(),
            p50_ms: p50.as_millis_f64(),
            p99_ms: p99.as_millis_f64(),
            cold_fraction: self.cold as f64 / count,
            failed_fraction: self.failed as f64 / count,
            live_at_end,
            background_s: background.as_secs_f64(),
            latencies_ms: self.detail.into_iter().map(|(_, ms)| ms).collect(),
            metrics,
            limits_coupled: false,
        }
    }
}
