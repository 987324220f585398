//! Discrete-event workload driver.
//!
//! Feeds a time-ordered [`Arrival`] sequence through a gateway. Requests
//! overlap naturally: each arrival `begin`s immediately and its `finish` is
//! scheduled at the request's `t4`, so simultaneous requests occupy separate
//! containers — exactly how the parallel/burst experiments must behave.
//! Provider maintenance (`tick`) runs at a fixed interval, *before* arrivals
//! that share the same instant (the controller acts at round boundaries).

use faas::gateway::Gateway;
use faas::{InFlight, RequestTrace, RuntimeProvider};
use simclock::{SimDuration, SimTime, Simulation};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use workloads::trace::{PartitionTrace, Trace};
use workloads::Arrival;

/// Result of driving a workload to completion.
pub struct RunOutcome<P: RuntimeProvider> {
    /// The gateway after the run (provider/engine inspection).
    pub gateway: Gateway<P>,
    /// One trace per arrival, in arrival order.
    pub traces: Vec<RequestTrace>,
    /// Virtual time at which the last event completed.
    pub finished_at: SimTime,
    /// Live-container count sampled at every tick — the resource-footprint
    /// timeline used by the policy comparisons.
    pub live_samples: Vec<(SimTime, usize)>,
}

impl<P: RuntimeProvider> RunOutcome<P> {
    /// Latencies in arrival order.
    pub fn latencies(&self) -> Vec<SimDuration> {
        self.traces.iter().map(|t| t.total()).collect()
    }

    /// Mean end-to-end latency.
    pub fn mean_latency(&self) -> SimDuration {
        if self.traces.is_empty() {
            return SimDuration::ZERO;
        }
        let total: SimDuration = self.traces.iter().map(|t| t.total()).sum();
        total / self.traces.len() as u64
    }

    /// Fraction of requests that cold-started.
    pub fn cold_fraction(&self) -> f64 {
        if self.traces.is_empty() {
            return 0.0;
        }
        self.traces.iter().filter(|t| t.cold).count() as f64 / self.traces.len() as f64
    }

    /// Fraction of requests whose function process crashed.
    pub fn failed_fraction(&self) -> f64 {
        if self.traces.is_empty() {
            return 0.0;
        }
        self.traces.iter().filter(|t| t.failed).count() as f64 / self.traces.len() as f64
    }

    /// Telemetry snapshot of the run: per-stage decomposition, counters,
    /// and the `pool/live` series sampled at every tick.
    pub fn metrics_snapshot(&self) -> metrics_lite::MetricsSnapshot {
        self.gateway.metrics().snapshot()
    }

    /// Mean live containers across the tick samples — a resource-footprint
    /// proxy ("container-hours") for comparing keep-warm policies.
    pub fn mean_live_containers(&self) -> f64 {
        if self.live_samples.is_empty() {
            return 0.0;
        }
        self.live_samples
            .iter()
            .map(|&(_, n)| n as f64)
            .sum::<f64>()
            / self.live_samples.len() as f64
    }
}

struct DriverState<P: RuntimeProvider> {
    gateway: Gateway<P>,
    traces: Vec<(usize, RequestTrace)>,
    live_samples: Vec<(SimTime, usize)>,
}

/// Drives `workload` through `gateway`. `route` maps an arrival's
/// `config_id` to the function name to invoke; `tick_interval` is the
/// provider maintenance cadence.
pub fn run_workload<P>(
    gateway: Gateway<P>,
    workload: &[Arrival],
    route: impl Fn(usize) -> String,
    tick_interval: SimDuration,
) -> RunOutcome<P>
where
    P: RuntimeProvider + 'static,
{
    assert!(
        workloads::is_time_ordered(workload),
        "workload must be time-ordered"
    );
    assert!(!tick_interval.is_zero(), "tick interval must be positive");

    let mut sim = Simulation::new(DriverState {
        gateway,
        traces: Vec::new(),
        live_samples: Vec::new(),
    });

    // Provider maintenance ticks, scheduled FIRST so that at equal
    // timestamps the tick precedes the arrivals (FIFO tie-break). The
    // horizon saturates at `SimTime::MAX`; ticking ends there or when the
    // next tick would overflow the clock.
    let horizon = workload
        .last()
        .map(|a| a.at + tick_interval * 2)
        .unwrap_or(SimTime::ZERO);
    let mut next = Some(SimTime::ZERO);
    while let Some(t) = next.filter(|&t| t <= horizon) {
        sim.schedule_at(t, move |s, st: &mut DriverState<P>| {
            st.gateway.tick(s.now()).expect("tick must not fail");
            let live = st.gateway.engine().live_count();
            st.gateway
                .metrics()
                .sample_series("pool/live", s.now(), live as f64);
            st.live_samples.push((s.now(), live));
        });
        next = t.checked_add(tick_interval);
    }

    for (idx, arrival) in workload.iter().enumerate() {
        let function = route(arrival.config_id);
        sim.schedule_at(arrival.at, move |s, st: &mut DriverState<P>| {
            let inflight = st
                .gateway
                .begin(&function, s.now())
                .expect("request must begin");
            s.schedule_at(inflight.t4_func_end, move |_, st: &mut DriverState<P>| {
                let trace = st.gateway.finish(inflight).expect("request must finish");
                st.traces.push((idx, trace));
            });
        });
    }

    sim.run();
    let finished_at = sim.now();
    let mut state = sim.into_state();
    state.traces.sort_by_key(|&(idx, _)| idx);
    let traces = state.traces.into_iter().map(|(_, t)| t).collect();
    RunOutcome {
        gateway: state.gateway,
        traces,
        finished_at,
        live_samples: state.live_samples,
    }
}

/// Result of streaming a [`Trace`] to completion. Unlike [`RunOutcome`],
/// there is no per-request trace vector: the whole point of the streaming
/// path is O(inflight) memory at 1e6–1e8 requests, so per-request data goes
/// through the `on_finish` callback instead.
pub struct TraceOutcome<P: RuntimeProvider> {
    /// The gateway after the run (provider/engine inspection).
    pub gateway: Gateway<P>,
    /// Total arrivals replayed.
    pub requests: u64,
    /// Virtual time at which the last event completed.
    pub finished_at: SimTime,
    /// Live-container count sampled at every tick.
    pub live_samples: Vec<(SimTime, usize)>,
    /// High-water mark of concurrently in-flight requests — the replay
    /// engine's own memory ceiling is O(this), not O(requests).
    pub max_inflight: usize,
    /// Error the trace source surfaced (file-backed sources); `None` for a
    /// clean end-of-stream.
    pub trace_error: Option<String>,
}

/// A pending finish event, ordered by `(t4, arrival seq)` — the same order
/// the materialized driver's FIFO event queue produces, since each finish is
/// scheduled the moment its arrival begins.
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

/// What the streaming event loop needs from an arrival source beyond
/// [`Trace`]: the *reported* sequence number of each arrival (a parallel
/// worker reports the arrival's global index in the underlying stream, so
/// finish tie-breaking and per-request callbacks match the sequential
/// driver), and the tick-horizon basis once the source is exhausted (a
/// worker that owns few — or zero — arrivals must still tick to the global
/// horizon, or merged `pool/live` series would diverge).
trait ReplaySource {
    /// Instant of the next arrival, without consuming it.
    fn peek_at(&mut self) -> Option<SimTime>;
    /// Pulls the next arrival together with its reported sequence number.
    fn next(&mut self) -> Option<(Arrival, u64)>;
    /// Timestamp of the underlying stream's last arrival, `None` if the
    /// stream was empty. Only meaningful once `peek_at` returns `None`,
    /// which is the only time the loop asks.
    fn horizon_basis(&self) -> Option<SimTime>;
    /// First error the source hit, if any.
    fn take_error(&mut self) -> Option<String>;
}

/// The sequential source: a plain trace with a local pull-index counter.
struct PlainSource<'a> {
    trace: &'a mut dyn Trace,
    seq: u64,
    last_at: Option<SimTime>,
}

impl ReplaySource for PlainSource<'_> {
    fn peek_at(&mut self) -> Option<SimTime> {
        self.trace.peek().map(|a| a.at)
    }
    fn next(&mut self) -> Option<(Arrival, u64)> {
        let a = self.trace.next_arrival()?;
        let s = self.seq;
        self.seq += 1;
        self.last_at = Some(a.at);
        Some((a, s))
    }
    fn horizon_basis(&self) -> Option<SimTime> {
        self.last_at
    }
    fn take_error(&mut self) -> Option<String> {
        self.trace.take_error()
    }
}

/// One parallel worker's source: a [`PartitionTrace`] reporting global
/// arrival indices and the global horizon basis.
struct PartSource<'a, T: Trace> {
    part: &'a mut PartitionTrace<T>,
}

impl<T: Trace> ReplaySource for PartSource<'_, T> {
    fn peek_at(&mut self) -> Option<SimTime> {
        self.part.peek().map(|a| a.at)
    }
    fn next(&mut self) -> Option<(Arrival, u64)> {
        self.part.next_indexed()
    }
    fn horizon_basis(&self) -> Option<SimTime> {
        self.part.horizon_basis()
    }
    fn take_error(&mut self) -> Option<String> {
        self.part.take_error()
    }
}

/// Streams `trace` through `gateway` without materializing it: arrivals are
/// pulled lazily, so resident memory is O(inflight + sources), independent of
/// request count.
///
/// Event semantics are *identical* to [`run_workload`] (verified by
/// equivalence tests): ticks run at every `tick_interval` from t=0 through
/// `last_arrival + 2×tick`, and at equal instants the order is
/// tick < arrival < finish, with arrivals in trace order and finishes in
/// `(t4, arrival seq)` order. `on_finish(seq, trace)` fires once per request
/// at its finish event, where `seq` is the arrival's 0-based pull index.
pub fn run_trace<P>(
    gateway: Gateway<P>,
    trace: &mut dyn Trace,
    route: impl Fn(usize) -> String,
    tick_interval: SimDuration,
    on_finish: impl FnMut(u64, &RequestTrace),
) -> TraceOutcome<P>
where
    P: RuntimeProvider + 'static,
{
    let mut source = PlainSource {
        trace,
        seq: 0,
        last_at: None,
    };
    run_trace_core(gateway, &mut source, route, tick_interval, on_finish)
}

/// Streams one worker's partition of a trace through that worker's own
/// gateway — the per-thread body of the parallel replay driver.
///
/// The event loop is the *same code* as [`run_trace`]; only the source
/// differs. `on_finish` receives the arrival's **global** index in the
/// underlying stream (not a worker-local count), so merged per-request data
/// sorts back into sequential arrival order, and finishes within this worker
/// tie-break by `(t4, global seq)` exactly as the sequential driver orders
/// the same subset. Ticks run at every `tick_interval` from t=0 through the
/// *global* horizon (`PartitionTrace` tracks the underlying stream's last
/// arrival), so every worker samples `pool/live` at the identical instants
/// and the merged series lines up point-for-point with the sequential one.
/// `TraceOutcome::requests` counts only this worker's arrivals.
pub fn run_trace_partition<P, T>(
    gateway: Gateway<P>,
    part: &mut PartitionTrace<T>,
    route: impl Fn(usize) -> String,
    tick_interval: SimDuration,
    on_finish: impl FnMut(u64, &RequestTrace),
) -> TraceOutcome<P>
where
    P: RuntimeProvider + 'static,
    T: Trace,
{
    let mut source = PartSource { part };
    run_trace_core(gateway, &mut source, route, tick_interval, on_finish)
}

/// Runs `worker(w)` for `w in 0..threads` on scoped OS threads and returns
/// the results in worker-index order — the deterministic reduction order the
/// parallel replay merge depends on. With one thread the worker runs inline
/// (the degenerate case exercises the same worker body with no spawn cost).
/// A worker panic propagates to the caller.
pub fn run_partitioned<W, F>(threads: usize, worker: F) -> Vec<W>
where
    W: Send,
    F: Fn(usize) -> W + Sync,
{
    assert!(threads >= 1, "need at least one replay worker");
    if threads == 1 {
        return vec![worker(0)];
    }
    std::thread::scope(|scope| {
        let worker = &worker;
        let handles: Vec<_> = (0..threads)
            .map(|w| scope.spawn(move || worker(w)))
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(v) => v,
                Err(panic) => std::panic::resume_unwind(panic),
            })
            .collect()
    })
}

fn run_trace_core<P, S>(
    gateway: Gateway<P>,
    source: &mut S,
    route: impl Fn(usize) -> String,
    tick_interval: SimDuration,
    mut on_finish: impl FnMut(u64, &RequestTrace),
) -> TraceOutcome<P>
where
    P: RuntimeProvider + 'static,
    S: ReplaySource,
{
    assert!(!tick_interval.is_zero(), "tick interval must be positive");

    let mut gateway = gateway;
    let mut live_samples = Vec::new();
    let mut pending: BinaryHeap<Reverse<FinishAt>> = BinaryHeap::new();
    let mut next_tick = SimTime::ZERO;
    let mut ticks_done = false;
    let mut last_arrival_at: Option<SimTime> = None;
    let mut count: u64 = 0;
    let mut max_inflight = 0usize;
    let mut finished_at = SimTime::ZERO;

    // Event classes at equal instants: tick (0) < arrival (1) < finish (2),
    // mirroring the materialized driver's schedule order (ticks first, then
    // arrivals, finishes scheduled at run time).
    loop {
        let tick_at = if ticks_done { None } else { Some(next_tick) };
        let arrival_at = source.peek_at();
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
                gateway.tick(now).expect("tick must not fail");
                let live = gateway.engine().live_count();
                gateway
                    .metrics()
                    .sample_series("pool/live", now, live as f64);
                live_samples.push((now, live));
                // A tick past the end of the clock never comes. Without the
                // check, `next_tick` would saturate at a saturated horizon
                // and the loop would tick forever.
                match now.checked_add(tick_interval) {
                    None => ticks_done = true,
                    Some(after) => {
                        next_tick = after;
                        if arrival_at.is_none() {
                            // Stream exhausted: the horizon is now known,
                            // exactly as the materialized driver computed it
                            // up front. (While arrivals remain, every tick
                            // fired so far is <= the final horizon by
                            // construction.) An empty underlying stream has
                            // no basis: the single t=0 tick is the run.
                            let horizon = source
                                .horizon_basis()
                                .map(|last| last + tick_interval * 2)
                                .unwrap_or(SimTime::ZERO);
                            ticks_done = next_tick > horizon;
                        }
                    }
                }
            }
            1 => {
                let (arrival, seq) = source.next().expect("peeked arrival must exist");
                assert!(
                    last_arrival_at.is_none_or(|t| arrival.at >= t),
                    "trace must be time-ordered"
                );
                last_arrival_at = Some(arrival.at);
                let function = route(arrival.config_id);
                let inflight = gateway.begin(&function, now).expect("request must begin");
                pending.push(Reverse(FinishAt {
                    at: inflight.t4_func_end,
                    seq,
                    inflight,
                }));
                max_inflight = max_inflight.max(pending.len());
                count += 1;
            }
            _ => {
                let Reverse(f) = pending.pop().expect("peeked finish must exist");
                let trace_rec = gateway.finish(f.inflight).expect("request must finish");
                on_finish(f.seq, &trace_rec);
            }
        }
        finished_at = now;
    }

    TraceOutcome {
        gateway,
        requests: count,
        finished_at,
        live_samples,
        max_inflight,
        trace_error: source.take_error(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use containersim::{ContainerEngine, HardwareProfile};
    use faas::policy::{ColdStartAlways, FixedKeepAlive};
    use faas::AppProfile;
    use hotc::HotC;
    use workloads::patterns;

    fn gateway<P: RuntimeProvider>(provider: P) -> Gateway<P> {
        let engine = ContainerEngine::with_local_images(HardwareProfile::server());
        let mut gw = Gateway::new(engine, provider);
        gw.register_app(AppProfile::random_number());
        gw
    }

    #[test]
    fn serial_workload_all_traced() {
        let w = patterns::serial(SimDuration::from_secs(30), 10, 0);
        let out = run_workload(
            gateway(FixedKeepAlive::aws_default()),
            &w,
            |_| "random-number".to_string(),
            SimDuration::from_secs(30),
        );
        assert_eq!(out.traces.len(), 10);
        assert!(out.traces[0].cold);
        assert!(out.traces[1..].iter().all(|t| !t.cold));
        // Traces are in arrival order.
        for w in out.traces.windows(2) {
            assert!(w[0].t1_gateway_in <= w[1].t1_gateway_in);
        }
    }

    #[test]
    fn overlapping_arrivals_occupy_separate_containers() {
        let w = patterns::parallel_clients(1, 1, SimDuration::from_secs(30));
        // Build a burst of 8 simultaneous arrivals manually.
        let burst = patterns::burst(8, 1, &[], 1, SimDuration::from_secs(30), 0);
        assert_eq!(burst.len(), 8);
        let out = run_workload(
            gateway(ColdStartAlways::new()),
            &burst,
            |_| "random-number".to_string(),
            SimDuration::from_secs(30),
        );
        assert_eq!(out.traces.len(), 8);
        assert!(out.traces.iter().all(|t| t.cold));
        drop(w);
    }

    #[test]
    fn hotc_run_reuses_and_ticks() {
        let w = patterns::serial(SimDuration::from_secs(30), 20, 0);
        let out = run_workload(
            gateway(HotC::with_defaults()),
            &w,
            |_| "random-number".to_string(),
            SimDuration::from_secs(30),
        );
        assert!(out.cold_fraction() <= 0.1);
        assert!(out.mean_latency() < SimDuration::from_millis(120));
        assert!(out.finished_at >= SimTime::from_secs(19 * 30));
    }

    #[test]
    fn driver_populates_metrics_snapshot() {
        let w = patterns::serial(SimDuration::from_secs(30), 10, 0);
        let out = run_workload(
            gateway(FixedKeepAlive::aws_default()),
            &w,
            |_| "random-number".to_string(),
            SimDuration::from_secs(30),
        );
        let snap = out.metrics_snapshot();
        assert_eq!(snap.counter("gateway/requests"), Some(10));
        assert_eq!(snap.counter("gateway/cold_starts"), Some(1));
        assert_eq!(snap.stage_count("all", metrics_lite::Stage::Exec), 10);
        // One pool/live point per tick, mirroring `live_samples`.
        let (_, series) = snap
            .series
            .iter()
            .find(|(n, _)| n == "pool/live")
            .expect("pool/live series present");
        assert_eq!(series.points().len(), out.live_samples.len());
        let trace_total: u64 = out.traces.iter().map(|t| t.total().as_nanos()).sum();
        assert_eq!(snap.scope_total_ns("all"), trace_total);
    }

    /// Streaming and materialized drivers must be *event-identical*: same
    /// finish traces in the same order, same tick samples, same final
    /// telemetry bytes.
    fn assert_run_equivalent<P, F>(make_provider: F, workload: Vec<Arrival>)
    where
        P: RuntimeProvider + 'static,
        F: Fn() -> P,
    {
        let route = |_| "random-number".to_string();
        let tick = SimDuration::from_secs(30);
        let materialized = run_workload(gateway(make_provider()), &workload, route, tick);

        let mut collected: Vec<(u64, RequestTrace)> = Vec::new();
        let mut source = workloads::trace::VecTrace::new(workload);
        let streamed = run_trace(
            gateway(make_provider()),
            &mut source,
            route,
            tick,
            |seq, t| collected.push((seq, *t)),
        );

        assert_eq!(streamed.requests as usize, materialized.traces.len());
        assert_eq!(streamed.finished_at, materialized.finished_at);
        assert_eq!(streamed.live_samples, materialized.live_samples);
        assert!(streamed.trace_error.is_none());
        collected.sort_by_key(|&(seq, _)| seq);
        for (i, (seq, t)) in collected.iter().enumerate() {
            assert_eq!(*seq as usize, i);
            assert_eq!(t, &materialized.traces[i], "trace {i} diverged");
        }
        // Byte-identical telemetry: every stage histogram, counter, and the
        // pool/live series saw the same events in the same order.
        assert_eq!(
            format!("{:?}", streamed.gateway.metrics().snapshot()),
            format!("{:?}", materialized.metrics_snapshot())
        );
    }

    #[test]
    fn streaming_replay_is_event_identical_to_materialized() {
        // Overlapping bursts exercise the finish heap; serial exercises the
        // tick/arrival interleave; empty exercises the horizon edge.
        assert_run_equivalent(
            HotC::with_defaults,
            patterns::burst(8, 10, &[1, 3], 6, SimDuration::from_secs(30), 0),
        );
        assert_run_equivalent(
            HotC::with_defaults,
            patterns::serial(SimDuration::from_secs(30), 20, 0),
        );
        assert_run_equivalent(FixedKeepAlive::aws_default, Vec::new());
        assert_run_equivalent(
            ColdStartAlways::new,
            patterns::burst(8, 1, &[], 1, SimDuration::from_secs(30), 0),
        );
    }

    /// Regression (tick hang): with a tick so large that the next tick and
    /// the horizon both saturate at `SimTime::MAX`, both drivers used to
    /// tick forever. Ticking now ends where the clock does.
    #[test]
    fn tick_near_the_end_of_the_clock_terminates() {
        let workload = patterns::serial(SimDuration::from_secs(30), 3, 0);
        let tick = SimDuration::from_secs(10_000_000_000);
        let ticks = vec![SimTime::ZERO, SimTime::ZERO + tick];
        let route = |_| "random-number".to_string();
        let materialized = run_workload(gateway(HotC::with_defaults()), &workload, route, tick);
        assert_eq!(materialized.traces.len(), 3);
        let at: Vec<SimTime> = materialized.live_samples.iter().map(|&(t, _)| t).collect();
        assert_eq!(at, ticks);

        let mut source = workloads::trace::VecTrace::new(workload);
        let streamed = run_trace(
            gateway(HotC::with_defaults()),
            &mut source,
            route,
            tick,
            |_, _| {},
        );
        assert_eq!(streamed.requests, 3);
        assert_eq!(streamed.live_samples, materialized.live_samples);
        assert_eq!(streamed.finished_at, materialized.finished_at);
    }

    #[test]
    fn run_trace_reports_inflight_high_water_mark() {
        let burst = patterns::burst(8, 1, &[], 1, SimDuration::from_secs(30), 0);
        let mut source = workloads::trace::VecTrace::new(burst);
        let out = run_trace(
            gateway(ColdStartAlways::new()),
            &mut source,
            |_| "random-number".to_string(),
            SimDuration::from_secs(30),
            |_, _| {},
        );
        // All 8 arrive at t=0 and overlap.
        assert_eq!(out.max_inflight, 8);
        assert_eq!(out.requests, 8);
    }

    #[test]
    fn run_trace_surfaces_source_errors() {
        let csv = "100,alpha\n50,alpha\n";
        let mut source = workloads::trace::OpenDcTrace::new(csv.as_bytes());
        let out = run_trace(
            gateway(ColdStartAlways::new()),
            &mut source,
            |_| "random-number".to_string(),
            SimDuration::from_secs(30),
            |_, _| {},
        );
        assert_eq!(out.requests, 1);
        assert!(out
            .trace_error
            .as_deref()
            .is_some_and(|e| e.contains("non-decreasing")));
    }

    /// The 1-thread degenerate parallel run goes through `PartitionTrace` +
    /// `run_trace_partition` + `run_partitioned` and must be
    /// indistinguishable from the sequential streaming driver.
    #[test]
    fn single_worker_partition_equals_sequential() {
        let w = patterns::burst(8, 10, &[1, 3], 6, SimDuration::from_secs(30), 0);
        let tick = SimDuration::from_secs(30);
        let route = |_| "random-number".to_string();

        let mut seq_finishes: Vec<(u64, RequestTrace)> = Vec::new();
        let mut source = workloads::trace::VecTrace::new(w.clone());
        let sequential = run_trace(
            gateway(HotC::with_defaults()),
            &mut source,
            route,
            tick,
            |s, t| {
                seq_finishes.push((s, *t));
            },
        );

        let assign = std::sync::Arc::new(vec![0usize]);
        let mut results = run_partitioned(1, |worker| {
            let mut part = PartitionTrace::new(
                workloads::trace::VecTrace::new(w.clone()),
                std::sync::Arc::clone(&assign),
                worker,
            );
            let mut finishes: Vec<(u64, RequestTrace)> = Vec::new();
            let out = run_trace_partition(
                gateway(HotC::with_defaults()),
                &mut part,
                route,
                tick,
                |s, t| finishes.push((s, *t)),
            );
            (out, finishes)
        });
        let (out, finishes) = results.remove(0);

        assert_eq!(out.requests, sequential.requests);
        assert_eq!(out.finished_at, sequential.finished_at);
        assert_eq!(out.live_samples, sequential.live_samples);
        assert_eq!(out.max_inflight, sequential.max_inflight);
        assert_eq!(finishes, seq_finishes);
        assert_eq!(
            format!("{:?}", out.gateway.metrics().snapshot()),
            format!("{:?}", sequential.gateway.metrics().snapshot())
        );
    }

    /// Two workers partitioning a two-config stream: the merged finishes (by
    /// global index) equal the sequential run's, every worker ticks at the
    /// sequential instants, and per-tick live counts sum to the sequential
    /// count.
    #[test]
    fn two_workers_cover_stream_and_share_tick_schedule() {
        // Alternating configs, overlapping lifetimes.
        let w: Vec<Arrival> = (0..20u64)
            .map(|i| Arrival {
                at: SimTime::from_millis(i * 700),
                config_id: (i % 2) as usize,
            })
            .collect();
        let tick = SimDuration::from_secs(30);
        let route = |_| "random-number".to_string();

        let mut seq_finishes: Vec<(u64, RequestTrace)> = Vec::new();
        let mut source = workloads::trace::VecTrace::new(w.clone());
        let sequential = run_trace(
            gateway(ColdStartAlways::new()),
            &mut source,
            route,
            tick,
            |s, t| seq_finishes.push((s, *t)),
        );

        let assign = std::sync::Arc::new(vec![0usize, 1]);
        let results = run_partitioned(2, |worker| {
            let mut part = PartitionTrace::new(
                workloads::trace::VecTrace::new(w.clone()),
                std::sync::Arc::clone(&assign),
                worker,
            );
            let mut finishes: Vec<(u64, RequestTrace)> = Vec::new();
            let out = run_trace_partition(
                gateway(ColdStartAlways::new()),
                &mut part,
                route,
                tick,
                |s, t| finishes.push((s, *t)),
            );
            (out, finishes)
        });

        assert_eq!(results.iter().map(|(o, _)| o.requests).sum::<u64>(), 20);
        let mut merged: Vec<(u64, RequestTrace)> = results
            .iter()
            .flat_map(|(_, f)| f.iter().copied())
            .collect();
        merged.sort_by_key(|&(s, _)| s);
        seq_finishes.sort_by_key(|&(s, _)| s);
        assert_eq!(merged, seq_finishes);

        let max_finished = results.iter().map(|(o, _)| o.finished_at).max();
        assert_eq!(max_finished, Some(sequential.finished_at));
        for (out, _) in &results {
            let instants: Vec<SimTime> = out.live_samples.iter().map(|&(t, _)| t).collect();
            let seq_instants: Vec<SimTime> =
                sequential.live_samples.iter().map(|&(t, _)| t).collect();
            assert_eq!(instants, seq_instants, "tick schedules must be global");
        }
        for (i, &(at, live)) in sequential.live_samples.iter().enumerate() {
            let summed: usize = results.iter().map(|(o, _)| o.live_samples[i].1).sum();
            assert_eq!(summed, live, "live count diverged at {at:?}");
        }
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn unordered_trace_rejected_mid_stream() {
        struct Backwards(usize);
        impl Trace for Backwards {
            fn peek(&mut self) -> Option<Arrival> {
                self.items().get(self.0).copied()
            }
            fn next_arrival(&mut self) -> Option<Arrival> {
                let out = self.items().get(self.0).copied();
                if out.is_some() {
                    self.0 += 1;
                }
                out
            }
            fn remaining_hint(&self) -> (u64, Option<u64>) {
                (0, None)
            }
        }
        impl Backwards {
            fn items(&self) -> Vec<Arrival> {
                vec![
                    Arrival {
                        at: SimTime::from_secs(5),
                        config_id: 0,
                    },
                    Arrival {
                        at: SimTime::from_secs(1),
                        config_id: 0,
                    },
                ]
            }
        }
        let _ = run_trace(
            gateway(ColdStartAlways::new()),
            &mut Backwards(0),
            |_| "random-number".to_string(),
            SimDuration::from_secs(30),
            |_, _| {},
        );
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn unordered_workload_rejected() {
        let w = vec![
            workloads::Arrival {
                at: SimTime::from_secs(5),
                config_id: 0,
            },
            workloads::Arrival {
                at: SimTime::from_secs(1),
                config_id: 0,
            },
        ];
        let _ = run_workload(
            gateway(ColdStartAlways::new()),
            &w,
            |_| "random-number".to_string(),
            SimDuration::from_secs(30),
        );
    }
}
