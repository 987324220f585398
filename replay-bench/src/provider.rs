//! HotC assembled from its public parts, with every call into the pool,
//! the limits and the controller timed.
//!
//! [`TracedHotC`] makes the same calls in the same order as
//! `hotc::HotC`; the benchmark proves that by comparing report digests
//! against `hotc_cli::run_scenario`.

use containersim::{ContainerConfig, ContainerEngine, ContainerId, EngineError};
use faas::{Acquisition, RuntimeProvider};
use hotc::{AdaptiveController, ContainerPool, HotCConfig, PoolLimits};
use simclock::{SimDuration, SimTime};
use std::time::Instant;

/// Host time spent in one kind of call, and how many calls there were.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Span {
    /// Total host nanoseconds.
    pub ns: u64,
    /// Number of calls.
    pub calls: u64,
}

impl Span {
    /// Adds one call that started at `start`.
    pub fn add_since(&mut self, start: Instant) {
        self.ns += start.elapsed().as_nanos() as u64;
        self.calls += 1;
    }

    /// Runs `f` as one timed call.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.add_since(start);
        out
    }
}

/// Per-call timings of the provider's layers.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProviderSpans {
    /// `ContainerPool::acquire` calls that reused a pooled runtime.
    pub acquire_warm: Span,
    /// `ContainerPool::acquire` calls that started a container.
    pub acquire_cold: Span,
    /// `ContainerPool::release`.
    pub release: Span,
    /// `PoolLimits::enforce_counted` after a cold start (request path).
    pub enforce: Span,
    /// `PoolLimits::enforce_counted` on tick.
    pub enforce_tick: Span,
    /// `AdaptiveController::maybe_step`; `calls` counts every tick.
    pub controller: Span,
    /// Control steps that actually ran.
    pub controller_steps: u64,
}

/// `hotc::HotC` rebuilt from `ContainerPool`, `PoolLimits` and
/// `AdaptiveController`, timing each call into them.
pub struct TracedHotC {
    pool: ContainerPool,
    controller: AdaptiveController,
    limits: PoolLimits,
    background: SimDuration,
    forced_evictions: u64,
    /// Timings so far.
    pub spans: ProviderSpans,
}

impl TracedHotC {
    /// Builds the provider from the same configuration `HotC::new` takes.
    /// Prediction must be enabled, as in every scenario this benchmark runs.
    pub fn new(config: HotCConfig) -> Self {
        assert!(
            !config.disable_prediction,
            "the traced provider mirrors HotC with prediction enabled"
        );
        TracedHotC {
            pool: ContainerPool::with_shards(config.key_policy, config.shards),
            controller: AdaptiveController::new(config.controller),
            limits: config.limits,
            background: SimDuration::ZERO,
            forced_evictions: 0,
            spans: ProviderSpans::default(),
        }
    }
}

impl RuntimeProvider for TracedHotC {
    fn acquire(
        &mut self,
        engine: &mut ContainerEngine,
        config: &ContainerConfig,
        now: SimTime,
    ) -> Result<Acquisition, EngineError> {
        let start = Instant::now();
        let acq = self.pool.acquire(engine, config, now)?;
        if acq.cold {
            self.spans.acquire_cold.add_since(start);
            let (cost, evicted) = self
                .spans
                .enforce
                .time(|| self.limits.enforce_counted(&mut self.pool, engine, now))?;
            self.background += cost;
            self.forced_evictions += evicted as u64;
        } else {
            self.spans.acquire_warm.add_since(start);
        }
        Ok(acq)
    }

    fn release(
        &mut self,
        engine: &mut ContainerEngine,
        container: ContainerId,
        now: SimTime,
    ) -> Result<(), EngineError> {
        let cost = self
            .spans
            .release
            .time(|| self.pool.release(engine, container, now))?;
        self.background += cost;
        Ok(())
    }

    fn tick(&mut self, engine: &mut ContainerEngine, now: SimTime) -> Result<(), EngineError> {
        let step = self
            .spans
            .controller
            .time(|| self.controller.maybe_step(&mut self.pool, engine, now))?;
        self.spans.controller_steps += step.is_some() as u64;
        let (cost, evicted) = self
            .spans
            .enforce_tick
            .time(|| self.limits.enforce_counted(&mut self.pool, engine, now))?;
        self.background += cost;
        self.forced_evictions += evicted as u64;
        Ok(())
    }

    fn name(&self) -> &'static str {
        "hotc"
    }

    fn background_cost(&self) -> SimDuration {
        self.background + self.controller.background_cost()
    }

    fn forced_evictions(&self) -> u64 {
        self.forced_evictions
    }
}
