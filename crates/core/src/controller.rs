//! Adaptive live container management (§IV-C, Algorithm 3).
//!
//! At a fixed control interval the controller snapshots, per runtime type,
//! the peak number of containers the interval actually needed
//! (`history[k][t]`), feeds it to that type's combined exponential-smoothing
//! plus Markov predictor, and resizes the pool toward the predicted
//! next-interval demand — pre-warming containers ahead of predicted growth
//! ("prepare the runtime in advance") and retiring idle ones ahead of
//! predicted decline ("avoid … unnecessary resource consumption").
//!
//! The controller walks the sharded pool one shard at a time
//! ([`AdaptiveController::step_sharded`]), so a control step never stalls
//! the whole pool: requests on other shards proceed while one shard's
//! snapshot is taken. By default each step takes the pool's **dirty-set**
//! snapshot — only keys touched since the last interval (or still holding
//! containers) are visited, so a step costs O(active types) rather than
//! O(registered types). Keys the dirty snapshot skipped saw zero demand by
//! construction; when such a key resurfaces, the controller backfills the
//! missed intervals as zero observations (one per skipped tick), so every
//! predictor sees exactly the demand series a full sweep would have fed it.
//! [`AdaptiveController::step_sharded_full`] keeps the O(all types)
//! reference path; a property test asserts the two produce identical
//! prewarm/retire/GC actions on the same trace.
//!
//! The dirty step also **parks** keys whose next steps are provably no-ops:
//! an idle key sized to one container (zero demand, one available, none in
//! use, no headroom) whose predictor vouches that the next `k` zero
//! observations keep its prediction in `(0, 1]`
//! ([`EsMarkov::zero_run_bound`]) would be sized to exactly one container
//! at each of those steps. The pool takes it off the active list for `k`
//! snapshots ([`ShardedPool::park_keys`]) and wakes it early on any touch;
//! the backfill above then feeds the zeros it skipped, so every decision
//! and every prediction stays bit-identical to the full sweep, and a step
//! costs O(keys that changed) rather than O(keys holding containers).
//!
//! Keys whose slots the pool garbage-collects (empty for several
//! consecutive zero-demand intervals) have their predictors dropped in the
//! same step, so the predictor map cannot grow without bound across
//! distinct configurations.

use crate::key::KeyId;
use crate::pool::ContainerPool;
use crate::shard::{EngineRef, ExclusiveEngine, ShardedPool};
use containersim::{ContainerEngine, EngineError};
use predictor::{EsMarkov, InitialValue, Predictor};
use simclock::{SimDuration, SimTime};

/// Controller tuning.
#[derive(Debug, Clone)]
pub struct ControllerConfig {
    /// Control interval (how often demand is sampled and the pool resized).
    pub interval: SimDuration,
    /// Exponential smoothing coefficient (paper: 0.8).
    pub alpha: f64,
    /// Seeding strategy for short series (paper: mean of first five).
    pub init: InitialValue,
    /// Number of Markov demand regions.
    pub regions: usize,
    /// Demand history window per key.
    pub window: usize,
    /// Fractional headroom added on top of the prediction (0.0 = exactly the
    /// prediction; 0.25 = provision 25 % extra).
    pub headroom: f64,
    /// Maximum fraction of the *excess* (current − target) retired per
    /// control step. Scale-up is immediate (cold starts hurt now); scale-down
    /// is deliberately gradual so capacity survives between recurring bursts
    /// — the §V-D burst experiment's "more same types of containers available
    /// after the previous burst". 1.0 = shed everything immediately.
    pub max_retire_fraction: f64,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            interval: SimDuration::from_secs(30),
            alpha: 0.8,
            init: InitialValue::MeanOfFirst5,
            regions: 6,
            window: 256,
            headroom: 0.0,
            max_retire_fraction: 0.1,
        }
    }
}

/// What one control step did — the counters and predicted-vs-actual demand
/// the telemetry layer samples into the metrics registry.
#[derive(Debug, Clone, Default)]
pub struct StepReport {
    /// Containers pre-warmed ahead of predicted demand.
    pub prewarmed: usize,
    /// Idle containers retired beyond predicted demand.
    pub retired: usize,
    /// Keys whose empty slots (and predictors) were garbage collected.
    pub gc_keys: usize,
    /// Quiet keys this step parked: the next steps skip them (see
    /// [`ShardedPool::park_keys`]).
    pub parked: usize,
    /// Per-key `(predicted, actual)` demand for the interval, for the keys
    /// the step visited. A dirty step omits cold keys, which contribute
    /// zero to both totals, and parked keys, which contribute zero actual
    /// demand and a prediction of at most 1 each.
    pub demand: Vec<(KeyId, f64, usize)>,
}

impl StepReport {
    /// Total predicted demand across the stepped keys.
    pub fn predicted_total(&self) -> f64 {
        self.demand.iter().map(|&(_, p, _)| p).sum()
    }

    /// Total actual demand across the stepped keys.
    pub fn actual_total(&self) -> usize {
        self.demand.iter().map(|&(_, _, d)| d).sum()
    }
}

/// One key's predictor plus the last tick it was fed, so dirty steps can
/// backfill the zero-demand intervals the key was skipped for.
struct KeyedPredictor {
    model: EsMarkov,
    last_tick: u64,
}

/// The per-key adaptive controller.
pub struct AdaptiveController {
    config: ControllerConfig,
    /// Predictor slots indexed by [`KeyId::index`] — interned ids are dense
    /// per pool, so a direct-indexed table beats hashing on the per-key tick
    /// path. GC'd keys leave a boxed-pointer-sized `None` hole (ids are
    /// never reused).
    predictors: Vec<Option<Box<KeyedPredictor>>>,
    /// Number of live (`Some`) predictor slots.
    live_predictors: usize,
    /// Monotone control-step counter; predictors record the tick they last
    /// observed so skipped (zero-demand) intervals can be backfilled.
    ticks: u64,
    last_step: Option<SimTime>,
    last_predictions: Vec<(KeyId, f64)>,
    /// Cumulative background cost of pre-warm/retire actions.
    background: SimDuration,
}

impl AdaptiveController {
    /// Creates a controller.
    pub fn new(config: ControllerConfig) -> Self {
        assert!(
            !config.interval.is_zero(),
            "control interval must be positive"
        );
        AdaptiveController {
            config,
            predictors: Vec::new(),
            live_predictors: 0,
            ticks: 0,
            last_step: None,
            last_predictions: Vec::new(),
            background: SimDuration::ZERO,
        }
    }

    /// The paper's configuration (α = 0.8, 30 s interval).
    pub fn paper_default() -> Self {
        Self::new(ControllerConfig::default())
    }

    /// The active tuning.
    pub fn config(&self) -> &ControllerConfig {
        &self.config
    }

    /// Most recent per-key predictions (diagnostics / Fig. 10), for the keys
    /// the last step visited, sorted by key id.
    pub fn last_predictions(&self) -> &[(KeyId, f64)] {
        &self.last_predictions
    }

    /// Number of keys with a live predictor (bounded by the pool's slot GC).
    pub fn predictor_count(&self) -> usize {
        self.live_predictors
    }

    /// Cumulative cost of controller actions.
    pub fn background_cost(&self) -> SimDuration {
        self.background
    }

    /// Runs a control step if the interval has elapsed since the last one,
    /// returning the step's report when one ran.
    pub fn maybe_step(
        &mut self,
        pool: &mut ContainerPool,
        engine: &mut ContainerEngine,
        now: SimTime,
    ) -> Result<Option<StepReport>, EngineError> {
        self.maybe_step_sharded(pool.sharded(), &ExclusiveEngine::new(engine), now)
    }

    /// Runs one control step unconditionally: snapshot demand, update the
    /// predictors, and resize the pool toward the predictions.
    pub fn step(
        &mut self,
        pool: &mut ContainerPool,
        engine: &mut ContainerEngine,
        now: SimTime,
    ) -> Result<StepReport, EngineError> {
        self.step_sharded(pool.sharded(), &ExclusiveEngine::new(engine), now)
    }

    /// Sharded variant of [`Self::maybe_step`].
    pub fn maybe_step_sharded(
        &mut self,
        pool: &ShardedPool,
        engine: &impl EngineRef,
        now: SimTime,
    ) -> Result<Option<StepReport>, EngineError> {
        let due = match self.last_step {
            None => true,
            Some(last) => now.duration_since(last) >= self.config.interval,
        };
        if !due {
            return Ok(None);
        }
        self.step_sharded(pool, engine, now).map(Some)
    }

    /// One O(active types) control step over the sharded pool, one shard at
    /// a time: take each shard's dirty-set demand snapshot (which also
    /// garbage-collects long-empty slots via the idle sweep), update
    /// predictors, and resize toward the predictions. Only one shard's lock
    /// is held at any moment, and never together with the engine lock.
    pub fn step_sharded(
        &mut self,
        pool: &ShardedPool,
        engine: &impl EngineRef,
        now: SimTime,
    ) -> Result<StepReport, EngineError> {
        self.step_shards(pool, engine, now, false)
    }

    /// The O(all types) reference step: full-sweep snapshots that visit
    /// every tracked slot. Produces the same pool-resize actions as
    /// [`Self::step_sharded`] on the same trace (property-tested below);
    /// kept for validation and as the comparison baseline in the
    /// `controller_tick` benches.
    pub fn step_sharded_full(
        &mut self,
        pool: &ShardedPool,
        engine: &impl EngineRef,
        now: SimTime,
    ) -> Result<StepReport, EngineError> {
        self.step_shards(pool, engine, now, true)
    }

    fn step_shards(
        &mut self,
        pool: &ShardedPool,
        engine: &impl EngineRef,
        now: SimTime,
        full: bool,
    ) -> Result<StepReport, EngineError> {
        self.last_step = Some(now);
        self.ticks += 1;
        let tick = self.ticks;
        self.last_predictions.clear();
        let mut report = StepReport::default();
        for shard in 0..pool.num_shards() {
            let snapshot = if full {
                pool.take_shard_snapshot(shard)
            } else {
                pool.take_shard_snapshot_dirty(shard)
            };
            for id in &snapshot.retired {
                // The pool dropped the slot: drop its predictor with it.
                if let Some(slot) = self.predictors.get_mut(id.index()) {
                    if slot.take().is_some() {
                        self.live_predictors -= 1;
                    }
                }
            }
            report.gc_keys += snapshot.retired.len();
            let mut quiet = Vec::new();
            for sample in snapshot.demands {
                let (id, demand) = (sample.id, sample.demand);
                let cfg = &self.config;
                if self.predictors.len() <= id.index() {
                    self.predictors.resize_with(id.index() + 1, || None);
                }
                let slot = &mut self.predictors[id.index()];
                let entry = match slot {
                    Some(entry) => entry,
                    None => {
                        self.live_predictors += 1;
                        slot.insert(Box::new(KeyedPredictor {
                            model: EsMarkov::with_params(
                                cfg.alpha,
                                cfg.init,
                                cfg.regions,
                                cfg.window,
                            ),
                            last_tick: tick - 1,
                        }))
                    }
                };
                // A key absent from a dirty snapshot saw zero demand by
                // construction (any touch keeps it on the active list):
                // feed the skipped intervals now so the predictor's series
                // is identical to what a full sweep would have produced.
                for _ in entry.last_tick + 1..tick {
                    entry.model.observe(0.0);
                }
                entry.last_tick = tick;
                entry.model.observe(demand as f64);
                let predicted = entry.model.predict() * (1.0 + self.config.headroom);
                self.last_predictions.push((id, predicted));
                report.demand.push((id, predicted, demand));
                // The quiet rule: an idle key sized to one container whose
                // next `runs` zero observations provably predict in (0, 1]
                // would size itself to exactly one again for `runs`
                // steps — skip those steps until something touches it.
                let runs = if full
                    || demand != 0
                    || sample.avail != 1
                    || sample.in_use != 0
                    || self.config.headroom != 0.0
                {
                    0
                } else {
                    entry.model.zero_run_bound()
                };

                // Scale-down floor: never size below what the *last* interval
                // actually needed — on a growing workload the smoother lags
                // and would otherwise retire runtimes the next wave is about
                // to use (the Fig. 14(a) "at least half reuse" property).
                let target = (predicted.ceil().max(0.0) as usize).max(demand);
                // The snapshot read the live population under the shard lock
                // it already held — no per-key re-lock.
                let current = sample.live();
                // No-resurrect rule: a key with no demand and no containers
                // is on its way to being GC'd — pre-warming it would keep a
                // dead key alive forever on the ceil()-ed tail of a decaying
                // prediction.
                if current == 0 && demand == 0 {
                    continue;
                }
                if runs > 0 && target == current {
                    quiet.push((id, runs));
                    continue;
                }
                if target > current {
                    // Prepare runtimes in advance of predicted demand.
                    for _ in 0..(target - current) {
                        match pool.prewarm_key_id(engine, id, now)? {
                            Some(cost) => {
                                self.background += cost;
                                report.prewarmed += 1;
                            }
                            None => break, // slot GC'd since the snapshot
                        }
                    }
                } else {
                    // Shed idle runtimes beyond predicted demand — gradually,
                    // so recurring bursts find warm capacity left over.
                    let excess = current - target;
                    let retire = ((excess as f64 * self.config.max_retire_fraction).ceil()
                        as usize)
                        .min(excess);
                    for _ in 0..retire {
                        match pool.retire_one_id(engine, id, now)? {
                            Some(c) => {
                                self.background += c;
                                report.retired += 1;
                            }
                            None => break, // the rest are in use
                        }
                    }
                }
            }
            report.parked += pool.park_keys(shard, snapshot.seq, &quiet);
        }
        report.demand.sort_unstable_by_key(|&(id, _, _)| id);
        self.last_predictions.sort_unstable_by_key(|&(id, _)| id);
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::KeyPolicy;
    use containersim::engine::ExecWork;
    use containersim::{ContainerConfig, ContainerId, HardwareProfile, ImageId};
    use predictor::ZERO_RUN_CAP;

    fn setup() -> (ContainerEngine, ContainerPool, AdaptiveController) {
        (
            ContainerEngine::with_local_images(HardwareProfile::server()),
            ContainerPool::new(KeyPolicy::Exact),
            AdaptiveController::paper_default(),
        )
    }

    fn cfg() -> ContainerConfig {
        ContainerConfig::bridge(ImageId::parse("python:3.8-alpine"))
    }

    /// Simulates `n` concurrent requests for `config` in one interval.
    fn drive_config_demand(
        pool: &mut ContainerPool,
        engine: &mut ContainerEngine,
        config: &ContainerConfig,
        n: usize,
        now: SimTime,
    ) {
        let acqs: Vec<_> = (0..n)
            .map(|_| pool.acquire(engine, config, now).unwrap())
            .collect();
        for a in acqs {
            let out = engine
                .begin_exec(
                    a.container,
                    ExecWork::light(SimDuration::from_millis(5)),
                    now,
                )
                .unwrap();
            engine.end_exec(a.container, now + out.latency).unwrap();
            pool.release(engine, a.container, now + out.latency)
                .unwrap();
        }
    }

    /// Simulates `n` concurrent requests in one interval.
    fn drive_demand(
        pool: &mut ContainerPool,
        engine: &mut ContainerEngine,
        n: usize,
        now: SimTime,
    ) {
        drive_config_demand(pool, engine, &cfg(), n, now);
    }

    #[test]
    fn steady_demand_sizes_pool_to_match() {
        let (mut e, mut pool, mut ctl) = setup();
        for t in 0..12 {
            let now = SimTime::from_secs(t * 30);
            drive_demand(&mut pool, &mut e, 5, now);
            ctl.step(&mut pool, &mut e, now).unwrap();
        }
        let key = pool.key_of(&cfg());
        let live = pool.num_avail(&key) + pool.num_in_use(&key);
        assert!(
            (4..=7).contains(&live),
            "pool should track demand of 5, got {live}"
        );
    }

    #[test]
    fn demand_drop_retires_containers() {
        let (mut e, mut pool, mut ctl) = setup();
        // High demand for a while…
        for t in 0..8 {
            let now = SimTime::from_secs(t * 30);
            drive_demand(&mut pool, &mut e, 10, now);
            ctl.step(&mut pool, &mut e, now).unwrap();
        }
        let key = pool.key_of(&cfg());
        let high = pool.num_avail(&key);
        assert!(high >= 8, "pool grew to demand, got {high}");
        // …then it vanishes.
        for t in 8..20 {
            let now = SimTime::from_secs(t * 30);
            ctl.step(&mut pool, &mut e, now).unwrap();
        }
        let low = pool.num_avail(&key);
        assert!(low <= 2, "pool should shrink after demand drop, got {low}");
    }

    #[test]
    fn growth_retains_full_capacity() {
        let (mut e, mut pool, mut ctl) = setup();
        // Ramp 2, 4, 6, … — the scale-down floor (last observed demand)
        // keeps every container from the latest wave warm even while the
        // lagging smoother under-predicts.
        for (r, n) in [2usize, 4, 6, 8, 10, 12].into_iter().enumerate() {
            let now = SimTime::from_secs(r as u64 * 30);
            drive_demand(&mut pool, &mut e, n, now);
            ctl.step(&mut pool, &mut e, now).unwrap();
        }
        let key = pool.key_of(&cfg());
        assert_eq!(pool.num_avail(&key), 12, "full last wave stays warm");
    }

    #[test]
    fn headroom_prewarms_extra_capacity() {
        let (mut e, mut pool, _) = setup();
        let mut ctl = AdaptiveController::new(ControllerConfig {
            headroom: 0.5,
            ..Default::default()
        });
        for r in 0..8u64 {
            let now = SimTime::from_secs(r * 30);
            drive_demand(&mut pool, &mut e, 10, now);
            ctl.step(&mut pool, &mut e, now).unwrap();
        }
        let key = pool.key_of(&cfg());
        // 50 % headroom over a steady demand of 10 ⇒ ~15 warm runtimes.
        assert!(pool.num_avail(&key) >= 13, "avail={}", pool.num_avail(&key));
        assert!(ctl.background_cost() > SimDuration::ZERO);
    }

    #[test]
    fn maybe_step_respects_interval() {
        let (mut e, mut pool, mut ctl) = setup();
        assert!(ctl
            .maybe_step(&mut pool, &mut e, SimTime::ZERO)
            .unwrap()
            .is_some());
        // 10 s later: not due (interval 30 s).
        assert!(ctl
            .maybe_step(&mut pool, &mut e, SimTime::from_secs(10))
            .unwrap()
            .is_none());
        assert!(ctl
            .maybe_step(&mut pool, &mut e, SimTime::from_secs(30))
            .unwrap()
            .is_some());
    }

    /// The step report tallies what the controller actually did, so the
    /// telemetry layer can export prewarm/retire/GC counts and
    /// predicted-vs-actual demand without re-deriving them.
    #[test]
    fn step_report_tallies_actions() {
        let (mut e, mut pool, _) = setup();
        let mut ctl = AdaptiveController::new(ControllerConfig {
            headroom: 0.5,
            ..Default::default()
        });
        pool.set_gc_intervals(1);
        drive_demand(&mut pool, &mut e, 4, SimTime::ZERO);
        let report = ctl.step(&mut pool, &mut e, SimTime::ZERO).unwrap();
        assert_eq!(report.demand.len(), 1);
        assert_eq!(report.actual_total(), 4);
        assert!(report.predicted_total() > 0.0);
        // Headroom over the observed demand forces pre-warms; four released
        // containers already exist, so the target of ceil(pred*1.5) adds more.
        assert!(report.prewarmed > 0, "report: {report:?}");
        assert_eq!(report.gc_keys, 0);
        // Drain the pool, then let the empty slot hit the GC threshold.
        let key = pool.key_of(&cfg());
        while pool
            .retire_one(&mut e, &key, SimTime::from_secs(1))
            .unwrap()
            .is_some()
        {}
        let report = ctl.step(&mut pool, &mut e, SimTime::from_secs(30)).unwrap();
        assert_eq!(report.gc_keys, 1, "report: {report:?}");
    }

    #[test]
    fn predictions_are_exposed() {
        let (mut e, mut pool, mut ctl) = setup();
        drive_demand(&mut pool, &mut e, 3, SimTime::ZERO);
        ctl.step(&mut pool, &mut e, SimTime::ZERO).unwrap();
        let id = pool.sharded().id_of(&pool.key_of(&cfg())).unwrap();
        assert!(ctl.last_predictions().iter().any(|&(k, _)| k == id));
    }

    /// Regression (unbounded predictor maps): when the pool GCs a dead
    /// slot, the controller drops its predictor in the same step — before
    /// the fix, every config ever seen kept a predictor (and a config clone)
    /// forever.
    #[test]
    fn gc_drops_predictors_for_dead_keys() {
        let (mut e, mut pool, mut ctl) = setup();
        pool.set_gc_intervals(2);
        let key = pool.key_of(&cfg());
        drive_demand(&mut pool, &mut e, 2, SimTime::ZERO);
        ctl.step(&mut pool, &mut e, SimTime::ZERO).unwrap();
        assert_eq!(ctl.predictor_count(), 1);
        // Empty the slot behind the controller's back (eviction under
        // memory pressure would do the same).
        while pool
            .retire_one(&mut e, &key, SimTime::from_secs(1))
            .unwrap()
            .is_some()
        {}
        assert_eq!(pool.total_live(), 0);
        // Two zero-demand steps on the empty slot reach the GC threshold;
        // the no-resurrect rule keeps the controller from pre-warming it.
        for t in 1..=3u64 {
            ctl.step(&mut pool, &mut e, SimTime::from_secs(t * 30))
                .unwrap();
        }
        assert_eq!(pool.total_live(), 0, "dead key must not be resurrected");
        assert!(pool.keys().is_empty());
        assert_eq!(ctl.predictor_count(), 0, "predictor GC'd with the slot");
    }

    /// The tentpole equivalence: on any shared trace, the dirty-set step
    /// and the full-sweep step take the same prewarm/retire/GC actions at
    /// every interval and leave the pool and predictor map in the same
    /// final state — the dirty path only skips work, never decisions.
    #[test]
    fn prop_dirty_step_matches_full_sweep() {
        testkit::check(48, |g| {
            let gc = g.u32_in(1..4);
            let intervals = g.usize_in(3..10);
            let configs = [
                ContainerConfig::bridge(ImageId::parse("python:3.8-alpine")),
                ContainerConfig::bridge(ImageId::parse("alpine:3.12")),
                ContainerConfig::bridge(ImageId::parse("golang:1.13")),
            ];
            // One op trace, applied identically to both stacks.
            let plan: Vec<Vec<(usize, u8, usize)>> = (0..intervals)
                .map(|_| {
                    g.vec(0..6, |g| {
                        (g.usize_in(0..3), g.u8_in(0..3), g.usize_in(1..4))
                    })
                })
                .collect();
            let (mut ef, mut pf, mut cf) = setup();
            let (mut ed, mut pd, mut cd) = setup();
            pf.set_gc_intervals(gc);
            pd.set_gc_intervals(gc);
            for (t, ops) in plan.iter().enumerate() {
                let now = SimTime::from_secs(t as u64 * 30);
                for &(ci, op, n) in ops {
                    let c = &configs[ci];
                    match op {
                        0 => {
                            drive_config_demand(&mut pf, &mut ef, c, n, now);
                            drive_config_demand(&mut pd, &mut ed, c, n, now);
                        }
                        1 => {
                            pf.prewarm(&mut ef, c, now).unwrap();
                            pd.prewarm(&mut ed, c, now).unwrap();
                        }
                        _ => {
                            pf.retire_one(&mut ef, &pf.key_of(c), now).unwrap();
                            pd.retire_one(&mut ed, &pd.key_of(c), now).unwrap();
                        }
                    }
                }
                let rf = cf
                    .step_sharded_full(pf.sharded(), &ExclusiveEngine::new(&mut ef), now)
                    .unwrap();
                let rd = cd.step(&mut pd, &mut ed, now).unwrap();
                assert_eq!(rf.prewarmed, rd.prewarmed, "interval {t}: prewarm diverged");
                assert_eq!(rf.retired, rd.retired, "interval {t}: retire diverged");
                assert_eq!(rf.gc_keys, rd.gc_keys, "interval {t}: GC diverged");
            }
            assert_eq!(pf.keys(), pd.keys(), "tracked key sets diverged");
            for key in pf.keys() {
                assert_eq!(pf.num_avail(&key), pd.num_avail(&key), "sizing of {key}");
                assert_eq!(pf.num_in_use(&key), pd.num_in_use(&key));
            }
            assert_eq!(cf.predictor_count(), cd.predictor_count());
        });
    }

    /// Counts of the parking situations the lockstep test drove, summed
    /// over every case so the test can prove it was not vacuous.
    #[derive(Default)]
    struct Coverage {
        parks: usize,
        hits_on_parked: usize,
        held_on_parked: usize,
        evicted_parked: usize,
        retired_parked: usize,
        revived: usize,
        long_quiet: usize,
    }

    /// One interval of the lockstep trace: ops on key `k` of a small
    /// config set.
    #[derive(Clone, Copy, Debug)]
    enum Op {
        /// Acquire `n` containers and release them in the same interval.
        Demand(usize, usize),
        /// Acquire one container and hold it across the next tick.
        Hold(usize),
        Prewarm(usize),
        Retire(usize),
        Evict,
    }

    /// Runs `plan` on a parking stack (`step`) and a full-sweep stack
    /// (`step_sharded_full`) in lockstep, asserting identical actions per
    /// interval, a bit-identical prediction for every key the parking
    /// stack steps, and identical final pools.
    fn run_lockstep(plan: &[Vec<Op>], gc: u32, alpha: f64, headroom: f64, cov: &mut Coverage) {
        let configs: Vec<ContainerConfig> = (0..4)
            .map(|i| {
                let mut c = cfg();
                c.exec.env.insert("K".into(), i.to_string());
                c
            })
            .collect();
        let controller = || {
            AdaptiveController::new(ControllerConfig {
                alpha,
                headroom,
                ..Default::default()
            })
        };
        let (mut ef, mut pf, _) = setup();
        let (mut ep, mut pp, _) = setup();
        let (mut cf, mut cp) = (controller(), controller());
        pf.set_gc_intervals(gc);
        pp.set_gc_intervals(gc);
        let mut held: Vec<(ContainerId, ContainerId)> = Vec::new();
        let mut quiet_run = 0;
        for (t, ops) in plan.iter().enumerate() {
            let now = SimTime::from_secs(t as u64 * 30);
            let parked = pp.sharded().parked_keys();
            let is_parked = |pool: &ContainerPool, c: &ContainerConfig| {
                pool.sharded()
                    .id_of(&pool.key_of(c))
                    .is_some_and(|id| parked.contains(&id))
            };
            for (f, p) in std::mem::take(&mut held) {
                pf.release(&mut ef, f, now).unwrap();
                pp.release(&mut ep, p, now).unwrap();
            }
            quiet_run = if ops.is_empty() { quiet_run + 1 } else { 0 };
            if quiet_run == ZERO_RUN_CAP as usize + 2 {
                cov.long_quiet += 1;
            }
            for &op in ops {
                match op {
                    Op::Demand(k, n) => {
                        let c = &configs[k];
                        cov.hits_on_parked += usize::from(is_parked(&pp, c));
                        let key = pp.key_of(c);
                        if pp.sharded().id_of(&key).is_some() && !pp.keys().contains(&key) {
                            cov.revived += 1;
                        }
                        drive_config_demand(&mut pf, &mut ef, c, n, now);
                        drive_config_demand(&mut pp, &mut ep, c, n, now);
                    }
                    Op::Hold(k) => {
                        let c = &configs[k];
                        cov.held_on_parked += usize::from(is_parked(&pp, c));
                        let af = pf.acquire(&mut ef, c, now).unwrap();
                        let ap = pp.acquire(&mut ep, c, now).unwrap();
                        let work = ExecWork::light(SimDuration::from_millis(5));
                        ef.begin_exec(af.container, work, now).unwrap();
                        ep.begin_exec(ap.container, work, now).unwrap();
                        let end = now + SimDuration::from_secs(1);
                        ef.end_exec(af.container, end).unwrap();
                        ep.end_exec(ap.container, end).unwrap();
                        held.push((af.container, ap.container));
                    }
                    Op::Prewarm(k) => {
                        pf.prewarm(&mut ef, &configs[k], now).unwrap();
                        pp.prewarm(&mut ep, &configs[k], now).unwrap();
                    }
                    Op::Retire(k) => {
                        let c = &configs[k];
                        cov.retired_parked += usize::from(is_parked(&pp, c));
                        let rf = pf.retire_one(&mut ef, &pf.key_of(c), now).unwrap();
                        let rp = pp.retire_one(&mut ep, &pp.key_of(c), now).unwrap();
                        assert_eq!(rf.is_some(), rp.is_some(), "interval {t}: retire diverged");
                    }
                    Op::Evict => {
                        let oldest = pp
                            .sharded()
                            .oldest_available_scan(&ExclusiveEngine::new(&mut ep));
                        if let Some(victim) = oldest {
                            let owner = ep.config(victim).cloned().unwrap();
                            cov.evicted_parked += usize::from(is_parked(&pp, &owner));
                        }
                        let vf = pf.evict_oldest(&mut ef, now).unwrap();
                        let vp = pp.evict_oldest(&mut ep, now).unwrap();
                        assert_eq!(vf, vp, "interval {t}: eviction diverged");
                    }
                }
            }
            let rf = cf
                .step_sharded_full(pf.sharded(), &ExclusiveEngine::new(&mut ef), now)
                .unwrap();
            let rp = cp.step(&mut pp, &mut ep, now).unwrap();
            assert_eq!(rf.prewarmed, rp.prewarmed, "interval {t}: prewarm diverged");
            assert_eq!(rf.retired, rp.retired, "interval {t}: retire diverged");
            assert_eq!(rf.gc_keys, rp.gc_keys, "interval {t}: GC diverged");
            for &(id, predicted, demand) in &rp.demand {
                let reference = rf.demand.iter().find(|&&(k, _, _)| k == id);
                assert_eq!(
                    reference.map(|&(_, p, d)| (p.to_bits(), d)),
                    Some((predicted.to_bits(), demand)),
                    "interval {t}: key {id:?} predicted differently"
                );
            }
            cov.parks += rp.parked;
            for id in pp.sharded().parked_keys() {
                let (avail, in_use) = pp.sharded().live_of_id(id);
                assert_eq!(
                    (avail, in_use),
                    (1, 0),
                    "interval {t}: parked {id:?} not idle at one"
                );
            }
            if headroom != 0.0 {
                assert_eq!(rp.parked, 0, "interval {t}: headroom forbids parking");
            }
        }
        assert_eq!(pf.keys(), pp.keys(), "tracked key sets diverged");
        for key in pf.keys() {
            assert_eq!(pf.num_avail(&key), pp.num_avail(&key), "sizing of {key}");
            assert_eq!(pf.num_in_use(&key), pp.num_in_use(&key));
        }
        assert_eq!(cf.predictor_count(), cp.predictor_count());
        assert_eq!(ef.live_count(), ep.live_count());
    }

    /// A trace of quiet stretches (often longer than the parking horizon)
    /// between short bursts of activity, mostly single-container demand so
    /// keys qualify for parking, at least three horizons long.
    fn lockstep_plan(g: &mut testkit::Gen) -> Vec<Vec<Op>> {
        let horizon = ZERO_RUN_CAP as usize;
        let len = g.usize_in(3 * horizon..4 * horizon);
        let mut plan = Vec::with_capacity(len);
        while plan.len() < len {
            let quiet = if g.bool() {
                g.usize_in(0..12)
            } else {
                g.usize_in(horizon..2 * horizon)
            };
            plan.extend(std::iter::repeat_n(Vec::new(), quiet));
            for _ in 0..g.usize_in(1..4) {
                plan.push(g.vec(0..4, |g| {
                    let k = g.usize_in(0..4);
                    match g.u8_in(0..10) {
                        0..=3 => Op::Demand(k, 1),
                        4 => Op::Demand(k, g.usize_in(2..4)),
                        5 => Op::Hold(k),
                        6 => Op::Prewarm(k),
                        7 => Op::Retire(k),
                        _ => Op::Evict,
                    }
                }));
            }
        }
        plan.truncate(len);
        plan
    }

    /// The parking equivalence: a controller that parks provably idle keys
    /// takes exactly the full sweep's actions at every interval — through
    /// quiet runs longer than the parking horizon, warm hits and held
    /// acquisitions on parked keys, eviction and retirement of parked keys,
    /// and GC and revival — and predicts bit-identically for every key it
    /// steps. At α = 0.8 the trend outlives the cap, so the bound is the
    /// cap; at α ≈ 1 a one-container trend underflows within the cap, so
    /// the bound is tight and a late wake-up would miss a retire.
    #[test]
    fn prop_parking_step_matches_full_sweep() {
        let mut cov = Coverage::default();
        testkit::check(32, |g| {
            let gc = g.u32_in(1..4);
            let alpha = *g.pick(&[0.8, 0.999_999]);
            let plan = lockstep_plan(g);
            run_lockstep(&plan, gc, alpha, 0.0, &mut cov);
        });
        assert!(cov.parks > 0, "no key ever parked");
        assert!(cov.long_quiet > 0, "no quiet run outlasted the horizon");
        assert!(cov.hits_on_parked > 0, "no warm hit on a parked key");
        assert!(
            cov.held_on_parked > 0,
            "no held acquisition of a parked key"
        );
        assert!(cov.evicted_parked > 0, "no parked key was evicted");
        assert!(cov.retired_parked > 0, "no parked key was retired");
        assert!(cov.revived > 0, "no GC'd key came back");
    }

    /// Headroom can push a prediction of at most 1 past one container, and
    /// a key with two or more containers is never parked: with headroom on,
    /// no key may park at all, and the lockstep still holds.
    #[test]
    fn prop_headroom_never_parks() {
        let mut cov = Coverage::default();
        testkit::check(8, |g| {
            let plan = lockstep_plan(g);
            run_lockstep(&plan, 3, 0.8, 0.5, &mut cov);
        });
        assert_eq!(cov.parks, 0);
    }

    #[test]
    #[should_panic(expected = "control interval must be positive")]
    fn zero_interval_rejected() {
        let _ = AdaptiveController::new(ControllerConfig {
            interval: SimDuration::ZERO,
            ..Default::default()
        });
    }
}
