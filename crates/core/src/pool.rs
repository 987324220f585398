//! The live container runtime pool (§IV-B, Fig. 7, Algorithms 1–2).
//!
//! "HotC maintains a key value store to track the available containers. The
//! key is the formatted parameter configurations for each container and the
//! value is a list with container ID and state of the container."
//!
//! States follow Fig. 7: *Not-Existing (-1)*, *Existing-Not-Available (0)*
//! (running a request), *Existing-Available (1)* (idle in the pool, clean,
//! ready for reuse). Algorithm 1 (`acquire`) reuses the first available
//! container of the requested type or cold-starts one; Algorithm 2
//! (`release`) cleans the used container (wipe volume + remount) and returns
//! it to the pool, incrementing `num_avail[key]`.
//!
//! [`ContainerPool`] is the single-threaded façade over the sharded pool in
//! [`crate::shard`]: same bookkeeping, exclusive `&mut` engine access, no
//! lock contention. Concurrent frontends use [`crate::ShardedPool`] directly.

use crate::key::{KeyPolicy, RuntimeKey};
use crate::shard::{ExclusiveEngine, ShardedPool};
use containersim::{ContainerConfig, ContainerEngine, ContainerId, EngineError};
use faas::Acquisition;
use simclock::{SimDuration, SimTime};

/// The HotC container pool.
///
/// ```
/// use containersim::{ContainerConfig, ContainerEngine, HardwareProfile, ImageId};
/// use hotc::{ContainerPool, KeyPolicy};
/// use simclock::SimTime;
///
/// let mut engine = ContainerEngine::with_local_images(HardwareProfile::server());
/// let mut pool = ContainerPool::new(KeyPolicy::Exact);
/// let config = ContainerConfig::bridge(ImageId::parse("python:3.8-alpine"));
///
/// // Algorithm 1: first acquire cold-starts, …
/// let first = pool.acquire(&mut engine, &config, SimTime::ZERO).unwrap();
/// assert!(first.cold);
/// # let out = engine.begin_exec(first.container,
/// #     containersim::engine::ExecWork::light(simclock::SimDuration::from_millis(1)),
/// #     SimTime::ZERO).unwrap();
/// # engine.end_exec(first.container, SimTime::ZERO + out.latency).unwrap();
/// // … Algorithm 2 cleans and re-pools, and the next acquire reuses.
/// pool.release(&mut engine, first.container, SimTime::from_secs(1)).unwrap();
/// let second = pool.acquire(&mut engine, &config, SimTime::from_secs(2)).unwrap();
/// assert!(!second.cold);
/// assert_eq!(second.container, first.container);
/// ```
#[derive(Debug)]
pub struct ContainerPool {
    inner: ShardedPool,
}

impl ContainerPool {
    /// Creates an empty pool with the given key policy.
    pub fn new(policy: KeyPolicy) -> Self {
        ContainerPool {
            inner: ShardedPool::new(policy),
        }
    }

    /// Creates an empty pool with an explicit shard count.
    pub fn with_shards(policy: KeyPolicy, shards: usize) -> Self {
        ContainerPool {
            inner: ShardedPool::with_shards(policy, shards),
        }
    }

    /// The sharded pool backing this façade.
    pub fn sharded(&self) -> &ShardedPool {
        &self.inner
    }

    /// Overrides the empty-slot GC threshold (consecutive zero-demand
    /// snapshots before an empty slot is dropped).
    pub fn set_gc_intervals(&mut self, intervals: u32) {
        self.inner.set_gc_intervals(intervals);
    }

    /// The key policy in force.
    pub fn policy(&self) -> KeyPolicy {
        self.inner.policy()
    }

    /// The runtime key for a configuration under this pool's policy.
    pub fn key_of(&self, config: &ContainerConfig) -> RuntimeKey {
        self.inner.key_of(config)
    }

    /// Algorithm 1: obtain a runtime for `config`. Reuses the first
    /// available container of the same type if one exists, otherwise starts
    /// a new container. Returns the acquisition (reuse cost is zero, or the
    /// fuzzy reconfiguration cost when configs differ under a fuzzy key).
    /// A failed cold start records nothing: no phantom slot is left behind.
    pub fn acquire(
        &mut self,
        engine: &mut ContainerEngine,
        config: &ContainerConfig,
        now: SimTime,
    ) -> Result<Acquisition, EngineError> {
        self.inner
            .acquire(&ExclusiveEngine::new(engine), config, now)
    }

    /// Algorithm 2: clean the used container and add it back to the pool
    /// (`num_avail[key]++`). A crashed (Stopped) container cannot be reused:
    /// it is disposed of instead. Releasing a container that was never
    /// acquired from this pool — or releasing twice — is an
    /// [`EngineError::InvalidState`]. Returns the cleanup/disposal cost
    /// (off the request path).
    pub fn release(
        &mut self,
        engine: &mut ContainerEngine,
        container: ContainerId,
        now: SimTime,
    ) -> Result<SimDuration, EngineError> {
        self.inner
            .release(&ExclusiveEngine::new(engine), container, now)
    }

    /// Pre-warms one container of the given configuration (adaptive
    /// controller's scale-up action). The container boots straight into the
    /// Existing-Available state. Returns the cold-start cost (background).
    pub fn prewarm(
        &mut self,
        engine: &mut ContainerEngine,
        config: &ContainerConfig,
        now: SimTime,
    ) -> Result<SimDuration, EngineError> {
        self.inner
            .prewarm(&ExclusiveEngine::new(engine), config, now)
    }

    /// Pre-warms one container for an already-tracked key using the slot's
    /// stored configuration; `Ok(None)` if the key is unknown.
    pub fn prewarm_key(
        &mut self,
        engine: &mut ContainerEngine,
        key: &RuntimeKey,
        now: SimTime,
    ) -> Result<Option<SimDuration>, EngineError> {
        self.inner
            .prewarm_key(&ExclusiveEngine::new(engine), key, now)
    }

    /// Retires one available container of the given type (adaptive
    /// controller's scale-down action). Returns the teardown cost, or `None`
    /// if none was available.
    pub fn retire_one(
        &mut self,
        engine: &mut ContainerEngine,
        key: &RuntimeKey,
        now: SimTime,
    ) -> Result<Option<SimDuration>, EngineError> {
        self.inner
            .retire_one(&ExclusiveEngine::new(engine), key, now)
    }

    /// Forcibly terminates the *oldest* available live container across all
    /// types (§IV-B's response to too many containers / memory pressure).
    /// Returns the teardown cost, or `None` if the pool holds no available
    /// container.
    pub fn evict_oldest(
        &mut self,
        engine: &mut ContainerEngine,
        now: SimTime,
    ) -> Result<Option<SimDuration>, EngineError> {
        self.inner.evict_oldest(&ExclusiveEngine::new(engine), now)
    }

    /// `num_avail[key]`: available containers of the given type.
    pub fn num_avail(&self, key: &RuntimeKey) -> usize {
        self.inner.num_avail(key)
    }

    /// In-use containers of the given type.
    pub fn num_in_use(&self, key: &RuntimeKey) -> usize {
        self.inner.num_in_use(key)
    }

    /// Total live containers tracked by the pool (available + in use).
    pub fn total_live(&self) -> usize {
        self.inner.total_live()
    }

    /// Total available containers across all types.
    pub fn total_available(&self) -> usize {
        self.inner.total_available()
    }

    /// The Fig. 7 pool-view code for a container: 1 Existing-Available, 0
    /// Existing-Not-Available, -1 Not-Existing.
    pub fn pool_code(&self, engine: &ContainerEngine, container: ContainerId) -> i8 {
        self.inner.pool_code(engine, container)
    }

    /// Takes the per-key demand snapshot (`history[k][t]`) and resets the
    /// watermarks for the next control interval. Keys with live containers
    /// are always reported, including zero-demand intervals; slots that have
    /// been empty for the GC threshold's worth of consecutive zero-demand
    /// snapshots are dropped.
    pub fn take_demand_snapshot(&mut self) -> Vec<(RuntimeKey, usize)> {
        self.inner.take_demand_snapshot()
    }

    /// The keys the pool currently tracks, sorted.
    pub fn keys(&self) -> Vec<RuntimeKey> {
        self.inner.keys()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::FUZZY_RECONFIG_COST;
    use containersim::container::ExecOptions;
    use containersim::engine::ExecWork;
    use containersim::{ContainerState, HardwareProfile, ImageId, ImageRegistry};

    fn engine() -> ContainerEngine {
        ContainerEngine::with_local_images(HardwareProfile::server())
    }

    fn cfg(image: &str) -> ContainerConfig {
        ContainerConfig::bridge(ImageId::parse(image))
    }

    fn run_request(
        pool: &mut ContainerPool,
        engine: &mut ContainerEngine,
        config: &ContainerConfig,
        now: SimTime,
    ) -> Acquisition {
        let acq = pool.acquire(engine, config, now).unwrap();
        let out = engine
            .begin_exec(
                acq.container,
                ExecWork::light(SimDuration::from_millis(10)),
                now,
            )
            .unwrap();
        engine.end_exec(acq.container, now + out.latency).unwrap();
        pool.release(engine, acq.container, now + out.latency)
            .unwrap();
        acq
    }

    #[test]
    fn algorithm1_reuse_or_start() {
        let mut e = engine();
        let mut pool = ContainerPool::new(KeyPolicy::Exact);
        let c = cfg("python:3.8-alpine");

        let a1 = run_request(&mut pool, &mut e, &c, SimTime::ZERO);
        assert!(a1.cold, "first request cold-starts");
        let key = pool.key_of(&c);
        assert_eq!(pool.num_avail(&key), 1);

        let a2 = run_request(&mut pool, &mut e, &c, SimTime::from_secs(1));
        assert!(!a2.cold, "second request reuses");
        assert_eq!(a2.container, a1.container);
        assert!(a2.cost.is_zero());
    }

    #[test]
    fn num_avail_bookkeeping_matches_algorithms() {
        let mut e = engine();
        let mut pool = ContainerPool::new(KeyPolicy::Exact);
        let c = cfg("alpine:3.12");
        let key = pool.key_of(&c);

        let acq = pool.acquire(&mut e, &c, SimTime::ZERO).unwrap();
        assert_eq!(pool.num_avail(&key), 0);
        assert_eq!(pool.num_in_use(&key), 1);

        let out = e
            .begin_exec(
                acq.container,
                ExecWork::light(SimDuration::from_millis(5)),
                SimTime::ZERO,
            )
            .unwrap();
        e.end_exec(acq.container, SimTime::ZERO + out.latency)
            .unwrap();
        pool.release(&mut e, acq.container, SimTime::from_secs(1))
            .unwrap();
        assert_eq!(pool.num_avail(&key), 1);
        assert_eq!(pool.num_in_use(&key), 0);
    }

    #[test]
    fn occupied_containers_trigger_new_start() {
        let mut e = engine();
        let mut pool = ContainerPool::new(KeyPolicy::Exact);
        let c = cfg("alpine:3.12");
        // Acquire twice without releasing: both cold, two containers.
        let a1 = pool.acquire(&mut e, &c, SimTime::ZERO).unwrap();
        let a2 = pool.acquire(&mut e, &c, SimTime::ZERO).unwrap();
        assert!(a1.cold && a2.cold);
        assert_ne!(a1.container, a2.container);
        assert_eq!(pool.total_live(), 2);
    }

    #[test]
    fn different_types_never_share() {
        let mut e = engine();
        let mut pool = ContainerPool::new(KeyPolicy::Exact);
        run_request(&mut pool, &mut e, &cfg("python:3.8-alpine"), SimTime::ZERO);
        let b = run_request(
            &mut pool,
            &mut e,
            &cfg("golang:1.13"),
            SimTime::from_secs(1),
        );
        assert!(b.cold, "different image must not reuse python runtime");
    }

    #[test]
    fn exact_policy_rejects_env_mismatch_fuzzy_accepts() {
        let base = cfg("python:3.8-alpine");
        let with_env = base
            .clone()
            .with_exec(ExecOptions::default().with_env("MODE", "fast"));

        // Exact: env difference ⇒ cold.
        let mut e = engine();
        let mut exact = ContainerPool::new(KeyPolicy::Exact);
        run_request(&mut exact, &mut e, &base, SimTime::ZERO);
        let a = run_request(&mut exact, &mut e, &with_env, SimTime::from_secs(1));
        assert!(a.cold);

        // Fuzzy: same image+network ⇒ reuse with a reconfig cost.
        let mut e2 = engine();
        let mut fuzzy = ContainerPool::new(KeyPolicy::Fuzzy);
        run_request(&mut fuzzy, &mut e2, &base, SimTime::ZERO);
        let b = fuzzy
            .acquire(&mut e2, &with_env, SimTime::from_secs(1))
            .unwrap();
        assert!(!b.cold);
        assert_eq!(b.cost, FUZZY_RECONFIG_COST);
    }

    #[test]
    fn prewarm_makes_next_request_warm() {
        let mut e = engine();
        let mut pool = ContainerPool::new(KeyPolicy::Exact);
        let c = cfg("openjdk:8-jre");
        let cost = pool.prewarm(&mut e, &c, SimTime::ZERO).unwrap();
        assert!(!cost.is_zero());
        let acq = pool.acquire(&mut e, &c, SimTime::from_secs(1)).unwrap();
        assert!(!acq.cold, "prewarmed container serves the request");
    }

    #[test]
    fn retire_and_evict() {
        let mut e = engine();
        let mut pool = ContainerPool::new(KeyPolicy::Exact);
        let c = cfg("alpine:3.12");
        let key = pool.key_of(&c);
        for i in 0..3 {
            pool.prewarm(&mut e, &c, SimTime::from_secs(i)).unwrap();
        }
        assert_eq!(pool.num_avail(&key), 3);

        let retired = pool
            .retire_one(&mut e, &key, SimTime::from_secs(10))
            .unwrap();
        assert!(retired.is_some());
        assert_eq!(pool.num_avail(&key), 2);
        assert_eq!(e.live_count(), 2);

        // Eviction removes the *oldest* (created at t=1 after the retire
        // popped the t=0 one from the FIFO front).
        let oldest = pool
            .sharded()
            .oldest_available_scan(&ExclusiveEngine::new(&mut e))
            .unwrap();
        assert_eq!(e.created_at(oldest), Some(SimTime::from_secs(1)));
        pool.evict_oldest(&mut e, SimTime::from_secs(11)).unwrap();
        assert_eq!(e.state(oldest), ContainerState::Removed);
        assert_eq!(pool.num_avail(&key), 1);
    }

    #[test]
    fn evict_on_empty_pool_is_none() {
        let mut e = engine();
        let mut pool = ContainerPool::new(KeyPolicy::Exact);
        assert!(pool.evict_oldest(&mut e, SimTime::ZERO).unwrap().is_none());
        let key = pool.key_of(&cfg("alpine:3.12"));
        assert!(pool
            .retire_one(&mut e, &key, SimTime::ZERO)
            .unwrap()
            .is_none());
    }

    #[test]
    fn pool_codes_match_fig7() {
        let mut e = engine();
        let mut pool = ContainerPool::new(KeyPolicy::Exact);
        let c = cfg("alpine:3.12");

        let acq = pool.acquire(&mut e, &c, SimTime::ZERO).unwrap();
        // In use ⇒ Existing-Not-Available (0).
        assert_eq!(pool.pool_code(&e, acq.container), 0);

        let out = e
            .begin_exec(
                acq.container,
                ExecWork::light(SimDuration::from_millis(5)),
                SimTime::ZERO,
            )
            .unwrap();
        e.end_exec(acq.container, SimTime::ZERO + out.latency)
            .unwrap();
        pool.release(&mut e, acq.container, SimTime::from_secs(1))
            .unwrap();
        // Available ⇒ 1.
        assert_eq!(pool.pool_code(&e, acq.container), 1);

        let key = pool.key_of(&c);
        pool.retire_one(&mut e, &key, SimTime::from_secs(2))
            .unwrap();
        // Gone ⇒ -1.
        assert_eq!(pool.pool_code(&e, acq.container), -1);
    }

    #[test]
    fn demand_snapshot_reports_watermark_and_resets() {
        let mut e = engine();
        let mut pool = ContainerPool::new(KeyPolicy::Exact);
        let c = cfg("alpine:3.12");
        // Three concurrent acquisitions.
        let acqs: Vec<_> = (0..3)
            .map(|_| pool.acquire(&mut e, &c, SimTime::ZERO).unwrap())
            .collect();
        for acq in &acqs {
            let out = e
                .begin_exec(
                    acq.container,
                    ExecWork::light(SimDuration::from_millis(5)),
                    SimTime::ZERO,
                )
                .unwrap();
            e.end_exec(acq.container, SimTime::ZERO + out.latency)
                .unwrap();
            pool.release(&mut e, acq.container, SimTime::from_secs(1))
                .unwrap();
        }
        let snap = pool.take_demand_snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].1, 3, "watermark saw 3 concurrent");
        // After reset with nothing in use, next snapshot reports 0.
        let snap2 = pool.take_demand_snapshot();
        assert_eq!(snap2[0].1, 0);
    }

    /// Regression (phantom slots): a failed cold start must not record a
    /// slot — before the fix, `acquire` inserted the slot before calling
    /// `create_container`, so an unknown image left an empty slot that
    /// `take_demand_snapshot` reported forever.
    #[test]
    fn failed_cold_start_leaves_no_phantom_slot() {
        let mut e = engine();
        let mut pool = ContainerPool::new(KeyPolicy::Exact);
        let err = pool
            .acquire(&mut e, &cfg("no-such-image:1.0"), SimTime::ZERO)
            .unwrap_err();
        assert!(matches!(err, EngineError::UnknownImage(_)));
        assert!(
            pool.keys().is_empty(),
            "failed create must not leave a slot"
        );
        assert!(pool.take_demand_snapshot().is_empty());
    }

    /// Same, for an image the registry knows but whose pull fails validation
    /// — any create error path must leave the pool untouched.
    #[test]
    fn failed_cold_start_never_pollutes_existing_slot_set() {
        let registry = ImageRegistry::with_default_catalogue();
        let mut e = ContainerEngine::new(registry, HardwareProfile::server());
        let mut pool = ContainerPool::new(KeyPolicy::Exact);
        run_request(&mut pool, &mut e, &cfg("alpine:3.12"), SimTime::ZERO);
        let before = pool.keys();
        let _ = pool
            .acquire(&mut e, &cfg("ghost:0.0"), SimTime::from_secs(1))
            .unwrap_err();
        assert_eq!(pool.keys(), before);
    }

    /// Regression (release without acquire): before the fix a release of a
    /// container the pool never handed out `saturating_sub`'d `in_use` and
    /// pushed the id into `available` — the same container could then serve
    /// two requests at once. Now it's an error and the pool is unchanged.
    #[test]
    fn release_of_unacquired_container_is_rejected() {
        let mut e = engine();
        let mut pool = ContainerPool::new(KeyPolicy::Exact);
        // A container created behind the pool's back.
        let (stray, _) = e
            .create_container(cfg("alpine:3.12"), SimTime::ZERO)
            .unwrap();
        let err = pool
            .release(&mut e, stray, SimTime::from_secs(1))
            .unwrap_err();
        assert!(matches!(err, EngineError::InvalidState { id, .. } if id == stray));
        let key = pool.key_of(&cfg("alpine:3.12"));
        assert_eq!(pool.num_avail(&key), 0, "stray id must not be pooled");
        assert_eq!(pool.num_in_use(&key), 0);
        assert_eq!(e.state(stray), ContainerState::Idle, "engine untouched");
    }

    /// Regression (double release): the second release of the same
    /// container must fail instead of double-pooling the id.
    #[test]
    fn double_release_is_rejected() {
        let mut e = engine();
        let mut pool = ContainerPool::new(KeyPolicy::Exact);
        let c = cfg("alpine:3.12");
        let acq = pool.acquire(&mut e, &c, SimTime::ZERO).unwrap();
        let out = e
            .begin_exec(
                acq.container,
                ExecWork::light(SimDuration::from_millis(1)),
                SimTime::ZERO,
            )
            .unwrap();
        e.end_exec(acq.container, SimTime::ZERO + out.latency)
            .unwrap();
        pool.release(&mut e, acq.container, SimTime::from_secs(1))
            .unwrap();
        let err = pool
            .release(&mut e, acq.container, SimTime::from_secs(2))
            .unwrap_err();
        assert!(matches!(err, EngineError::InvalidState { .. }));
        let key = pool.key_of(&c);
        assert_eq!(pool.num_avail(&key), 1, "exactly one pooled copy");
        // The pooled copy still round-trips.
        let again = pool.acquire(&mut e, &c, SimTime::from_secs(3)).unwrap();
        assert!(!again.cold);
        assert_eq!(again.container, acq.container);
    }

    /// A failed cleanup (release while still Running) must leave the
    /// container claimable, not stranded outside the bookkeeping.
    #[test]
    fn failed_cleanup_keeps_container_in_use() {
        let mut e = engine();
        let mut pool = ContainerPool::new(KeyPolicy::Exact);
        let c = cfg("alpine:3.12");
        let acq = pool.acquire(&mut e, &c, SimTime::ZERO).unwrap();
        e.begin_exec(
            acq.container,
            ExecWork::light(SimDuration::from_millis(5)),
            SimTime::ZERO,
        )
        .unwrap();
        // Still Running: the engine rejects the cleanup.
        let err = pool
            .release(&mut e, acq.container, SimTime::from_secs(1))
            .unwrap_err();
        assert!(matches!(err, EngineError::InvalidState { .. }));
        let key = pool.key_of(&c);
        assert_eq!(pool.num_in_use(&key), 1, "claim handed back on failure");
        // Finish properly and the release succeeds.
        e.end_exec(acq.container, SimTime::from_secs(2)).unwrap();
        pool.release(&mut e, acq.container, SimTime::from_secs(3))
            .unwrap();
        assert_eq!(pool.num_avail(&key), 1);
    }

    /// Regression (unbounded slot maps): a slot whose containers have all
    /// been retired is garbage-collected after the configured number of
    /// consecutive zero-demand snapshots, so `keys()` and the controller's
    /// predictor maps stop growing across distinct configs.
    #[test]
    fn empty_slots_are_garbage_collected() {
        let mut e = engine();
        let mut pool = ContainerPool::new(KeyPolicy::Exact);
        pool.set_gc_intervals(2);
        let c = cfg("alpine:3.12");
        let key = pool.key_of(&c);
        run_request(&mut pool, &mut e, &c, SimTime::ZERO);
        pool.retire_one(&mut e, &key, SimTime::from_secs(1))
            .unwrap();
        assert_eq!(pool.total_live(), 0);

        // First zero-demand snapshot still reports the key (it served
        // traffic this interval)…
        let snap = pool.take_demand_snapshot();
        assert_eq!(snap.len(), 1);
        // …the next two empty intervals reach the threshold and GC it.
        assert_eq!(pool.take_demand_snapshot().len(), 1);
        assert!(pool.take_demand_snapshot().is_empty());
        assert!(pool.keys().is_empty());

        // A slot with an idle container is never GC'd.
        pool.prewarm(&mut e, &c, SimTime::from_secs(100)).unwrap();
        for _ in 0..5 {
            assert_eq!(pool.take_demand_snapshot().len(), 1);
        }
    }

    /// GC'd keys come back transparently: the next request for the config
    /// cold-starts and re-creates the slot.
    #[test]
    fn gc_then_reacquire_recreates_slot() {
        let mut e = engine();
        let mut pool = ContainerPool::new(KeyPolicy::Exact);
        pool.set_gc_intervals(1);
        let c = cfg("golang:1.13");
        run_request(&mut pool, &mut e, &c, SimTime::ZERO);
        let key = pool.key_of(&c);
        pool.retire_one(&mut e, &key, SimTime::from_secs(1))
            .unwrap();
        pool.take_demand_snapshot(); // served-traffic interval
        pool.take_demand_snapshot(); // zero interval ⇒ GC
        assert!(pool.keys().is_empty());
        let acq = pool.acquire(&mut e, &c, SimTime::from_secs(2)).unwrap();
        assert!(acq.cold);
        assert_eq!(pool.keys(), vec![key]);
    }

    /// Pool invariant: total_live equals the engine's live count under
    /// any interleaving of acquire/release/prewarm/retire/evict, and all
    /// available containers are Idle in the engine.
    #[test]
    fn prop_pool_engine_consistency() {
        testkit::check(64, |g| {
            let ops = g.vec(1..60, |g| g.u8_in(0..5));
            let mut e = engine();
            let mut pool = ContainerPool::new(KeyPolicy::Exact);
            let configs = [cfg("alpine:3.12"), cfg("python:3.8-alpine")];
            let mut busy: Vec<ContainerId> = Vec::new();
            for (i, &op) in ops.iter().enumerate() {
                let now = SimTime::from_secs(i as u64);
                let c = &configs[i % 2];
                match op {
                    0 => {
                        let acq = pool.acquire(&mut e, c, now).unwrap();
                        let out = e
                            .begin_exec(
                                acq.container,
                                ExecWork::light(SimDuration::from_millis(1)),
                                now,
                            )
                            .unwrap();
                        e.end_exec(acq.container, now + out.latency).unwrap();
                        busy.push(acq.container);
                    }
                    1 => {
                        if let Some(id) = busy.pop() {
                            pool.release(&mut e, id, now).unwrap();
                        }
                    }
                    2 => {
                        pool.prewarm(&mut e, c, now).unwrap();
                    }
                    3 => {
                        let key = pool.key_of(c);
                        pool.retire_one(&mut e, &key, now).unwrap();
                    }
                    _ => {
                        pool.evict_oldest(&mut e, now).unwrap();
                    }
                }
                assert_eq!(pool.total_live(), e.live_count());
                assert_eq!(pool.total_available() + busy.len(), e.live_count());
            }
        });
    }
}
