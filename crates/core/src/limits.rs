//! Resource guardrails for the live pool (§IV-B "Container Runtime Pool").
//!
//! "In our current design, we set the maximum number of live containers to
//! 500 and the memory usage threshold as 80 % in the host. We used a
//! heuristic method to identify the memory pressure through monitoring
//! used_mem and used_swap in the kernel. If there exist too many containers
//! or fewer resources, the oldest live container is forcibly terminated."

use crate::pool::ContainerPool;
use crate::shard::{EngineRef, ExclusiveEngine, ShardedPool};
use containersim::{ContainerEngine, EngineError};
use simclock::{SimDuration, SimTime};

/// Pool resource limits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoolLimits {
    /// Maximum live containers in the pool (paper: 500).
    pub max_live: usize,
    /// Host memory-pressure threshold in `[0, 1]` over
    /// `(used_mem + used_swap) / physical` (paper: 0.8).
    pub mem_threshold: f64,
}

impl Default for PoolLimits {
    fn default() -> Self {
        PoolLimits {
            max_live: 500,
            mem_threshold: 0.8,
        }
    }
}

impl PoolLimits {
    /// Creates explicit limits.
    pub fn new(max_live: usize, mem_threshold: f64) -> Self {
        assert!(max_live >= 1, "pool must allow at least one container");
        assert!(
            (0.0..=1.5).contains(&mem_threshold),
            "threshold must be a sane fraction"
        );
        PoolLimits {
            max_live,
            mem_threshold,
        }
    }

    /// Whether the pool/host currently violates a limit.
    pub fn violated(&self, pool: &ContainerPool, engine: &ContainerEngine) -> bool {
        pool.total_live() > self.max_live || engine.host().memory_pressure() > self.mem_threshold
    }

    /// Evicts oldest-first until limits hold (or no available container
    /// remains to evict — in-flight containers are never killed). Returns
    /// the accumulated teardown cost.
    pub fn enforce(
        &self,
        pool: &mut ContainerPool,
        engine: &mut ContainerEngine,
        now: SimTime,
    ) -> Result<SimDuration, EngineError> {
        self.enforce_sharded(pool.sharded(), &ExclusiveEngine::new(engine), now)
    }

    /// [`Self::enforce`], also reporting how many containers were evicted —
    /// see [`Self::enforce_sharded_counted`].
    pub fn enforce_counted(
        &self,
        pool: &mut ContainerPool,
        engine: &mut ContainerEngine,
        now: SimTime,
    ) -> Result<(SimDuration, usize), EngineError> {
        self.enforce_sharded_counted(pool.sharded(), &ExclusiveEngine::new(engine), now)
    }

    /// Sharded variant of [`Self::violated`]. Reads the pool's live count
    /// (one shard lock at a time) and the host memory pressure (engine lock)
    /// sequentially — the two locks are never nested.
    pub fn violated_sharded(&self, pool: &ShardedPool, engine: &impl EngineRef) -> bool {
        pool.total_live() > self.max_live
            || engine.with_engine(|e| e.host().memory_pressure()) > self.mem_threshold
    }

    /// Sharded variant of [`Self::enforce`]: two-phase oldest-first eviction
    /// until limits hold or no available container remains.
    pub fn enforce_sharded(
        &self,
        pool: &ShardedPool,
        engine: &impl EngineRef,
        now: SimTime,
    ) -> Result<SimDuration, EngineError> {
        self.enforce_sharded_counted(pool, engine, now)
            .map(|(cost, _)| cost)
    }

    /// [`Self::enforce_sharded`], also reporting how many containers were
    /// evicted — the telemetry layer counts forced evictions separately from
    /// controller-driven retires.
    pub fn enforce_sharded_counted(
        &self,
        pool: &ShardedPool,
        engine: &impl EngineRef,
        now: SimTime,
    ) -> Result<(SimDuration, usize), EngineError> {
        let mut cost = SimDuration::ZERO;
        let mut evicted = 0;
        while self.violated_sharded(pool, engine) {
            match pool.evict_oldest(engine, now)? {
                Some(c) => {
                    cost += c;
                    evicted += 1;
                }
                None => break,
            }
        }
        Ok((cost, evicted))
    }
}

impl stdshim::ToJson for PoolLimits {
    fn to_json(&self) -> stdshim::JsonValue {
        stdshim::JsonValue::object([
            ("max_live", stdshim::ToJson::to_json(&self.max_live)),
            (
                "mem_threshold",
                stdshim::ToJson::to_json(&self.mem_threshold),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::KeyPolicy;
    use containersim::{ContainerConfig, HardwareProfile, ImageId};

    fn setup() -> (ContainerEngine, ContainerPool) {
        (
            ContainerEngine::with_local_images(HardwareProfile::server()),
            ContainerPool::new(KeyPolicy::Exact),
        )
    }

    fn cfg() -> ContainerConfig {
        ContainerConfig::bridge(ImageId::parse("alpine:3.12"))
    }

    #[test]
    fn default_limits_match_paper() {
        let limits = PoolLimits::default();
        assert_eq!(limits.max_live, 500);
        assert!((limits.mem_threshold - 0.8).abs() < 1e-12);
    }

    #[test]
    fn enforce_trims_to_max_live() {
        let (mut e, mut pool) = setup();
        let limits = PoolLimits::new(3, 0.99);
        for i in 0..6 {
            pool.prewarm(&mut e, &cfg(), SimTime::from_secs(i)).unwrap();
        }
        assert!(limits.violated(&pool, &e));
        let cost = limits
            .enforce(&mut pool, &mut e, SimTime::from_secs(10))
            .unwrap();
        assert!(!cost.is_zero());
        assert_eq!(pool.total_live(), 3);
        assert!(!limits.violated(&pool, &e));
        // The newest three survive (oldest evicted first).
        // Ids are handed out in creation order: 1..=6 were born at 0..=5 s.
        let born: Vec<SimTime> = (1..=6)
            .filter_map(|n| e.created_at(containersim::ContainerId(n)))
            .collect();
        assert_eq!(born, [3, 4, 5].map(SimTime::from_secs));
    }

    #[test]
    fn enforce_stops_when_only_busy_remain() {
        let (mut e, mut pool) = setup();
        let limits = PoolLimits::new(1, 0.99);
        // Two busy containers (never released): cannot be evicted.
        pool.acquire(&mut e, &cfg(), SimTime::ZERO).unwrap();
        pool.acquire(&mut e, &cfg(), SimTime::ZERO).unwrap();
        assert!(limits.violated(&pool, &e));
        limits
            .enforce(&mut pool, &mut e, SimTime::from_secs(1))
            .unwrap();
        // Still violated, but enforce terminated rather than spinning.
        assert_eq!(pool.total_live(), 2);
    }

    #[test]
    fn memory_pressure_triggers_eviction() {
        // A tiny edge host: Pi with 1 GB. JVM containers at ~49 MB idle each.
        let mut e = ContainerEngine::with_local_images(HardwareProfile::raspberry_pi3());
        let mut pool = ContainerPool::new(KeyPolicy::Exact);
        let jvm = ContainerConfig::bridge(ImageId::parse("openjdk:8-jre"));
        let limits = PoolLimits::new(500, 0.5);
        for i in 0..12 {
            pool.prewarm(&mut e, &jvm, SimTime::from_secs(i)).unwrap();
        }
        assert!(e.host().memory_pressure() > 0.5);
        limits
            .enforce(&mut pool, &mut e, SimTime::from_secs(20))
            .unwrap();
        assert!(e.host().memory_pressure() <= 0.5);
        assert!(pool.total_live() < 12);
    }

    #[test]
    #[should_panic(expected = "at least one container")]
    fn zero_max_rejected() {
        let _ = PoolLimits::new(0, 0.8);
    }
}
