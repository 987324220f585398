//! Outside-in replay benchmark for the HotC workspace.
//!
//! Each workload is a seeded scenario replayed on the host. An untraced run
//! times setup, replay and report of the program as `hotc-sim` runs it; a
//! traced run rebuilds HotC from its public parts and times every call the
//! replay makes into each layer. Both are bracketed by a fixed host-speed
//! probe ([`calibrate`]). See `README.md` for the workloads and the metrics.

pub mod calibrate;
pub mod provider;
pub mod replay;

use replay::Record;

/// A benchmark workload: a scenario template and the property that makes it
/// the workload it is.
pub struct Workload {
    /// Name passed as `--workload`.
    pub name: &'static str,
    template: &'static str,
    /// Requests one replay serves.
    pub requests: u64,
    property: fn(&Record) -> Result<(), String>,
}

/// The benchmark's workloads.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "zipf_10k_evict",
        template: include_str!("../scenarios/zipf_10k_evict.hotc"),
        requests: 30_000,
        property: evicts_per_cold_start,
    },
    Workload {
        name: "hot_set_warm",
        template: include_str!("../scenarios/hot_set_warm.hotc"),
        requests: 600_000,
        property: stays_warm,
    },
    Workload {
        name: "flash_crowd_cap",
        template: include_str!("../scenarios/flash_crowd_cap.hotc"),
        requests: 400_000,
        property: crowds_over_cap,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The scenario text for `seed`, serving `requests` requests.
    pub fn scenario(&self, seed: u64, requests: u64) -> String {
        self.template
            .replace("{seed}", &seed.to_string())
            .replace("{requests}", &requests.to_string())
    }

    /// The output checks against the reference digest `expected`, then the
    /// workload's defining property.
    pub fn check(&self, r: &Record, expected: u64) -> Result<(), String> {
        replay::check_outputs(r, expected)?;
        (self.property)(r).map_err(|e| format!("{} lost its defining property: {e}", self.name))
    }
}

/// Cold starts over the cap evict: the eviction-churn case.
fn evicts_per_cold_start(r: &Record) -> Result<(), String> {
    let ratio = r.evictions as f64 / r.counter_cold_starts.max(1) as f64;
    if ratio < 0.9 {
        return Err(format!("{ratio:.3} evictions per cold start, want >= 0.9"));
    }
    Ok(())
}

/// The hot set fits under the cap: nothing is evicted, nearly all reuse.
fn stays_warm(r: &Record) -> Result<(), String> {
    let warm = 1.0 - r.cold_start_frac;
    if r.evictions != 0 || warm < 0.99 {
        return Err(format!(
            "{} evictions and warm-hit ratio {warm:.4}, want 0 and >= 0.99",
            r.evictions
        ));
    }
    Ok(())
}

/// The crowd keeps hundreds of requests in flight and pushes `pool/live`
/// over the 500-container cap.
fn crowds_over_cap(r: &Record) -> Result<(), String> {
    if r.max_inflight <= 100 || r.peak_live <= 500 {
        return Err(format!(
            "{} requests in flight at peak and pool/live peak {}, want > 100 and > 500",
            r.max_inflight, r.peak_live
        ));
    }
    Ok(())
}
