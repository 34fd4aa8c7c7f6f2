//! Host shape and the noise guard: every result says what machine
//! produced it, and a run on a host that cannot give the workload its
//! threads is marked `degraded` instead of silently publishing a slow
//! number.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use crate::json::Json;

/// What a result carries about the machine it ran on.
#[derive(Debug, Clone, PartialEq)]
pub struct Host {
    pub host_cpus: usize,
    pub rustc: String,
    pub load_avg_1m: f64,
    /// Why the numbers should not be trusted, when they should not.
    pub degraded: Option<String>,
}

impl Host {
    /// The host shape. The load average is the one `run.sh` read before
    /// it built anything, handed down through the environment to every
    /// child of the suite: read here, it would be the benchmark's own
    /// build and previous workload, and every run would call itself
    /// degraded.
    pub fn probe() -> Host {
        let host_cpus = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let load_avg_1m = std::env::var("CAPM_BENCH_LOAD_AVG_1M")
            .ok()
            .or_else(|| std::fs::read_to_string("/proc/loadavg").ok())
            .and_then(|s| s.split_whitespace().next()?.parse().ok())
            .unwrap_or(0.0);
        Host {
            host_cpus,
            // run.sh exports it; the binary itself cannot ask.
            rustc: std::env::var("CAPM_BENCH_RUSTC").unwrap_or_else(|_| "unknown".to_string()),
            load_avg_1m,
            degraded: degraded_reason(host_cpus, load_avg_1m),
        }
    }

    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("host_cpus".to_string(), Json::Num(self.host_cpus as f64)),
            ("rustc".to_string(), Json::Str(self.rustc.clone())),
            ("load_avg_1m".to_string(), Json::Num(self.load_avg_1m)),
            (
                "degraded".to_string(),
                self.degraded.clone().map_or(Json::Null, Json::Str),
            ),
        ])
    }

    pub fn from_json(value: &Json) -> Option<Host> {
        Some(Host {
            host_cpus: value.get("host_cpus")?.as_u64()? as usize,
            rustc: value.get("rustc")?.as_str()?.to_string(),
            load_avg_1m: value.get("load_avg_1m")?.as_f64()?,
            degraded: value.get("degraded")?.as_str().map(str::to_string),
        })
    }
}

/// One CPU cannot run the engine thread beside the load generator and
/// the HTTP workers; a busy host steals the engine's core.
pub fn degraded_reason(host_cpus: usize, load_avg_1m: f64) -> Option<String> {
    if host_cpus < 2 {
        Some(format!(
            "{host_cpus} cpu: engine, http workers and load generator share one core"
        ))
    } else if load_avg_1m > host_cpus as f64 / 2.0 {
        Some(format!(
            "1-min load average {load_avg_1m} exceeded half of {host_cpus} cpus when run.sh started"
        ))
    } else {
        None
    }
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The system allocator with a call counter that only counts while
/// armed (the traced pass arms it; untraced runs pay one relaxed load
/// per allocation).
pub struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a statistic
// that publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Starts counting allocations (all threads); returns the count so far.
pub fn arm_alloc_counter() -> u64 {
    ARMED.store(true, Ordering::Relaxed);
    ALLOCS.load(Ordering::Relaxed)
}

/// Stops counting; returns the count.
pub fn disarm_alloc_counter() -> u64 {
    ARMED.store(false, Ordering::Relaxed);
    ALLOCS.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_cpu_or_a_busy_host_is_degraded_and_says_why() {
        assert!(degraded_reason(1, 0.0).expect("1 cpu").contains("1 cpu"));
        assert!(degraded_reason(2, 1.5)
            .expect("busy")
            .contains("load average"));
        assert_eq!(degraded_reason(2, 1.0), None);
        assert_eq!(degraded_reason(8, 3.9), None);
    }

    #[test]
    fn host_round_trips_through_json() {
        let host = Host {
            host_cpus: 2,
            rustc: "rustc 1.95.0".to_string(),
            load_avg_1m: 0.25,
            degraded: Some("why".to_string()),
        };
        assert_eq!(Host::from_json(&host.to_json()), Some(host.clone()));
        let clean = Host {
            degraded: None,
            ..host
        };
        assert_eq!(Host::from_json(&clean.to_json()), Some(clean));
    }

    #[test]
    fn peak_rss_is_read_on_linux() {
        assert!(peak_rss_mb() > 0.0);
    }
}
