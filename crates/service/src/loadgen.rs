//! Open-loop load generation (`graphio loadgen`).
//!
//! ## Open loop, not closed loop
//!
//! A closed-loop generator ("send, wait, send again") lets a slow server
//! throttle its own load: when a request stalls, the *next* request is
//! silently postponed, so the measured latency distribution omits
//! exactly the requests that would have hurt — the classic coordinated
//! omission error. This generator is open-loop: request `i`'s arrival
//! time is fixed up front at `start + i/rps` regardless of how the
//! server is doing, and its recorded latency is measured **from that
//! scheduled arrival**, not from when a connection finally got around to
//! sending it. A server that falls behind therefore accrues queueing
//! delay in the histogram, exactly as a real client population would
//! experience it.
//!
//! ## Mechanics
//!
//! `conns` worker threads share one atomic arrival counter; each worker
//! claims the next arrival index, sleeps until its scheduled instant,
//! issues the request on its own persistent keep-alive [`Client`], and
//! records `completion − scheduled` into a shared lock-free
//! [`Histogram`] (microseconds). When every in-flight connection is
//! busy, arrivals queue on the counter and their waiting time is charged
//! to them — the open-loop contract. The worker count therefore bounds
//! *concurrency*, not rate; an undersized `conns` shows up honestly as
//! latency, never as silently missing load.
//!
//! Request bodies come from a pool cycled by arrival index (`bodies[i %
//! len]`): a single body benchmarks the cache-hit path, a pool of
//! distinct graphs larger than the expected request count benchmarks the
//! all-miss (cold) path.

use crate::client::Client;
use graphio_obs::{HistSnapshot, Histogram};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// One load-generation run.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Target base URL (`http://host:port`).
    pub url: String,
    /// Request method (`POST` for analysis endpoints, `GET` for probes).
    pub method: String,
    /// Request path (default `/analyze`).
    pub path: String,
    /// Body pool; request `i` sends `bodies[i % bodies.len()]`. Empty
    /// means body-less requests (GET probes).
    pub bodies: Vec<String>,
    /// Target arrival rate, requests per second.
    pub rps: f64,
    /// How long arrivals keep being scheduled.
    pub duration: Duration,
    /// Worker threads, each with one persistent keep-alive connection.
    pub conns: usize,
}

impl LoadgenConfig {
    /// A run against `url` at `rps` for `duration` with library
    /// defaults: `POST /analyze`, 4 connections, caller supplies bodies.
    pub fn at(url: &str, rps: f64, duration: Duration) -> LoadgenConfig {
        LoadgenConfig {
            url: url.to_string(),
            method: "POST".to_string(),
            path: "/analyze".to_string(),
            bodies: Vec::new(),
            rps,
            duration,
            conns: 4,
        }
    }
}

/// What one run measured. Latencies are in microseconds, measured from
/// each request's *scheduled* arrival (coordinated-omission-safe).
#[derive(Debug, Clone)]
pub struct LoadgenReport {
    /// The configured arrival rate.
    pub target_rps: f64,
    /// Requests issued (`ok + errors`).
    pub requests: u64,
    /// HTTP 200 responses.
    pub ok: u64,
    /// Non-200 responses plus transport failures.
    pub errors: u64,
    /// TCP connects across all workers (reconnects included).
    pub connects: u64,
    /// Client-side stale-keep-alive retries across all workers.
    pub retries: u64,
    /// Wall time from first scheduled arrival to last completion.
    pub elapsed: Duration,
    /// The latency distribution (µs from scheduled arrival).
    pub latency: HistSnapshot,
}

impl LoadgenReport {
    /// Completed requests per second of wall time.
    #[must_use]
    pub fn achieved_rps(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.requests as f64 / secs
        } else {
            0.0
        }
    }

    /// The run as one JSON object (the `graphio loadgen --json` output).
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"target_rps\":{},\"achieved_rps\":{:.1},\"requests\":{},",
                "\"ok\":{},\"errors\":{},\"connects\":{},\"retries\":{},",
                "\"duration_s\":{:.3},\"latency_us\":{}}}"
            ),
            self.target_rps,
            self.achieved_rps(),
            self.requests,
            self.ok,
            self.errors,
            self.connects,
            self.retries,
            self.elapsed.as_secs_f64(),
            latency_json(&self.latency),
        )
    }

    /// The run as a short human-readable summary — the default
    /// `graphio loadgen` output (`--json` selects
    /// [`LoadgenReport::to_json`] for machine consumption).
    #[must_use]
    pub fn to_human(&self) -> String {
        format!(
            concat!(
                "{} requests in {:.3}s — {:.1} rps achieved (target {})\n",
                "latency µs (from scheduled arrival): ",
                "p50={} p90={} p99={} p99.9={} max={}\n",
                "ok={} errors={} connects={} retries={}"
            ),
            self.requests,
            self.elapsed.as_secs_f64(),
            self.achieved_rps(),
            self.target_rps,
            self.latency.p50(),
            self.latency.p90(),
            self.latency.p99(),
            self.latency.p999(),
            self.latency.max,
            self.ok,
            self.errors,
            self.connects,
            self.retries,
        )
    }
}

/// The standard latency digest (`{"p50":..,"p90":..,"p99":..,"p999":..,
/// "max":..,"mean":..,"count":..}`, µs), shared by `loadgen` and
/// `client analyze --json`.
#[must_use]
pub fn latency_json(snap: &HistSnapshot) -> String {
    format!(
        "{{\"p50\":{},\"p90\":{},\"p99\":{},\"p999\":{},\"max\":{},\"mean\":{:.1},\"count\":{}}}",
        snap.p50(),
        snap.p90(),
        snap.p99(),
        snap.p999(),
        snap.max,
        snap.mean(),
        snap.count,
    )
}

/// Runs one open-loop load generation pass.
///
/// # Errors
/// Rejects a non-positive rate or zero connections up front; per-request
/// transport failures are *not* errors here — they are load-test results,
/// counted in [`LoadgenReport::errors`].
pub fn run(config: &LoadgenConfig) -> Result<LoadgenReport, String> {
    if config.rps <= 0.0 || !config.rps.is_finite() {
        return Err(format!("loadgen rate must be positive, got {}", config.rps));
    }
    if config.conns == 0 {
        return Err("loadgen needs at least one connection".to_string());
    }
    let latency = Histogram::new();
    let ok = AtomicU64::new(0);
    let errors = AtomicU64::new(0);
    let connects = AtomicU64::new(0);
    let retries = AtomicU64::new(0);
    let next = AtomicU64::new(0);
    let start = Instant::now();
    // Arrivals are *scheduled*, not counted: index i's arrival offset is
    // i/rps, and scheduling stops at the first index past the duration —
    // so the issued request count is rate × duration by construction,
    // independent of server speed.
    let horizon = config.duration.as_secs_f64();
    std::thread::scope(|scope| {
        for _ in 0..config.conns {
            scope.spawn(|| {
                let mut client: Option<Client> = None;
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let offset_s = i as f64 / config.rps;
                    if offset_s >= horizon {
                        break;
                    }
                    let scheduled = Duration::from_secs_f64(offset_s);
                    let now = start.elapsed();
                    if scheduled > now {
                        std::thread::sleep(scheduled - now);
                    }
                    let body = if config.bodies.is_empty() {
                        None
                    } else {
                        Some(config.bodies[(i as usize) % config.bodies.len()].as_str())
                    };
                    let outcome = match &mut client {
                        Some(c) => c.request_with(&config.method, &config.path, body, &[]),
                        None => match Client::new(&config.url) {
                            Ok(c) => {
                                let c = client.insert(c);
                                c.request_with(&config.method, &config.path, body, &[])
                            }
                            Err(e) => Err(e),
                        },
                    };
                    // Coordinated-omission safety: latency runs from the
                    // scheduled arrival, so time spent waiting for this
                    // worker's connection is charged to the request.
                    let done = start.elapsed();
                    let lat = done.saturating_sub(scheduled);
                    latency.record(u64::try_from(lat.as_micros()).unwrap_or(u64::MAX).max(1));
                    match outcome {
                        Ok(r) if r.status == 200 => {
                            ok.fetch_add(1, Ordering::Relaxed);
                        }
                        Ok(_) | Err(_) => {
                            errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                if let Some(c) = client {
                    connects.fetch_add(c.connects(), Ordering::Relaxed);
                    retries.fetch_add(c.retries(), Ordering::Relaxed);
                }
            });
        }
    });
    let snap = latency.snapshot();
    Ok(LoadgenReport {
        target_rps: config.rps,
        requests: snap.count,
        ok: ok.into_inner(),
        errors: errors.into_inner(),
        connects: connects.into_inner(),
        retries: retries.into_inner(),
        elapsed: start.elapsed(),
        latency: snap,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{serve, ServiceConfig};

    /// The arrival schedule is fixed by (rate, duration) alone: the
    /// request count must match rate × duration exactly, even against a
    /// live server.
    #[test]
    fn open_loop_issues_exactly_rate_times_duration_requests() {
        let server = serve(&ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        })
        .unwrap();
        let mut config = LoadgenConfig::at(&server.url(), 200.0, Duration::from_millis(500));
        config.method = "GET".to_string();
        config.path = "/healthz".to_string();
        config.conns = 2;
        let report = run(&config).unwrap();
        // ceil(rate * duration): indices 0..100 schedule inside the
        // horizon.
        assert_eq!(report.requests, 100, "open-loop arrival count is fixed");
        assert_eq!(report.ok, 100);
        assert_eq!(report.errors, 0);
        assert!(report.connects >= 1 && report.connects <= 4);
        assert_eq!(report.latency.count, 100);
        assert!(report.latency.max >= 1);
        server.shutdown();
    }

    #[test]
    fn rejects_degenerate_configs() {
        let mut config = LoadgenConfig::at("http://127.0.0.1:1", 0.0, Duration::from_millis(10));
        assert!(run(&config).is_err());
        config.rps = 10.0;
        config.conns = 0;
        assert!(run(&config).is_err());
    }
}
