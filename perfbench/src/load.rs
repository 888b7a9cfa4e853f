//! The load generator: one process, [`CONNS`] connections, one thread each.
//!
//! `timed` is an open loop: request `i` is due at `start + at_i` whatever
//! the server is doing, and its latency runs from that due time, so a
//! stall is charged to every request it delays. `warm` is the set-up pass:
//! the plan's warm list sent one at a time on one connection, timed from
//! each send, so every first-sight solve has the machine to itself.
//!
//! `timed` prints the Unix time of its start, so that the caller can line
//! up the schedule with its own readings of the servers' CPU time.
//!
//! Every response is kept raw (status, latency, `X-Graphio-Session`,
//! `X-Graphio-Elapsed-Us`, `X-Graphio-Backend`) and its body is compared
//! with the expected in-process body after the last request has finished.

use crate::plan::Plan;
use crate::util::{die, Args};
use graphio_service::Client;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Connections (and threads) the load comes from: no more than the box's
/// 2 cores, so the generator does not compete with the server for more.
const CONNS: usize = 2;
/// Router/direct pairs `hop` measures.
const HOP_PAIRS: usize = 60;

struct Job {
    graph: usize,
    by_fingerprint: bool,
    class: &'static str,
    /// Due offset from the start; `None` in the closed-loop warm pass.
    due: Option<Duration>,
    body: String,
}

struct Sample {
    late_us: u64,
    latency_us: u64,
    status: u16,
    session: String,
    server_us: Option<u64>,
    backend: String,
    body: Result<String, String>,
}

pub fn run(args: &Args) {
    let dir = Path::new(args.req("plan"));
    let url = args.req("url");
    let phase = args.req("phase");
    let plan = Plan::read(dir);
    let jobs: Vec<Job> = match phase {
        "warm" => plan
            .warm
            .iter()
            .map(|&g| Job {
                graph: g,
                by_fingerprint: false,
                class: "cold",
                due: None,
                body: plan.body(g, false),
            })
            .collect(),
        "timed" => plan
            .requests
            .iter()
            .map(|r| Job {
                graph: r.graph,
                by_fingerprint: r.by_fingerprint,
                class: r.class,
                due: Some(Duration::from_secs_f64(r.at)),
                body: plan.body(r.graph, r.by_fingerprint),
            })
            .collect(),
        other => die(&format!("unknown phase {other}")),
    };
    let samples: Vec<Mutex<Option<Sample>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    // A short lead so every thread is parked before the first due time.
    let lead = Duration::from_millis(20);
    let start = Instant::now() + lead;
    let start_unix = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .unwrap_or_default()
        + lead;
    std::thread::scope(|scope| {
        let conns = if phase == "warm" { 1 } else { CONNS };
        for _ in 0..conns {
            scope.spawn(|| {
                let mut client = Client::new(url).unwrap_or_else(|e| die(&e.to_string()));
                // A 503 is a failure to report, not something to hide.
                client.set_retry_503(false);
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(job) = jobs.get(i) else { break };
                    let due = job.due.map(|d| start + d);
                    if let Some(due) = due {
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                    }
                    let sent = Instant::now();
                    let from = due.unwrap_or(sent);
                    let response = client.request("POST", "/analyze", Some(&job.body));
                    let done = Instant::now();
                    let sample = match response {
                        Ok(r) => Sample {
                            late_us: sent.saturating_duration_since(from).as_micros() as u64,
                            latency_us: done.duration_since(from).as_micros() as u64,
                            status: r.status,
                            session: r.header("x-graphio-session").unwrap_or("").to_string(),
                            server_us: r
                                .header("x-graphio-elapsed-us")
                                .and_then(|v| v.parse().ok()),
                            backend: r.header("x-graphio-backend").unwrap_or("").to_string(),
                            body: Ok(r.body),
                        },
                        Err(e) => Sample {
                            late_us: sent.saturating_duration_since(from).as_micros() as u64,
                            latency_us: done.duration_since(from).as_micros() as u64,
                            status: 0,
                            session: String::new(),
                            server_us: None,
                            backend: String::new(),
                            body: Err(e.to_string()),
                        },
                    };
                    *samples[i].lock().expect("sample lock") = Some(sample);
                }
            });
        }
    });
    // Output checks, outside the timed window.
    let expected: Vec<Option<String>> = {
        let mut cache: Vec<Option<String>> = vec![None; plan.graphs.len()];
        for job in &jobs {
            if cache[job.graph].is_none() {
                cache[job.graph] = Some(plan.expected(dir, job.graph));
            }
        }
        cache
    };
    let mut out = std::io::BufWriter::new(
        std::fs::File::create(args.req("out")).unwrap_or_else(|e| die(&e.to_string())),
    );
    for (job, slot) in jobs.iter().zip(samples) {
        let s = slot
            .into_inner()
            .expect("sample lock")
            .unwrap_or_else(|| die("a request was never sent"));
        let (ok, error) = match &s.body {
            Err(e) => (false, e.clone()),
            Ok(_) if s.status != 200 => (false, format!("status {}", s.status)),
            Ok(body) if Some(body) != expected[job.graph].as_ref() => (
                false,
                "body differs from the in-process analysis".to_string(),
            ),
            Ok(_) => (true, String::new()),
        };
        writeln!(
            out,
            "{{\"graph\":{},\"by_fingerprint\":{},\"class\":\"{}\",\"late_us\":{},\"latency_us\":{},\
             \"status\":{},\"session\":\"{}\",\"server_us\":{},\"backend\":\"{}\",\"ok\":{},\"error\":{:?}}}",
            job.graph,
            job.by_fingerprint,
            job.class,
            s.late_us,
            s.latency_us,
            s.status,
            s.session,
            s.server_us.map_or("null".to_string(), |v| v.to_string()),
            s.backend,
            ok,
            error
        )
        .unwrap_or_else(|e| die(&e.to_string()));
    }
    out.flush().unwrap_or_else(|e| die(&e.to_string()));
    if phase == "timed" {
        println!("{:.6}", start_unix.as_secs_f64());
    }
}

/// `router.hop_ms`: the same fingerprint-only body sent through the router
/// and straight to the backend that owns it, alternating, [`HOP_PAIRS`] times.
/// Prints the median of (router - direct) in milliseconds.
pub fn hop(args: &Args) {
    let plan = Plan::read(Path::new(args.req("plan")));
    let router_url = args.req("url");
    let mut router = Client::new(router_url).unwrap_or_else(|e| die(&e.to_string()));
    let mut direct: Vec<(String, Client)> = Vec::new();
    let mut diffs = Vec::with_capacity(HOP_PAIRS);
    let timed = |client: &mut Client, body: &str| {
        let t = Instant::now();
        let r = client
            .request("POST", "/analyze", Some(body))
            .unwrap_or_else(|e| die(&format!("hop: {e}")));
        if r.status != 200 {
            die(&format!("hop: status {}", r.status));
        }
        (t.elapsed().as_secs_f64() * 1e3, r)
    };
    for k in 0..HOP_PAIRS {
        let g = plan.warm[k % plan.warm.len()];
        let body = plan.body(g, true);
        // Learn the owner, then measure both paths while the session is hot.
        let (_, first) = timed(&mut router, &body);
        let owner = first.header("x-graphio-backend").unwrap_or("").to_string();
        let slot = match direct.iter().position(|(a, _)| *a == owner) {
            Some(i) => i,
            None => {
                let client =
                    Client::new(&format!("http://{owner}")).unwrap_or_else(|e| die(&e.to_string()));
                direct.push((owner, client));
                direct.len() - 1
            }
        };
        let client = &mut direct[slot].1;
        let (via_router, via_direct) = if k % 2 == 0 {
            let r = timed(&mut router, &body).0;
            (r, timed(client, &body).0)
        } else {
            let d = timed(client, &body).0;
            (timed(&mut router, &body).0, d)
        };
        diffs.push(via_router - via_direct);
    }
    diffs.sort_by(f64::total_cmp);
    println!("{}", diffs[diffs.len() / 2]);
}
