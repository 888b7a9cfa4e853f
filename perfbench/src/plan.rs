//! Workload inputs: the graphs, the set-up (warm) list and the timed
//! request schedule, all derived from the workload name and `--seed`.
//!
//! `prepare` writes them to a plan directory together with the expected
//! response body of every graph, computed in process with the same
//! library call the server and the CLI use (`analysis_body`).

use crate::util::{die, Rng};
use graphio_graph::generators::{
    bhk_hypercube, diamond_dag, erdos_renyi_dag, fft_butterfly, naive_matmul,
};
use graphio_graph::json::{self, JsonValue};
use graphio_graph::{fingerprint, CompGraph, EdgeListGraph};
use graphio_service::{analysis_body, AnalyzeSpec};
use graphio_spectral::OwnedAnalyzer;
use std::path::Path;

/// The memory sweep every request and every offline analysis asks for.
pub const MEMORIES: [usize; 4] = [4, 8, 16, 32];
/// Edge probability of the random DAGs (the CLI's `generate er` default).
const ER_P: f64 = 0.1;
/// Open-loop arrival rate of `serve_hit`, requests per second.
pub const SERVE_HIT_RPS: f64 = 80.0;
/// Open-loop arrival rate of `router_churn`, requests per second.
pub const ROUTER_CHURN_RPS: f64 = 20.0;
/// Distinct graphs `router_churn` revisits (more than one backend's
/// 1 MB session cache holds).
const REVISIT_GRAPHS: usize = 24;
/// `router_churn`'s block of ten requests: 0 a fingerprint-only hit,
/// 1 an inline revisit, 2 a never-seen graph.
const BLOCK: [u8; 10] = [0, 0, 1, 0, 0, 2, 0, 0, 1, 0];

/// One distinct graph of a workload.
pub struct GraphInput {
    /// Stable name, also the file stem under `graphs/` and `expected/`.
    pub id: String,
    /// The `graphio generate` arguments that produce the same bytes.
    pub generate: Vec<String>,
    /// Edge-list JSON, exactly as `graphio generate` prints it (no newline).
    pub json: String,
    /// Structural fingerprint, hex.
    pub fp: String,
}

/// One timed request: when it is due, which graph, and how it is sent.
pub struct Request {
    /// Due time in seconds after the start of the timed window.
    pub at: f64,
    /// Index into the plan's graphs.
    pub graph: usize,
    /// `true` sends `{"fingerprint": ...}`, `false` the inline graph.
    pub by_fingerprint: bool,
    /// `"hit"` for a graph this run already asked for, `"cold"` otherwise.
    pub class: &'static str,
}

/// Everything a workload run needs.
pub struct Plan {
    pub workload: String,
    pub graphs: Vec<GraphInput>,
    /// Graphs sent during set-up, in order.
    pub warm: Vec<usize>,
    pub requests: Vec<Request>,
}

fn input(id: &str, generate: &[&str], g: &CompGraph) -> GraphInput {
    GraphInput {
        id: id.to_string(),
        generate: generate.iter().map(|s| s.to_string()).collect(),
        json: g.to_edge_list().to_json(),
        fp: fingerprint(g).to_hex(),
    }
}

fn family(name: &str, size: usize) -> GraphInput {
    let g = match name {
        "fft" => fft_butterfly(size),
        "bhk" => bhk_hypercube(size),
        "matmul" => naive_matmul(size),
        "diamond" => diamond_dag(size, size),
        _ => die(&format!("unknown family {name}")),
    };
    input(&format!("{name}{size}"), &[name, &size.to_string()], &g)
}

fn er(size: usize, seed: u64) -> GraphInput {
    let g = erdos_renyi_dag(size, ER_P, seed);
    input(
        &format!("er{size}_{seed}"),
        &["er", &size.to_string(), "--seed", &seed.to_string()],
        &g,
    )
}

impl Plan {
    /// Builds the plan for `workload` under `seed`; the timed schedule
    /// covers `seconds` of open-loop arrivals.
    pub fn build(workload: &str, seed: u64, seconds: f64) -> Plan {
        let mut rng = Rng::new(seed);
        match workload {
            "offline_cold" => {
                // The corpus is fixed; the seed only orders it.
                let mut graphs: Vec<GraphInput> = [
                    ("fft", 6),
                    ("fft", 7),
                    ("fft", 8),
                    ("bhk", 10),
                    ("diamond", 24),
                    ("matmul", 8),
                ]
                .iter()
                .map(|&(f, s)| family(f, s))
                .collect();
                rng.shuffle(&mut graphs);
                Plan {
                    workload: workload.to_string(),
                    graphs,
                    warm: Vec::new(),
                    requests: Vec::new(),
                }
            }
            "serve_hit" => {
                // Fixed graphs, so that a run's cost does not depend on its
                // seed; every set-up starts a fresh server, so each is a
                // first sight there. The seed orders the requests.
                let mut graphs: Vec<GraphInput> = [
                    ("fft", 5),
                    ("fft", 6),
                    ("fft", 7),
                    ("bhk", 8),
                    ("bhk", 9),
                    ("matmul", 6),
                    ("diamond", 16),
                ]
                .iter()
                .map(|&(f, s)| family(f, s))
                .collect();
                graphs.push(er(300, 1));
                graphs.push(er(400, 1));
                let count = (SERVE_HIT_RPS * seconds).round() as usize;
                // Shuffled rounds over all graphs keep the mix even in
                // every stretch of the run.
                let mut order = Vec::with_capacity(count + graphs.len());
                while order.len() < count {
                    let mut round: Vec<usize> = (0..graphs.len()).collect();
                    rng.shuffle(&mut round);
                    order.extend(round);
                }
                order.truncate(count);
                let requests = order
                    .into_iter()
                    .enumerate()
                    .map(|(i, graph)| Request {
                        at: i as f64 / SERVE_HIT_RPS,
                        graph,
                        by_fingerprint: false,
                        class: "hit",
                    })
                    .collect();
                Plan {
                    workload: workload.to_string(),
                    warm: (0..graphs.len()).collect(),
                    graphs,
                    requests,
                }
            }
            "router_churn" => {
                // Random-DAG seeds are drawn from the whole 48-bit range,
                // so no two runs share graphs.
                let mut graphs: Vec<GraphInput> = (0..REVISIT_GRAPHS)
                    .map(|_| er(250, rng.next_u64() >> 16))
                    .collect();
                let count = (ROUTER_CHURN_RPS * seconds).round() as usize;
                let mut requests = Vec::with_capacity(count);
                while requests.len() < count {
                    // Each block of ten: 7 fingerprint-only hits, 2 inline
                    // revisits and 1 graph never seen before, always in
                    // these slots, so every run overlaps cold solves with
                    // the same hits; the seed draws the graphs.
                    for kind in BLOCK {
                        let at = requests.len() as f64 / ROUTER_CHURN_RPS;
                        let request = match kind {
                            0 | 1 => Request {
                                at,
                                graph: rng.below(REVISIT_GRAPHS),
                                by_fingerprint: kind == 0,
                                class: "hit",
                            },
                            _ => {
                                graphs.push(er(250, rng.next_u64() >> 16));
                                Request {
                                    at,
                                    graph: graphs.len() - 1,
                                    by_fingerprint: false,
                                    class: "cold",
                                }
                            }
                        };
                        requests.push(request);
                    }
                }
                requests.truncate(count);
                Plan {
                    workload: workload.to_string(),
                    graphs,
                    warm: (0..REVISIT_GRAPHS).collect(),
                    requests,
                }
            }
            other => die(&format!("unknown workload {other}")),
        }
    }

    /// The request body for graph `g`.
    pub fn body(&self, g: usize, by_fingerprint: bool) -> String {
        let memories = MEMORIES.map(|m| m.to_string()).join(",");
        let graph = &self.graphs[g];
        if by_fingerprint {
            format!(
                "{{\"fingerprint\":\"{}\",\"memories\":[{memories}]}}",
                graph.fp
            )
        } else {
            format!("{{\"graph\":{},\"memories\":[{memories}]}}", graph.json)
        }
    }

    /// Writes the plan to `dir`: `graphs/<id>.json`, `expected/<id>.json`
    /// (the in-process analysis body) and `plan.json`.
    pub fn write(&self, dir: &Path) {
        for sub in ["graphs", "expected"] {
            std::fs::create_dir_all(dir.join(sub)).unwrap_or_else(|e| die(&e.to_string()));
        }
        let used: Vec<usize> = {
            let mut used = vec![false; self.graphs.len()];
            for &w in &self.warm {
                used[w] = true;
            }
            for r in &self.requests {
                used[r.graph] = true;
            }
            if self.requests.is_empty() {
                used.iter_mut().for_each(|u| *u = true);
            }
            (0..self.graphs.len()).filter(|&i| used[i]).collect()
        };
        let next = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|scope| {
            // One solver thread per core of the 2-core box.
            for _ in 0..2 {
                scope.spawn(|| loop {
                    let k = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    let Some(&i) = used.get(k) else { break };
                    let graph = &self.graphs[i];
                    let body = expected_body(&graph.json);
                    write_file(
                        &dir.join("graphs").join(format!("{}.json", graph.id)),
                        &graph.json,
                    );
                    write_file(
                        &dir.join("expected").join(format!("{}.json", graph.id)),
                        &body,
                    );
                });
            }
        });
        let graphs: Vec<String> = self
            .graphs
            .iter()
            .map(|g| {
                let generate: Vec<String> = g.generate.iter().map(|a| format!("\"{a}\"")).collect();
                format!(
                    "{{\"id\":\"{}\",\"fp\":\"{}\",\"generate\":[{}]}}",
                    g.id,
                    g.fp,
                    generate.join(",")
                )
            })
            .collect();
        let requests: Vec<String> = self
            .requests
            .iter()
            .map(|r| {
                format!(
                    "{{\"at\":{},\"graph\":{},\"by_fingerprint\":{},\"class\":\"{}\"}}",
                    r.at, r.graph, r.by_fingerprint, r.class
                )
            })
            .collect();
        let warm: Vec<String> = self.warm.iter().map(usize::to_string).collect();
        let doc = format!(
            "{{\"workload\":\"{}\",\"memories\":[{}],\"graphs\":[{}],\"warm\":[{}],\"requests\":[{}]}}\n",
            self.workload,
            MEMORIES.map(|m| m.to_string()).join(","),
            graphs.join(",\n"),
            warm.join(","),
            requests.join(",\n")
        );
        write_file(&dir.join("plan.json"), &doc);
    }

    /// Reads a plan written by [`Plan::write`] (graph JSON from `graphs/`).
    pub fn read(dir: &Path) -> Plan {
        let text = read_file(&dir.join("plan.json"));
        let doc = json::parse(&text).unwrap_or_else(|e| die(&format!("plan.json: {e}")));
        let field = |v: &JsonValue, k: &str| -> JsonValue {
            v.get(k)
                .cloned()
                .unwrap_or_else(|| die(&format!("plan.json: missing {k}")))
        };
        let array = |v: JsonValue| -> Vec<JsonValue> {
            v.as_array()
                .map(<[JsonValue]>::to_vec)
                .unwrap_or_else(|| die("plan.json: expected an array"))
        };
        let string = |v: JsonValue| -> String {
            v.as_str()
                .map(str::to_string)
                .unwrap_or_else(|| die("plan.json: expected a string"))
        };
        let graphs = array(field(&doc, "graphs"))
            .into_iter()
            .map(|g| {
                let id = string(field(&g, "id"));
                let path = dir.join("graphs").join(format!("{id}.json"));
                let json = if path.exists() {
                    read_file(&path)
                } else {
                    String::new()
                };
                GraphInput {
                    generate: array(field(&g, "generate"))
                        .into_iter()
                        .map(string)
                        .collect(),
                    fp: string(field(&g, "fp")),
                    id,
                    json,
                }
            })
            .collect();
        let index =
            |v: &JsonValue| v.as_u64().unwrap_or_else(|| die("plan.json: bad index")) as usize;
        let requests = array(field(&doc, "requests"))
            .into_iter()
            .map(|r| Request {
                at: field(&r, "at")
                    .as_f64()
                    .unwrap_or_else(|| die("plan.json: bad at")),
                graph: index(&field(&r, "graph")),
                by_fingerprint: matches!(field(&r, "by_fingerprint"), JsonValue::Bool(true)),
                class: if string(field(&r, "class")) == "cold" {
                    "cold"
                } else {
                    "hit"
                },
            })
            .collect();
        Plan {
            workload: string(field(&doc, "workload")),
            graphs,
            warm: array(field(&doc, "warm")).iter().map(index).collect(),
            requests,
        }
    }

    /// The expected body of graph `g`, as written by [`Plan::write`].
    pub fn expected(&self, dir: &Path, g: usize) -> String {
        read_file(
            &dir.join("expected")
                .join(format!("{}.json", self.graphs[g].id)),
        )
    }
}

/// The analysis body of an edge-list document, computed cold in process.
pub fn expected_body(graph_json: &str) -> String {
    let graph = parse_graph(graph_json);
    analysis_body(&OwnedAnalyzer::from_graph(graph), &spec())
}

/// Parses an edge-list document the way `graphio analyze` does.
pub fn parse_graph(graph_json: &str) -> CompGraph {
    let el = EdgeListGraph::from_json(graph_json).unwrap_or_else(|e| die(&format!("graph: {e}")));
    CompGraph::try_from(el).unwrap_or_else(|e| die(&format!("graph: {e}")))
}

/// The analysis spec every workload uses.
pub fn spec() -> AnalyzeSpec {
    AnalyzeSpec::sweep(MEMORIES.to_vec())
}

pub fn write_file(path: &Path, text: &str) {
    std::fs::write(path, text).unwrap_or_else(|e| die(&format!("{}: {e}", path.display())));
}

pub fn read_file(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("{}: {e}", path.display())))
}
