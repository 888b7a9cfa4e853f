//! Dinic's max-flow algorithm on a reusable CSR network.
//!
//! The convex min-cut baseline reduces each per-vertex wavefront problem to
//! an `s`–`t` min cut on a split-vertex network with unit and "infinite"
//! capacities; Dinic's `O(E·√V)` behaviour on unit-capacity networks keeps
//! the whole-graph sweep tractable.
//!
//! Most of that network is the same for every vertex, so a
//! [`FlowNetwork`] is built once from its *static* arcs, with spare room
//! after each node's arc list for arcs added later by
//! [`FlowNetwork::add_edge`]. [`FlowNetwork::reset`] restores the static
//! capacities and drops the added arcs, ready for the next solve.

/// Capacity value treated as infinite (never saturated in our networks:
/// every s–t path also crosses a unit arc).
pub const INF: u64 = u64::MAX / 4;

/// A flow network in CSR layout, solved in place and reusable through
/// [`FlowNetwork::reset`].
///
/// Node `u`'s arcs are the slots `first[u]..end[u]`, in insertion order;
/// the slots from `end[u]` up to `first[u + 1]` are room for added arcs.
/// Each arc `a` is paired with its residual reverse `rev[a]`.
#[derive(Debug, Clone)]
pub struct FlowNetwork {
    first: Vec<u32>,
    end: Vec<u32>,
    static_end: Vec<u32>,
    to: Vec<u32>,
    cap: Vec<u64>,
    rev: Vec<u32>,
    /// Capacities of the static arcs (0 in the spare room).
    template: Vec<u64>,
    level: Vec<i32>,
    iter: Vec<u32>,
    queue: Vec<u32>,
}

impl FlowNetwork {
    /// Builds a network on `nodes` nodes from its static `arcs`
    /// `(from, to, cap)` — each with an implicit residual reverse arc of
    /// capacity 0 — leaving room for `room(u)` arcs added later at node
    /// `u` (an added arc takes room at both of its endpoints).
    ///
    /// Each node lists its arcs in insertion order, forward and reverse
    /// interleaved, exactly as pushing every arc onto per-node adjacency
    /// lists would.
    ///
    /// # Panics
    /// Panics if an endpoint is out of range or the layout overflows
    /// `u32` indices.
    pub fn new<I>(nodes: usize, arcs: I, room: impl Fn(usize) -> usize) -> Self
    where
        I: IntoIterator<Item = (usize, usize, u64)>,
        I::IntoIter: Clone,
    {
        let arcs = arcs.into_iter();
        let mut degree = vec![0usize; nodes];
        for (from, to, _) in arcs.clone() {
            assert!(from < nodes && to < nodes, "edge out of range");
            degree[from] += 1;
            degree[to] += 1;
        }
        let mut first = Vec::with_capacity(nodes + 1);
        let mut static_end = Vec::with_capacity(nodes);
        let mut slots = 0usize;
        for (u, &d) in degree.iter().enumerate() {
            first.push(slots);
            static_end.push(slots + d);
            slots += d + room(u);
        }
        first.push(slots);
        assert!(slots <= u32::MAX as usize, "flow network too large");
        let narrow = |xs: Vec<usize>| -> Vec<u32> { xs.into_iter().map(|x| x as u32).collect() };

        let mut to = vec![0u32; slots];
        let mut cap = vec![0u64; slots];
        let mut rev = vec![0u32; slots];
        let mut next = first[..nodes].to_vec();
        for (from, dst, c) in arcs {
            let a = next[from];
            next[from] += 1;
            let b = next[dst];
            next[dst] += 1;
            (to[a], cap[a], rev[a]) = (dst as u32, c, b as u32);
            (to[b], cap[b], rev[b]) = (from as u32, 0, a as u32);
        }
        let static_end = narrow(static_end);
        FlowNetwork {
            first: narrow(first),
            end: static_end.clone(),
            static_end,
            to,
            template: cap.clone(),
            cap,
            rev,
            level: vec![-1; nodes],
            iter: vec![0; nodes],
            queue: Vec::new(),
        }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.end.len()
    }

    /// Adds a directed edge `from → to` with capacity `cap` (plus the
    /// implicit residual reverse edge of capacity 0) in the room left at
    /// both endpoints; [`FlowNetwork::reset`] removes it again.
    ///
    /// # Panics
    /// Panics if an endpoint is out of range or has no room left.
    pub fn add_edge(&mut self, from: usize, to: usize, cap: u64) {
        assert!(
            from < self.nodes() && to < self.nodes(),
            "edge out of range"
        );
        let a = self.claim(from);
        let b = self.claim(to);
        (self.to[a], self.cap[a], self.rev[a]) = (to as u32, cap, b as u32);
        (self.to[b], self.cap[b], self.rev[b]) = (from as u32, 0, a as u32);
    }

    fn claim(&mut self, u: usize) -> usize {
        let a = self.end[u];
        assert!(a < self.first[u + 1], "no room for another arc at node {u}");
        self.end[u] = a + 1;
        a as usize
    }

    /// Restores every static arc's capacity and drops the arcs added
    /// since construction, so the network solves afresh.
    pub fn reset(&mut self) {
        self.cap.copy_from_slice(&self.template);
        self.end.copy_from_slice(&self.static_end);
    }

    /// Builds the level graph. The search stops as soon as `t` is
    /// labelled: every node on a shorter level is labelled by then, and
    /// nodes left unlabelled sit at or past `t`'s level, where no path of
    /// the level graph leads back to `t`.
    fn bfs(&mut self, s: usize, t: usize) -> bool {
        self.level.fill(-1);
        self.queue.clear();
        self.level[s] = 0;
        self.queue.push(s as u32);
        let mut head = 0;
        while let Some(&u) = self.queue.get(head) {
            head += 1;
            let u = u as usize;
            let next = self.level[u] + 1;
            for a in self.first[u] as usize..self.end[u] as usize {
                let v = self.to[a] as usize;
                if self.cap[a] > 0 && self.level[v] < 0 {
                    self.level[v] = next;
                    if v == t {
                        return true;
                    }
                    self.queue.push(v as u32);
                }
            }
        }
        false
    }

    fn dfs(&mut self, u: usize, t: usize, pushed: u64) -> u64 {
        if u == t {
            return pushed;
        }
        while self.iter[u] < self.end[u] {
            let a = self.iter[u] as usize;
            let (v, cap) = (self.to[a] as usize, self.cap[a]);
            if cap > 0 && self.level[v] == self.level[u] + 1 {
                let d = self.dfs(v, t, pushed.min(cap));
                if d > 0 {
                    self.cap[a] -= d;
                    self.cap[self.rev[a] as usize] += d;
                    return d;
                }
            }
            self.iter[u] += 1;
        }
        0
    }

    /// Computes the maximum `s`–`t` flow, leaving the residual network in
    /// place (call [`FlowNetwork::reset`] before solving again).
    ///
    /// # Panics
    /// Panics if `s == t` or either is out of range.
    pub fn max_flow(&mut self, s: usize, t: usize) -> u64 {
        self.max_flow_capped(s, t, u64::MAX)
    }

    /// [`FlowNetwork::max_flow`] that stops early after the first
    /// blocking-flow phase in which the accumulated flow reaches `cap`.
    ///
    /// The returned value is the flow found so far, which is always a
    /// **lower bound** on the true maximum flow (flow only accumulates),
    /// so min-cut-style lower bounds computed from it stay valid — they
    /// just may stop short of the tightest value. With `cap = u64::MAX`
    /// this is exactly `max_flow`. Phases are never abandoned midway, so
    /// the result is deterministic for a given network and cap.
    pub fn max_flow_capped(&mut self, s: usize, t: usize, cap: u64) -> u64 {
        assert!(s < self.nodes() && t < self.nodes() && s != t);
        let mut flow = 0u64;
        while flow < cap && self.bfs(s, t) {
            let nodes = self.nodes();
            self.iter.copy_from_slice(&self.first[..nodes]);
            loop {
                let f = self.dfs(s, t, INF);
                if f == 0 {
                    break;
                }
                flow += f;
            }
        }
        flow
    }

    /// After [`FlowNetwork::max_flow`], the set of nodes reachable from `s`
    /// in the residual network — the `s`-side of a minimum cut.
    pub fn min_cut_side(&self, s: usize) -> Vec<bool> {
        let mut seen = vec![false; self.nodes()];
        let mut stack = vec![s];
        seen[s] = true;
        while let Some(u) = stack.pop() {
            for a in self.first[u] as usize..self.end[u] as usize {
                let v = self.to[a] as usize;
                if self.cap[a] > 0 && !seen[v] {
                    seen[v] = true;
                    stack.push(v);
                }
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A network with no room for added arcs.
    fn fixed(nodes: usize, arcs: &[(usize, usize, u64)]) -> FlowNetwork {
        FlowNetwork::new(nodes, arcs.iter().copied(), |_| 0)
    }

    #[test]
    fn single_edge() {
        let mut net = fixed(2, &[(0, 1, 5)]);
        assert_eq!(net.max_flow(0, 1), 5);
    }

    #[test]
    fn classic_textbook_network() {
        // CLRS-style: max flow 23.
        let mut net = fixed(
            6,
            &[
                (0, 1, 16),
                (0, 2, 13),
                (1, 3, 12),
                (2, 1, 4),
                (2, 4, 14),
                (3, 2, 9),
                (3, 5, 20),
                (4, 3, 7),
                (4, 5, 4),
            ],
        );
        assert_eq!(net.max_flow(0, 5), 23);
    }

    #[test]
    fn parallel_paths_sum() {
        let mut net = fixed(4, &[(0, 1, 1), (1, 3, 1), (0, 2, 1), (2, 3, 1)]);
        assert_eq!(net.max_flow(0, 3), 2);
    }

    #[test]
    fn bottleneck_limits_flow() {
        // Two sources of capacity feed one unit arc.
        let mut net = fixed(4, &[(0, 1, INF), (0, 2, INF), (1, 3, 1), (2, 3, 1)]);
        assert_eq!(net.max_flow(0, 3), 2);
    }

    #[test]
    fn capped_flow_lower_bounds_and_matches_when_loose() {
        // Wide network: many disjoint unit paths, so true max flow = 8.
        let build = || {
            let arcs = (0..8).flat_map(|i| [(0, 1 + i, 1), (1 + i, 9 + i, 1), (9 + i, 17, 1)]);
            FlowNetwork::new(18, arcs, |_| 0)
        };
        assert_eq!(build().max_flow(0, 17), 8);
        // A loose cap changes nothing.
        assert_eq!(build().max_flow_capped(0, 17, 100), 8);
        // A tight cap stops early but never under-reports below the cap
        // while more flow is available (phases complete atomically).
        let capped = build().max_flow_capped(0, 17, 3);
        assert!((3..=8).contains(&capped), "capped={capped}");
        // Determinism: same network, same cap, same answer.
        assert_eq!(capped, build().max_flow_capped(0, 17, 3));
    }

    #[test]
    fn disconnected_means_zero() {
        let mut net = fixed(3, &[(0, 1, 7)]);
        assert_eq!(net.max_flow(0, 2), 0);
    }

    #[test]
    fn min_cut_side_separates() {
        // 1 -> 2 is the bottleneck.
        let mut net = fixed(4, &[(0, 1, 2), (1, 2, 1), (2, 3, 2)]);
        assert_eq!(net.max_flow(0, 3), 1);
        let side = net.min_cut_side(0);
        assert!(side[0] && side[1]);
        assert!(!side[2] && !side[3]);
    }

    #[test]
    fn vertex_split_unit_cut() {
        // Vertex-capacity modelling: v_in -> v_out cap 1; three disjoint
        // paths but all through one vertex => flow 1.
        let (s, t) = (6, 7);
        let v_in = 0;
        let v_out = 1;
        let mut arcs = vec![(v_in, v_out, 1)];
        for i in 0..3 {
            let a = 2 + i;
            arcs.push((s, a, INF));
            arcs.push((a, v_in, INF));
        }
        arcs.push((v_out, 5, INF));
        arcs.push((5, t, INF));
        let mut net = fixed(8, &arcs);
        assert_eq!(net.max_flow(s, t), 1);
    }

    #[test]
    fn reset_network_solves_like_a_fresh_one() {
        // Static part: two unit paths 1 -> 3 and 2 -> 3; the source 0 and
        // the sink 4 are wired per solve through the spare room.
        let build = || {
            let room = |u: usize| if u == 0 { 2 } else { 1 };
            FlowNetwork::new(5, [(1, 3, 1), (2, 3, 1), (3, 4, 1), (2, 4, 1)], room)
        };
        let mut net = build();
        for pins in [&[1usize][..], &[1, 2], &[2], &[1, 2]] {
            let mut fresh = build();
            net.reset();
            for &p in pins {
                net.add_edge(0, p, INF);
                fresh.add_edge(0, p, INF);
            }
            let want = fresh.max_flow(0, 4);
            assert_eq!(net.max_flow(0, 4), want, "pins={pins:?}");
            assert_eq!(net.min_cut_side(0), fresh.min_cut_side(0));
        }
    }

    #[test]
    #[should_panic(expected = "no room")]
    fn adding_past_the_room_panics() {
        let mut net = FlowNetwork::new(2, [(0, 1, 1)], |u| usize::from(u == 0));
        net.add_edge(0, 1, 1);
    }
}
