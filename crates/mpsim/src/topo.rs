//! Compiled network routing for the event executor's contention model.
//!
//! A [`Network`] is a [`Topology`] + [`Placement`] resolved against a
//! concrete world size: every rank is assigned a node, every link gets a
//! dense id, and [`Network::for_each_hop`] yields the ordered links a
//! transfer crosses. The event executor keeps one availability time per
//! link and charges each hop's occupancy in virtual-time consumption order
//! (store-and-forward), so shared links compound congestion exactly where
//! traffic concentrates.
//!
//! Link-id layout (dense, so availability is a flat `Vec<f64>`):
//!
//! * `0..p` — per-rank *injection* links: the receiver's private wire,
//!   factor 1.0, the last hop of **every** route. A [`Topology::Flat`]
//!   route is this hop alone, which reproduces the pre-topology
//!   per-receiver-link model bitwise.
//! * node NICs (`NodeNic`/`FatTree`) — `p + 2·node` (up) and
//!   `p + 2·node + 1` (down);
//! * leaf switches (`FatTree`) — after all node links: `sw_base + 2·switch`
//!   (up) and `sw_base + 2·switch + 1` (down);
//! * torus links — `p + (node·ndims + dim)·2 + direction`, the directional
//!   wrap-around link a hop *leaves* a node on.

use crate::machine::{MachineSpec, Placement, Topology};

/// Routing tables of one concrete machine: rank→node map plus the link-id
/// arithmetic of its [`Topology`].
#[derive(Debug, Clone)]
pub struct Network {
    p: usize,
    n_links: usize,
    /// Node of each rank (empty for [`Topology::Flat`], which has no
    /// shared links and never consults it).
    node: Vec<usize>,
    kind: Kind,
}

#[derive(Debug, Clone)]
enum Kind {
    Flat,
    NodeNic {
        nic_factor: f64,
    },
    FatTree {
        nic_factor: f64,
        up_factor: f64,
        nodes_per_switch: usize,
        sw_base: usize,
    },
    Torus {
        link_factor: f64,
        dims: Vec<usize>,
    },
}

/// Rank→node assignment: [`Placement::Block`] fills nodes consecutively,
/// [`Placement::RoundRobin`] scatters (both total via wrap-around, so any
/// `(p, n_nodes)` combination is valid).
fn node_of(rank: usize, ranks_per_node: usize, n_nodes: usize, placement: Placement) -> usize {
    match placement {
        Placement::Block => (rank / ranks_per_node) % n_nodes,
        Placement::RoundRobin => rank % n_nodes,
    }
}

impl Network {
    /// Compile `spec`'s topology and placement for its world size.
    ///
    /// # Panics
    /// Panics when the topology's parameters are invalid
    /// ([`Topology::validate`]) — [`MachineSpec::with_topology`] rejects
    /// them earlier on the builder path.
    pub fn new(spec: &MachineSpec) -> Self {
        Network::compile(spec.p, &spec.topology, spec.placement)
    }

    /// [`Network::new`] from the raw parts.
    pub fn compile(p: usize, topology: &Topology, placement: Placement) -> Self {
        if let Err(why) = topology.validate() {
            panic!("invalid topology: {why}");
        }
        match topology {
            Topology::Flat => Network {
                p,
                n_links: p,
                node: Vec::new(),
                kind: Kind::Flat,
            },
            Topology::NodeNic {
                ranks_per_node,
                nic_factor,
            } => {
                let n_nodes = p.div_ceil(*ranks_per_node);
                Network {
                    p,
                    n_links: p + 2 * n_nodes,
                    node: (0..p).map(|r| node_of(r, *ranks_per_node, n_nodes, placement)).collect(),
                    kind: Kind::NodeNic {
                        nic_factor: *nic_factor,
                    },
                }
            }
            Topology::FatTree {
                ranks_per_node,
                nodes_per_switch,
                nic_factor,
                up_factor,
            } => {
                let n_nodes = p.div_ceil(*ranks_per_node);
                let n_switches = n_nodes.div_ceil(*nodes_per_switch);
                let sw_base = p + 2 * n_nodes;
                Network {
                    p,
                    n_links: sw_base + 2 * n_switches,
                    node: (0..p).map(|r| node_of(r, *ranks_per_node, n_nodes, placement)).collect(),
                    kind: Kind::FatTree {
                        nic_factor: *nic_factor,
                        up_factor: *up_factor,
                        nodes_per_switch: *nodes_per_switch,
                        sw_base,
                    },
                }
            }
            Topology::Torus {
                ranks_per_node,
                dims,
                link_factor,
            } => {
                let n_nodes: usize = dims.iter().product();
                Network {
                    p,
                    n_links: p + n_nodes * dims.len() * 2,
                    node: (0..p).map(|r| node_of(r, *ranks_per_node, n_nodes, placement)).collect(),
                    kind: Kind::Torus {
                        link_factor: *link_factor,
                        dims: dims.clone(),
                    },
                }
            }
        }
    }

    /// Number of links, the size of the executor's availability vector.
    pub fn n_links(&self) -> usize {
        self.n_links
    }

    /// Yield `(link_id, occupancy_factor)` for every link a `from → to`
    /// transfer crosses, in crossing order. The receiver's injection link
    /// (id `to`, factor 1.0) is always the final hop; intra-node transfers
    /// cross nothing else.
    pub fn for_each_hop(&self, from: usize, to: usize, mut f: impl FnMut(usize, f64)) {
        match &self.kind {
            Kind::Flat => {}
            Kind::NodeNic { nic_factor } => {
                let (a, b) = (self.node[from], self.node[to]);
                if a != b {
                    f(self.p + 2 * a, *nic_factor);
                    f(self.p + 2 * b + 1, *nic_factor);
                }
            }
            Kind::FatTree {
                nic_factor,
                up_factor,
                nodes_per_switch,
                sw_base,
            } => {
                let (a, b) = (self.node[from], self.node[to]);
                if a != b {
                    f(self.p + 2 * a, *nic_factor);
                    let (sa, sb) = (a / nodes_per_switch, b / nodes_per_switch);
                    if sa != sb {
                        f(sw_base + 2 * sa, *up_factor);
                        f(sw_base + 2 * sb + 1, *up_factor);
                    }
                    f(self.p + 2 * b + 1, *nic_factor);
                }
            }
            Kind::Torus { link_factor, dims } => {
                let (a, b) = (self.node[from], self.node[to]);
                if a != b {
                    // Dimension-ordered shortest-path routing: walk each
                    // dimension to its target coordinate in the shorter
                    // wrap direction (ties go positive), charging the
                    // directional link of every node the hop leaves.
                    let nd = dims.len();
                    let mut cur = a;
                    let mut coord = [0usize; 4];
                    let mut rest = a;
                    for (d, &len) in dims.iter().enumerate() {
                        coord[d] = rest % len;
                        rest /= len;
                    }
                    let mut target = [0usize; 4];
                    rest = b;
                    for (d, &len) in dims.iter().enumerate() {
                        target[d] = rest % len;
                        rest /= len;
                    }
                    // Stride of dimension d in the node id.
                    let mut stride = [0usize; 4];
                    let mut s = 1usize;
                    for (d, &len) in dims.iter().enumerate() {
                        stride[d] = s;
                        s *= len;
                    }
                    for d in 0..nd {
                        let len = dims[d];
                        let fwd = (target[d] + len - coord[d]) % len;
                        let (steps, dir) = if fwd <= len - fwd {
                            (fwd, 0)
                        } else {
                            (len - fwd, 1)
                        };
                        for _ in 0..steps {
                            f(self.p + (cur * nd + d) * 2 + dir, *link_factor);
                            let next_c = if dir == 0 {
                                (coord[d] + 1) % len
                            } else {
                                (coord[d] + len - 1) % len
                            };
                            cur = cur + next_c * stride[d] - coord[d] * stride[d];
                            coord[d] = next_c;
                        }
                    }
                    debug_assert_eq!(cur, b, "torus route must land on the target node");
                }
            }
        }
        f(to, 1.0);
    }

    /// The conservative-synchronization lookahead of this network under a
    /// cost model with link latency `alpha_s`: a lower bound on the virtual
    /// time between a message being *posted* and it *completing* at the
    /// receiver, over every rank pair and network state.
    ///
    /// The parallel event scheduler advances all regions through lockstep
    /// windows of this width — a message sent inside the window
    /// `[floor, floor + lookahead)` cannot complete before `floor +
    /// lookahead`, so windows are closed under event generation. Every
    /// transfer pays the full α latency end-to-end exactly once (routing
    /// adds bandwidth serialization on shared links, never a latency
    /// discount), so the bound is `alpha_s` on every topology; a zero or
    /// negative α yields zero lookahead, which disables sharding.
    pub fn region_lookahead_s(&self, alpha_s: f64) -> f64 {
        alpha_s
    }

    /// The mean-field contention multiplier of the network under uniform
    /// traffic: the expected effective per-word cost of a transfer between
    /// a uniformly random rank pair, relative to the flat wire.
    ///
    /// Each link's *sharers* count is its uniform all-to-all load,
    /// `flows(link) / (p − 1)` where `flows` counts the ordered rank pairs
    /// whose route crosses the link — exactly the average number of
    /// transfers the event executor serializes behind one another on that
    /// link when every rank is receiving. A route's effective cost is
    /// `Σ factor(hop) · sharers(hop)` and the multiplier is the mean over
    /// all ordered pairs. Scaling a cost model's β by it gives the
    /// plan-level view of the executor's shared-link contention
    /// ([`crate::cost::CostModel::with_contention`]).
    ///
    /// [`Topology::Flat`] yields exactly `1.0` (every route is the
    /// receiver's uncontended injection link), so the scaled model stays
    /// bitwise-identical to the unscaled one.
    pub fn mean_contention(&self) -> f64 {
        if self.p < 2 || matches!(self.kind, Kind::Flat) {
            return 1.0;
        }
        let mut flows = vec![0u64; self.n_links];
        for s in 0..self.p {
            for r in 0..self.p {
                if s != r {
                    self.for_each_hop(s, r, |link, _| flows[link] += 1);
                }
            }
        }
        let denom = (self.p - 1) as f64;
        let mut total = 0.0;
        for s in 0..self.p {
            for r in 0..self.p {
                if s != r {
                    self.for_each_hop(s, r, |link, factor| {
                        total += factor * (flows[link] as f64 / denom);
                    });
                }
            }
        }
        total / (self.p as f64 * denom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hops(net: &Network, from: usize, to: usize) -> Vec<(usize, f64)> {
        let mut out = Vec::new();
        net.for_each_hop(from, to, |l, f| out.push((l, f)));
        out
    }

    #[test]
    fn flat_routes_only_the_injection_link() {
        let net = Network::compile(8, &Topology::Flat, Placement::Block);
        assert_eq!(net.n_links(), 8);
        assert_eq!(hops(&net, 3, 5), vec![(5, 1.0)]);
        assert_eq!(hops(&net, 5, 5), vec![(5, 1.0)]);
    }

    #[test]
    fn node_nic_routes_cross_both_nics() {
        let topo = Topology::NodeNic {
            ranks_per_node: 4,
            nic_factor: 0.5,
        };
        let net = Network::compile(8, &topo, Placement::Block);
        // 2 nodes: links 8..12 are node links.
        assert_eq!(net.n_links(), 8 + 4);
        // Intra-node: injection only.
        assert_eq!(hops(&net, 0, 3), vec![(3, 1.0)]);
        // Inter-node: node 0 up (8), node 1 down (11), injection.
        assert_eq!(hops(&net, 0, 5), vec![(8, 0.5), (11, 0.5), (5, 1.0)]);
    }

    #[test]
    fn placement_changes_node_assignment() {
        let topo = Topology::NodeNic {
            ranks_per_node: 2,
            nic_factor: 1.0,
        };
        let block = Network::compile(4, &topo, Placement::Block);
        let rr = Network::compile(4, &topo, Placement::RoundRobin);
        // Block: {0,1} {2,3}; round-robin: {0,2} {1,3}.
        assert_eq!(hops(&block, 0, 1).len(), 1);
        assert_eq!(hops(&rr, 0, 1).len(), 3);
        assert_eq!(hops(&rr, 0, 2).len(), 1);
    }

    #[test]
    fn fat_tree_adds_switch_hops_across_switches() {
        let topo = Topology::FatTree {
            ranks_per_node: 2,
            nodes_per_switch: 2,
            nic_factor: 0.5,
            up_factor: 2.0,
        };
        // p = 8: 4 nodes, 2 switches. Node links 8..16, switch links 16..20.
        let net = Network::compile(8, &topo, Placement::Block);
        assert_eq!(net.n_links(), 8 + 8 + 4);
        // Same node.
        assert_eq!(hops(&net, 0, 1), vec![(1, 1.0)]);
        // Same switch (nodes 0 and 1): NICs only.
        assert_eq!(hops(&net, 0, 2), vec![(8, 0.5), (11, 0.5), (2, 1.0)]);
        // Cross switch (node 0 → node 2): NIC up, switch 0 up, switch 1
        // down, NIC down, injection.
        assert_eq!(hops(&net, 0, 4), vec![(8, 0.5), (16, 2.0), (19, 2.0), (13, 0.5), (4, 1.0)]);
    }

    #[test]
    fn torus_routes_dimension_ordered_shortest_paths() {
        let topo = Topology::Torus {
            ranks_per_node: 1,
            dims: vec![4, 4],
            link_factor: 1.0,
        };
        let net = Network::compile(16, &topo, Placement::Block);
        assert_eq!(net.n_links(), 16 + 16 * 2 * 2);
        // Node ids are rank ids (1 rank/node): node 0 = (0,0), node 6 =
        // (2,1). Route: +x twice, +y once → 3 torus hops + injection.
        assert_eq!(hops(&net, 0, 6).len(), 4);
        // Wrap-around is shorter for (0,0) → (3,0): one −x hop.
        assert_eq!(hops(&net, 0, 3).len(), 2);
        // Every route must land on the target (debug_assert inside), and
        // hop counts are symmetric on a symmetric torus.
        for from in 0..16 {
            for to in 0..16 {
                assert_eq!(hops(&net, from, to).len(), hops(&net, to, from).len(), "{from}->{to}");
            }
        }
    }

    #[test]
    fn mean_contention_is_exactly_one_on_flat() {
        let net = Network::compile(16, &Topology::Flat, Placement::Block);
        assert_eq!(net.mean_contention(), 1.0);
    }

    #[test]
    fn mean_contention_matches_hand_count_on_two_nodes() {
        // p = 4 on 2 nodes of 2, nic factor 1: flows — injection links 3
        // each (sharers 1), NIC up/down 2·2 = 4 each (sharers 4/3). An
        // intra-node route costs 1; an inter-node route costs
        // 1 + 2·(4/3) = 11/3. Per rank: 1 intra peer, 2 inter peers →
        // mean = (1 + 2·11/3) / 3 = 25/9.
        let topo = Topology::NodeNic {
            ranks_per_node: 2,
            nic_factor: 1.0,
        };
        let net = Network::compile(4, &topo, Placement::Block);
        assert!((net.mean_contention() - 25.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn mean_contention_grows_with_congestion_and_ignores_placement() {
        let p = 64;
        let fat = Topology::congested_fat_tree();
        let gentle = Topology::NodeNic {
            ranks_per_node: 4,
            nic_factor: 0.25,
        };
        let fat_m = Network::compile(p, &fat, Placement::Block).mean_contention();
        let gentle_m = Network::compile(p, &gentle, Placement::Block).mean_contention();
        assert!(fat_m > gentle_m && gentle_m > 1.0, "fat {fat_m}, gentle {gentle_m}");
        // Uniform traffic is placement-blind: scattering ranks relabels
        // pairs without changing the aggregate link loads.
        let rr = Network::compile(p, &fat, Placement::RoundRobin).mean_contention();
        assert!((fat_m - rr).abs() < 1e-9, "block {fat_m} vs round-robin {rr}");
    }

    #[test]
    fn torus_charges_the_departure_link_of_each_node() {
        let topo = Topology::Torus {
            ranks_per_node: 1,
            dims: vec![4],
            link_factor: 0.25,
        };
        let net = Network::compile(4, &topo, Placement::Block);
        // 0 → 2: ties go positive — nodes 0 and 1's +dir links, then
        // injection. Link id: p + (node·1 + 0)·2 + 0.
        assert_eq!(hops(&net, 0, 2), vec![(4, 0.25), (6, 0.25), (2, 1.0)]);
        // 0 → 3: shorter backwards — node 0's −dir link.
        assert_eq!(hops(&net, 0, 3), vec![(5, 0.25), (3, 1.0)]);
    }
}
