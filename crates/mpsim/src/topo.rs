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
//! * node NICs ([`Topology::FatTree`]) — `p + 2·node` (up) and
//!   `p + 2·node + 1` (down);
//! * leaf switches — after all node links: `sw_base + 2·switch` (up) and
//!   `sw_base + 2·switch + 1` (down).

use crate::machine::{Placement, Topology};

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
    FatTree {
        nic_factor: f64,
        up_factor: f64,
        nodes_per_switch: usize,
        sw_base: usize,
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
    /// Compile `topology` and `placement` for a world of `p` ranks.
    ///
    /// # Panics
    /// Panics when the topology's parameters are invalid
    /// ([`Topology::validate`]) —
    /// [`MachineSpec::with_topology`](crate::machine::MachineSpec::with_topology)
    /// rejects them earlier on the builder path.
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
        }
        f(to, 1.0);
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
        // One leaf switch over every node: only the NICs are shared.
        let topo = Topology::FatTree {
            ranks_per_node: 4,
            nodes_per_switch: usize::MAX,
            nic_factor: 0.5,
            up_factor: 0.5,
        };
        let net = Network::compile(8, &topo, Placement::Block);
        // 2 nodes: links 8..12 are node links, 12..14 the switch's.
        assert_eq!(net.n_links(), 8 + 4 + 2);
        // Intra-node: injection only.
        assert_eq!(hops(&net, 0, 3), vec![(3, 1.0)]);
        // Inter-node: node 0 up (8), node 1 down (11), injection.
        assert_eq!(hops(&net, 0, 5), vec![(8, 0.5), (11, 0.5), (5, 1.0)]);
    }

    #[test]
    fn placement_changes_node_assignment() {
        let topo = Topology::FatTree {
            ranks_per_node: 2,
            nodes_per_switch: usize::MAX,
            nic_factor: 1.0,
            up_factor: 1.0,
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
        // mean = (1 + 2·11/3) / 3 = 25/9. Both nodes hang off one switch,
        // whose links no route crosses.
        let topo = Topology::FatTree {
            ranks_per_node: 2,
            nodes_per_switch: usize::MAX,
            nic_factor: 1.0,
            up_factor: 1.0,
        };
        let net = Network::compile(4, &topo, Placement::Block);
        assert!((net.mean_contention() - 25.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn mean_contention_grows_with_congestion_and_ignores_placement() {
        let p = 64;
        let fat = Topology::congested_fat_tree();
        let gentle = Topology::FatTree {
            ranks_per_node: 4,
            nodes_per_switch: usize::MAX,
            nic_factor: 0.25,
            up_factor: 0.25,
        };
        let fat_m = Network::compile(p, &fat, Placement::Block).mean_contention();
        let gentle_m = Network::compile(p, &gentle, Placement::Block).mean_contention();
        assert!(fat_m > gentle_m && gentle_m > 1.0, "fat {fat_m}, gentle {gentle_m}");
        // Uniform traffic is placement-blind: scattering ranks relabels
        // pairs without changing the aggregate link loads.
        let rr = Network::compile(p, &fat, Placement::RoundRobin).mean_contention();
        assert!((fat_m - rr).abs() < 1e-9, "block {fat_m} vs round-robin {rr}");
    }
}
