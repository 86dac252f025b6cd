//! Fat-tree topology and hop-count routing.

use amo_types::NodeId;

/// A fat tree of routers with a fixed radix (children per router).
/// Nodes attach to leaf routers in groups of `radix`; every level above
/// groups `radix` routers under one parent.
#[derive(Clone, Debug)]
pub(crate) struct Topology {
    num_nodes: u16,
    radix: usize,
    /// Dense directed-link id space: `level_offsets[k]` is the first id
    /// of level `k`'s links (level 0: node↔leaf-router, level k:
    /// level-k entity↔its parent); the final element is the total link
    /// count. Each entity owns two ids: up (`+1`) and down (`+0`).
    level_offsets: Vec<u32>,
}

impl Topology {
    /// Build a topology for `num_nodes` nodes with the given router radix.
    pub(crate) fn new(num_nodes: u16, radix: usize) -> Self {
        assert!(num_nodes >= 1, "topology needs at least one node");
        assert!(radix >= 2, "router radix must be at least 2");
        let mut level_offsets = vec![0u32];
        let mut entities = num_nodes as usize;
        while entities > 1 {
            let prev = *level_offsets.last().expect("non-empty");
            level_offsets.push(prev + 2 * entities as u32);
            entities = entities.div_ceil(radix);
        }
        Topology {
            num_nodes,
            radix,
            level_offsets,
        }
    }

    /// Number of router levels needed to connect every node
    /// (1 when all nodes share a single leaf router).
    #[cfg(test)]
    pub(crate) fn levels(&self) -> u32 {
        let mut groups = self.num_nodes as usize;
        let mut levels = 1;
        groups = groups.div_ceil(self.radix);
        while groups > 1 {
            groups = groups.div_ceil(self.radix);
            levels += 1;
        }
        levels
    }

    /// One-way hop count from `src` to `dst`.
    ///
    /// A hop is one link traversal. Same node: 0 hops. Nodes under the
    /// same leaf router: node→router→node = 2 hops. Every extra level to
    /// the lowest common ancestor adds 2 (one up, one down).
    pub(crate) fn hops(&self, src: NodeId, dst: NodeId) -> u64 {
        assert!(
            src.0 < self.num_nodes && dst.0 < self.num_nodes,
            "node out of range"
        );
        if src == dst {
            return 0;
        }
        let mut a = src.0 as usize / self.radix;
        let mut b = dst.0 as usize / self.radix;
        let mut hops = 2;
        while a != b {
            a /= self.radix;
            b /= self.radix;
            hops += 2;
        }
        hops
    }

    /// Total number of directed links in the tree. Link ids are dense in
    /// `0..num_links()`, so a flat `Vec` can index per-link state.
    pub(crate) fn num_links(&self) -> usize {
        *self.level_offsets.last().expect("non-empty") as usize
    }

    /// Dense id of one directed link: `(level, entity index, up/down)`.
    #[inline]
    fn link_id(&self, level: usize, index: u64, up: bool) -> u32 {
        self.level_offsets[level] + 2 * index as u32 + up as u32
    }

    /// The sequence of link identifiers a packet traverses from `src` to
    /// `dst`, for router-contention modelling, appended to `out` in
    /// traversal order. Ids are dense (`< num_links()`). Same-node
    /// traffic takes no links. The caller owns `out` so the hot path can
    /// reuse one scratch buffer instead of allocating per send.
    pub(crate) fn path_links_into(&self, src: NodeId, dst: NodeId, out: &mut Vec<u32>) {
        if src == dst {
            return;
        }
        // Climb from both ends to the lowest common ancestor twice: once
        // collecting up-links from the source side, once collecting
        // down-links to the destination side (reversed in place into
        // top-down traversal order). No allocation beyond `out` itself.
        let radix = self.radix as u64;
        let (mut a, mut b) = (src.0 as u64 / radix, dst.0 as u64 / radix);
        let mut level = 1;
        out.push(self.link_id(0, src.0 as u64, true));
        while a != b {
            out.push(self.link_id(level, a, true));
            a /= radix;
            b /= radix;
            level += 1;
        }
        let downs_start = out.len();
        let (mut a, mut b) = (src.0 as u64 / radix, dst.0 as u64 / radix);
        let mut level = 1;
        out.push(self.link_id(0, dst.0 as u64, false));
        while a != b {
            out.push(self.link_id(level, b, false));
            a /= radix;
            b /= radix;
            level += 1;
        }
        out[downs_start..].reverse();
    }

    /// Allocating convenience wrapper around [`Self::path_links_into`].
    #[cfg(test)]
    pub(crate) fn path_links(&self, src: NodeId, dst: NodeId) -> Vec<u32> {
        let mut out = Vec::new();
        self.path_links_into(src, dst, &mut out);
        out
    }

    /// Largest one-way hop count in this topology (network diameter).
    #[cfg(test)]
    pub(crate) fn diameter(&self) -> u64 {
        if self.num_nodes <= 1 {
            0
        } else {
            self.hops(NodeId(0), NodeId(self.num_nodes - 1))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amo_types::seed::cases;

    #[test]
    fn same_node_is_zero_hops() {
        let t = Topology::new(16, 8);
        assert_eq!(t.hops(NodeId(3), NodeId(3)), 0);
    }

    #[test]
    fn same_leaf_router_is_two_hops() {
        let t = Topology::new(16, 8);
        assert_eq!(t.hops(NodeId(0), NodeId(7)), 2);
        assert_eq!(t.hops(NodeId(8), NodeId(15)), 2);
    }

    #[test]
    fn cross_leaf_is_four_hops() {
        let t = Topology::new(16, 8);
        assert_eq!(t.hops(NodeId(0), NodeId(8)), 4);
    }

    #[test]
    fn paper_scale_128_nodes() {
        // 256 processors = 128 nodes: 16 leaf routers, 2 mid routers,
        // 1 root → diameter 6.
        let t = Topology::new(128, 8);
        assert_eq!(t.levels(), 3);
        assert_eq!(t.diameter(), 6);
        assert_eq!(t.hops(NodeId(0), NodeId(63)), 4); // same mid-level subtree
        assert_eq!(t.hops(NodeId(0), NodeId(64)), 6); // across the root
    }

    #[test]
    fn two_node_machine() {
        let t = Topology::new(2, 8);
        assert_eq!(t.levels(), 1);
        assert_eq!(t.hops(NodeId(0), NodeId(1)), 2);
        assert_eq!(t.diameter(), 2);
    }

    #[test]
    fn path_links_match_hop_counts() {
        let t = Topology::new(128, 8);
        for (s, d) in [(0u16, 0u16), (0, 7), (0, 8), (0, 64), (3, 120)] {
            let links = t.path_links(NodeId(s), NodeId(d));
            assert_eq!(
                links.len() as u64,
                t.hops(NodeId(s), NodeId(d)),
                "path length vs hops for {s}->{d}"
            );
        }
    }

    #[test]
    fn paths_share_links_exactly_when_they_share_segments() {
        let t = Topology::new(16, 8);
        // 0->9 and 1->9 share the down-link into node 9 (and the
        // inter-router segment), but not their injection links.
        let p0: std::collections::HashSet<u32> =
            t.path_links(NodeId(0), NodeId(9)).into_iter().collect();
        let p1: std::collections::HashSet<u32> =
            t.path_links(NodeId(1), NodeId(9)).into_iter().collect();
        assert!(!p0.is_disjoint(&p1), "shared tail");
        assert!(p0 != p1, "distinct injection links");
        // Opposite directions over the same pair share nothing (links
        // are directed).
        let fwd: std::collections::HashSet<u32> =
            t.path_links(NodeId(0), NodeId(9)).into_iter().collect();
        let back: std::collections::HashSet<u32> =
            t.path_links(NodeId(9), NodeId(0)).into_iter().collect();
        assert!(fwd.is_disjoint(&back));
    }

    #[test]
    fn link_ids_are_dense_and_distinct_along_a_path() {
        let t = Topology::new(128, 8);
        // 128 nodes + 16 leaf routers + 2 mid routers, two directed
        // links each (the single root has no parent).
        assert_eq!(t.num_links(), 2 * (128 + 16 + 2));
        for (s, d) in [(0u16, 7u16), (0, 8), (0, 64), (3, 120), (127, 0)] {
            let links = t.path_links(NodeId(s), NodeId(d));
            let uniq: std::collections::HashSet<u32> = links.iter().copied().collect();
            assert_eq!(uniq.len(), links.len(), "duplicate link on {s}->{d}");
            for &l in &links {
                assert!((l as usize) < t.num_links(), "id {l} out of range");
            }
        }
    }

    /// Hop counts are symmetric, even, and bounded by the diameter.
    #[test]
    fn hops_symmetric_even_bounded() {
        for mut rng in cases(module_path!(), "hops_symmetric_even_bounded", 64) {
            let (n, a, b) = (
                2 + rng.below(127) as u16,
                rng.below(128) as u16,
                rng.below(128) as u16,
            );
            let t = Topology::new(n, 8);
            let (a, b) = (NodeId(a % n), NodeId(b % n));
            let h = t.hops(a, b);
            assert_eq!(h, t.hops(b, a));
            assert_eq!(h % 2, 0);
            assert!(h <= t.diameter());
            if a != b {
                assert!(h >= 2);
            }
        }
    }
}
