//! Dissemination overlay: a deterministic k-ary tree over the current view
//! (DESIGN.md §13).
//!
//! Under [`OverlayPolicy::Tree`](crate::config::OverlayPolicy) control
//! traffic — aggregated heartbeat/ack digests and first-chance NACK repair —
//! travels along tree edges instead of full-mesh, so an interior node sees
//! O(arity) control datagrams per heartbeat interval instead of O(n).
//!
//! The tree is a pure function of the membership: members are sorted by id
//! into an array, index `i`'s parent is `(i - 1) / k` and its children are
//! `k*i + 1 ..= k*i + k`. Every member therefore computes the identical tree
//! from the identical view, with no coordination messages; a view change is
//! a rebuild, nothing more.
//!
//! Tree edges are realized over the existing multicast-only action spine:
//! each member owns a *neighborhood* multicast address derived from
//! `(group, member)` ([`overlay_addr`]), publishes its control traffic
//! there, and subscribes to the neighborhood addresses of its tree
//! neighbors. Reliable traffic (Regular, membership operations) still uses
//! the group address — only the O(n²) control plane migrates to the tree.

use crate::ids::{GroupId, ProcessorId};
use ftmp_net::McastAddr;

/// High bit reserved for overlay neighborhood addresses so they can never
/// collide with the small literal group/domain addresses tests configure.
const OVERLAY_ADDR_BIT: u32 = 0x8000_0000;

/// The neighborhood multicast address member `p` of `group` publishes its
/// overlay control traffic on. FNV-1a over the two ids; deterministic, so
/// every member derives every neighbor's address without negotiation. A
/// 31-bit hash collision between two members merely merges their
/// neighborhoods (extra receptions, never lost ones).
pub fn overlay_addr(group: GroupId, p: ProcessorId) -> McastAddr {
    let mut h: u32 = 0x811C_9DC5;
    for b in group.0.to_le_bytes().into_iter().chain(p.0.to_le_bytes()) {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    McastAddr(OVERLAY_ADDR_BIT | (h & 0x7FFF_FFFF))
}

/// The deterministic k-ary dissemination tree over one view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OverlayTree {
    /// The view, sorted ascending by id; index 0 is the root.
    members: Vec<ProcessorId>,
    arity: usize,
}

impl OverlayTree {
    /// Build the tree for a view. Arity is clamped to ≥ 2 (a unary "tree"
    /// is a chain with O(n) depth and no aggregation benefit).
    pub fn build(members: impl IntoIterator<Item = ProcessorId>, arity: usize) -> Self {
        let mut members: Vec<ProcessorId> = members.into_iter().collect();
        members.sort_unstable();
        members.dedup();
        OverlayTree {
            members,
            arity: arity.max(2),
        }
    }

    /// The sorted view this tree was built over.
    pub fn members(&self) -> &[ProcessorId] {
        &self.members
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True for the empty view.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    fn index_of(&self, p: ProcessorId) -> Option<usize> {
        self.members.binary_search(&p).ok()
    }

    /// The parent of `p`, `None` for the root or a non-member.
    pub fn parent(&self, p: ProcessorId) -> Option<ProcessorId> {
        let i = self.index_of(p)?;
        (i > 0).then(|| self.members[(i - 1) / self.arity])
    }

    /// The children of `p` in the tree (empty for leaves and non-members).
    pub fn children(&self, p: ProcessorId) -> Vec<ProcessorId> {
        let Some(i) = self.index_of(p) else {
            return Vec::new();
        };
        let lo = (self.arity * i + 1).min(self.members.len());
        let hi = (self.arity * i + self.arity + 1).min(self.members.len());
        self.members[lo..hi].to_vec()
    }

    /// Parent plus children: the members whose neighborhood addresses `p`
    /// subscribes to, and the only members that hear `p`'s own digests.
    pub fn neighbors(&self, p: ProcessorId) -> Vec<ProcessorId> {
        let mut out = Vec::new();
        if let Some(parent) = self.parent(p) {
            out.push(parent);
        }
        out.extend(self.children(p));
        out
    }

    /// True when `q` is a tree neighbor of `p`.
    pub fn is_neighbor(&self, p: ProcessorId, q: ProcessorId) -> bool {
        if p == q {
            return false;
        }
        self.parent(p) == Some(q) || self.parent(q) == Some(p)
    }

    /// Edge distance from the root (root = 0); `None` for non-members.
    pub fn depth_of(&self, p: ProcessorId) -> Option<usize> {
        let mut i = self.index_of(p)?;
        let mut d = 0;
        while i > 0 {
            i = (i - 1) / self.arity;
            d += 1;
        }
        Some(d)
    }

    /// The tree height: maximum depth over all members (0 for ≤ 1 member).
    /// Bounds digest propagation lag to `depth × heartbeat_interval` per
    /// direction, which the tree-mode heartbeat-deferral cap must leave
    /// room for (DESIGN.md §13).
    pub fn depth(&self) -> usize {
        // The deepest node is always the last index in a level-complete
        // k-ary array layout.
        match self.members.len() {
            0 | 1 => 0,
            n => {
                let mut i = n - 1;
                let mut d = 0;
                while i > 0 {
                    i = (i - 1) / self.arity;
                    d += 1;
                }
                d
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: impl IntoIterator<Item = u32>) -> Vec<ProcessorId> {
        v.into_iter().map(ProcessorId).collect()
    }

    #[test]
    fn binary_tree_shape() {
        // Sorted: [1,2,3,4,5,6,7]; parent(i) = (i-1)/2 over indices.
        let t = OverlayTree::build(ids([5, 3, 1, 7, 2, 6, 4]), 2);
        assert_eq!(t.members(), ids([1, 2, 3, 4, 5, 6, 7]).as_slice());
        assert_eq!(t.parent(ProcessorId(1)), None);
        assert_eq!(t.children(ProcessorId(1)), ids([2, 3]));
        assert_eq!(t.children(ProcessorId(2)), ids([4, 5]));
        assert_eq!(t.children(ProcessorId(3)), ids([6, 7]));
        assert_eq!(t.parent(ProcessorId(6)), Some(ProcessorId(3)));
        assert_eq!(t.children(ProcessorId(7)), ids([]));
        assert_eq!(t.depth(), 2);
        assert_eq!(t.depth_of(ProcessorId(1)), Some(0));
        assert_eq!(t.depth_of(ProcessorId(5)), Some(2));
    }

    #[test]
    fn neighbors_are_parent_plus_children() {
        let t = OverlayTree::build(ids(1..=7), 2);
        assert_eq!(t.neighbors(ProcessorId(2)), ids([1, 4, 5]));
        assert_eq!(t.neighbors(ProcessorId(1)), ids([2, 3]));
        assert_eq!(t.neighbors(ProcessorId(7)), ids([3]));
        assert!(t.is_neighbor(ProcessorId(2), ProcessorId(1)));
        assert!(t.is_neighbor(ProcessorId(1), ProcessorId(2)));
        assert!(!t.is_neighbor(ProcessorId(4), ProcessorId(5)));
        assert!(!t.is_neighbor(ProcessorId(2), ProcessorId(2)));
    }

    #[test]
    fn every_member_reaches_root() {
        for n in 1..70u32 {
            for k in 2..=8 {
                let t = OverlayTree::build(ids(1..=n), k);
                for &p in t.members() {
                    let mut cur = p;
                    let mut hops = 0;
                    while let Some(parent) = t.parent(cur) {
                        cur = parent;
                        hops += 1;
                        assert!(hops <= t.depth(), "cycle or depth bound broken");
                    }
                    assert_eq!(cur, ProcessorId(1), "walk ends at the root");
                    assert_eq!(t.depth_of(p), Some(hops));
                }
            }
        }
    }

    #[test]
    fn parent_child_relation_is_symmetric() {
        let t = OverlayTree::build(ids(1..=64), 4);
        for &p in t.members() {
            for c in t.children(p) {
                assert_eq!(t.parent(c), Some(p));
            }
            if let Some(parent) = t.parent(p) {
                assert!(t.children(parent).contains(&p));
            }
        }
    }

    #[test]
    fn depth_shrinks_with_arity() {
        let members = ids(1..=128);
        let d2 = OverlayTree::build(members.clone(), 2).depth();
        let d4 = OverlayTree::build(members.clone(), 4).depth();
        let d8 = OverlayTree::build(members, 8).depth();
        assert!(d2 > d4 && d4 > d8, "{d2} {d4} {d8}");
        assert_eq!(d4, 4, "128 members at arity 4");
    }

    #[test]
    fn unary_arity_clamped() {
        let t = OverlayTree::build(ids(1..=8), 0);
        assert_eq!(t.depth(), 3, "clamped to binary");
    }

    #[test]
    fn overlay_addr_deterministic_and_flagged() {
        let a = overlay_addr(GroupId(1), ProcessorId(7));
        assert_eq!(a, overlay_addr(GroupId(1), ProcessorId(7)));
        assert_ne!(a, overlay_addr(GroupId(1), ProcessorId(8)));
        assert_ne!(a, overlay_addr(GroupId(2), ProcessorId(7)));
        assert_eq!(a.0 & OVERLAY_ADDR_BIT, OVERLAY_ADDR_BIT);
        // No collisions across a large realistic view.
        let mut seen = std::collections::BTreeSet::new();
        for p in 1..=256u32 {
            assert!(seen.insert(overlay_addr(GroupId(1), ProcessorId(p))));
        }
    }

    #[test]
    fn non_member_queries_are_none_or_empty() {
        let t = OverlayTree::build(ids(1..=4), 2);
        assert_eq!(t.parent(ProcessorId(99)), None);
        assert!(t.children(ProcessorId(99)).is_empty());
        assert_eq!(t.depth_of(ProcessorId(99)), None);
    }

    mod aggregation_props {
        use super::*;
        use crate::ids::Timestamp;
        use crate::romp::Ordering;
        use proptest::prelude::*;

        /// One digest hop: `from` forwards its whole reported-ack vector and
        /// `to` join-merges it (`record_ack` takes the per-member max), the
        /// exact per-entry operation `handle_overlay_digest` performs.
        fn relay(nodes: &mut [Ordering], from: usize, to: usize) {
            let entries: Vec<(ProcessorId, Timestamp)> = nodes[from].reported_acks().collect();
            for (p, t) in entries {
                nodes[to].record_ack(p, t);
            }
        }

        proptest! {
            /// Tree-aggregated ack state converges to exactly the flat
            /// full-mesh merge: because `record_ack` is a join-semilattice
            /// merge (idempotent, commutative, monotone), relaying vectors
            /// along tree edges — in any interleaving with primary ack
            /// advances, at any arity 2–8 — reaches the same fixpoint as
            /// every member merging every advertisement directly. (The same
            /// memoization contract as `prop_ack_version_keys_vector_
            /// memoization`: what a digest forwards is `reported_acks()`.)
            #[test]
            fn prop_tree_aggregation_matches_flat_merge(
                n in 2usize..=20,
                arity in 2usize..=8,
                ops in proptest::collection::vec((0u8..3, 0u32..64, 1u64..40), 0..120),
            ) {
                let members: Vec<ProcessorId> = (1..=n as u32).map(ProcessorId).collect();
                let tree = OverlayTree::build(members.iter().copied(), arity);
                let mut nodes: Vec<Ordering> = (0..n)
                    .map(|_| Ordering::new(members.iter().copied(), Timestamp(0)))
                    .collect();
                // Each member's own advertised ack only advances; the flat
                // reference is the direct merge of the final advertisements.
                let mut advertised = vec![0u64; n];
                for (kind, who, amt) in ops {
                    let i = who as usize % n;
                    match kind {
                        0 => {
                            advertised[i] += amt;
                            let ts = Timestamp(advertised[i]);
                            nodes[i].record_ack(members[i], ts);
                        }
                        1 => {
                            if let Some(parent) = tree.parent(members[i]) {
                                let pi = tree.members().iter().position(|&m| m == parent).unwrap();
                                relay(&mut nodes, i, pi);
                            }
                        }
                        _ => {
                            let kids = tree.children(members[i]);
                            if !kids.is_empty() {
                                let kid = kids[amt as usize % kids.len()];
                                let ki = tree.members().iter().position(|&m| m == kid).unwrap();
                                relay(&mut nodes, i, ki);
                            }
                        }
                    }
                }
                // Run tree gossip to fixpoint: one up-sweep + one down-sweep
                // per round, `depth` rounds, covers every leaf-to-leaf path.
                for _ in 0..=tree.depth() {
                    for i in (0..n).rev() {
                        if let Some(parent) = tree.parent(members[i]) {
                            let pi = tree.members().iter().position(|&m| m == parent).unwrap();
                            relay(&mut nodes, i, pi);
                        }
                    }
                    for (i, &member) in members.iter().enumerate().take(n) {
                        if let Some(parent) = tree.parent(member) {
                            let pi = tree.members().iter().position(|&m| m == parent).unwrap();
                            relay(&mut nodes, pi, i);
                        }
                    }
                }
                let mut flat = Ordering::new(members.iter().copied(), Timestamp(0));
                for (i, &ts) in advertised.iter().enumerate() {
                    flat.record_ack(members[i], Timestamp(ts));
                }
                let want: Vec<(ProcessorId, Timestamp)> = flat.reported_acks().collect();
                for (i, node) in nodes.iter().enumerate() {
                    let got: Vec<(ProcessorId, Timestamp)> = node.reported_acks().collect();
                    prop_assert_eq!(
                        &got, &want,
                        "node {} diverged from the flat merge (arity {})", i, arity
                    );
                }
            }
        }
    }
}
