//! Identifiers for processors, nodes, and outstanding requests.

use std::fmt;

/// Identifies one processor in the machine. Processors are numbered
/// `0..num_procs`; two consecutive processors share a node (the paper's
/// machine has two MIPS processors per Hub).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ProcId(pub u16);

impl ProcId {
    /// The node this processor lives on, given `procs_per_node`.
    #[inline]
    pub fn node(self, procs_per_node: u16) -> NodeId {
        NodeId(self.0 / procs_per_node)
    }

    /// Numeric index, convenient for table/vec indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ProcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// Identifies one node: a pair of processors plus a Hub containing the
/// memory controller, directory controller, network interface, and the
/// Active Memory Unit.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub u16);

impl NodeId {
    /// Numeric index, convenient for table/vec indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Iterator over the processors on this node.
    pub fn procs(self, procs_per_node: u16) -> impl Iterator<Item = ProcId> {
        let base = self.0 * procs_per_node;
        (base..base + procs_per_node).map(ProcId)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "N{}", self.0)
    }
}

/// Tag matching a reply to the request that caused it. Unique within a run;
/// allocated monotonically by whoever issues requests (processors, AMUs).
/// The layout — allocating processor in the top 16 bits, its sequence
/// number in the low 48 — is owned here: build with [`ReqId::new`], take
/// apart with [`ReqId::proc`] and [`ReqId::seq`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ReqId(pub u64);

impl ReqId {
    const SEQ_BITS: u32 = 48;

    /// The `seq`-th tag allocated by `proc`. Sequences start at 1, so no
    /// tag maps to flow id 0.
    #[inline]
    pub fn new(proc: ProcId, seq: u64) -> Self {
        debug_assert!(seq >> Self::SEQ_BITS == 0, "request sequence overflow");
        ReqId(((proc.0 as u64) << Self::SEQ_BITS) | seq)
    }

    /// The causal flow identity of this request: every trace event that
    /// participates in the request's life (injection, hub receipt,
    /// directory service, AMU execution, NACKs, retries, the reply, and
    /// the kernel-op completion) carries this value in
    /// `TraceEvent::flow`. Request tags are allocated monotonically and
    /// never reused within a run, so the flow id is unique across
    /// episodes by construction; 0 is reserved for "no flow".
    #[inline]
    pub fn flow(self) -> u64 {
        self.0
    }

    /// The processor that allocated this tag.
    #[inline]
    pub fn proc(self) -> ProcId {
        ProcId((self.0 >> Self::SEQ_BITS) as u16)
    }

    /// Position of this tag in its processor's allocation order. Tags are
    /// monotonic per processor, so of two tags from one processor the
    /// smaller `seq` is the older request.
    #[inline]
    pub fn seq(self) -> u64 {
        self.0 & ((1 << Self::SEQ_BITS) - 1)
    }
}

impl fmt::Display for ReqId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "req{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_to_node_mapping_uses_procs_per_node() {
        assert_eq!(ProcId(0).node(2), NodeId(0));
        assert_eq!(ProcId(1).node(2), NodeId(0));
        assert_eq!(ProcId(2).node(2), NodeId(1));
        assert_eq!(ProcId(255).node(2), NodeId(127));
        assert_eq!(ProcId(3).node(4), NodeId(0));
        assert_eq!(ProcId(4).node(4), NodeId(1));
    }

    #[test]
    fn node_lists_its_processors() {
        let procs: Vec<_> = NodeId(3).procs(2).collect();
        assert_eq!(procs, vec![ProcId(6), ProcId(7)]);
    }

    #[test]
    fn req_id_round_trips_proc_and_seq() {
        let max_seq = (1u64 << 48) - 1;
        for p in [ProcId(0), ProcId(u16::MAX)] {
            for s in [0, 1, max_seq] {
                let r = ReqId::new(p, s);
                assert_eq!((r.proc(), r.seq()), (p, s), "{r:?}");
                assert!(s == 0 || r.flow() != 0, "flow 0 means no flow: {r:?}");
            }
        }
        assert_eq!(ReqId::new(ProcId(3), 1), ReqId((3 << 48) | 1));
    }

    #[test]
    fn display_formats() {
        assert_eq!(ProcId(7).to_string(), "P7");
        assert_eq!(NodeId(3).to_string(), "N3");
        assert_eq!(ReqId(12).to_string(), "req12");
    }
}
