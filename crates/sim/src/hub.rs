//! One node's hub: directory controller, memory controller (DRAM timing +
//! backing store) and Active Memory Unit.

use amo_amu::Amu;
use amo_directory::Directory;
use amo_dram::{DramTimer, MemoryStore};
use amo_types::{Cycle, NodeId, SystemConfig};

/// Everything that lives on one node besides its processors.
pub(crate) struct Hub {
    /// Directory controller for locally-homed blocks.
    pub directory: Directory,
    /// Active Memory Unit.
    pub amu: Amu,
    /// DRAM timing model.
    pub dram: DramTimer,
    /// Backing store of local memory values.
    pub memory: MemoryStore,
    /// Directory service pipeline: busy until this cycle.
    pub dir_free: Cycle,
}

impl Hub {
    /// Build the hub for `node`.
    pub(crate) fn new(node: NodeId, cfg: &SystemConfig) -> Self {
        Hub {
            directory: Directory::new(node, cfg.procs_per_node)
                .with_dup_guard(cfg.faults.delivery_enabled()),
            amu: Amu::new(
                cfg.amu.cache_words,
                cfg.amu.op_hub_cycles * cfg.hub_cycle,
                cfg.amu.queue_cap,
                cfg.l2.line_bytes,
            )
            .with_dedup(if cfg.faults.delivery_enabled() {
                cfg.faults.dedup_window
            } else {
                0
            }),
            dram: DramTimer::new(
                cfg.dram_channels,
                cfg.dram_latency,
                cfg.dram_occupancy,
                cfg.l2.line_bytes,
            ),
            memory: MemoryStore::new(),
            dir_free: 0,
        }
    }

    /// Occupancy (in CPU cycles) of one directory message service.
    pub(crate) fn dir_occupancy(cfg: &SystemConfig) -> Cycle {
        cfg.dir_occupancy_hub_cycles * cfg.hub_cycle
    }
}
