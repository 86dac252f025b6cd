//! System configuration — the paper's Table 1, plus the handful of model
//! parameters the paper describes in prose (AMU cache size, active-message
//! handler costs, ...). All latencies are in 2 GHz CPU cycles.

use crate::json::JsonWriter;
use crate::Cycle;

/// Geometry and latency of one cache level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Line (block) size in bytes.
    pub line_bytes: u64,
    /// Associativity.
    pub ways: usize,
    /// Access latency on a hit, in CPU cycles.
    pub hit_latency: Cycle,
}

impl CacheConfig {
    /// Number of sets implied by the geometry; 0 when a set of `ways`
    /// lines is empty or does not fit in `u64`.
    pub fn sets(&self) -> usize {
        self.line_bytes
            .checked_mul(self.ways as u64)
            .and_then(|set_bytes| self.size_bytes.checked_div(set_bytes))
            .unwrap_or(0) as usize
    }

    /// Words per line.
    pub fn line_words(&self) -> usize {
        (self.line_bytes / 8) as usize
    }
}

/// Interconnect parameters (paper: SGI NUMALink-4-style fat tree).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NetworkConfig {
    /// Latency of one hop through the network, in CPU cycles
    /// (paper: 50 ns = 100 cycles at 2 GHz).
    pub hop_latency: Cycle,
    /// Children per non-leaf router of the fat tree (paper: 8).
    pub router_radix: usize,
    /// Minimum network packet size in bytes (paper: 32).
    pub min_packet_bytes: u64,
    /// Header bytes prepended to data payloads.
    pub header_bytes: u64,
    /// Bytes a node's network interface can inject (or eject) per CPU
    /// cycle. Models link serialization at the endpoints; the paper's
    /// 16-byte-per-1GHz-bus-cycle CPU→system path is 8 B per CPU cycle.
    pub ni_bytes_per_cycle: u64,
    /// Model per-link router contention inside the fat tree (every
    /// directed link serializes packets at `ni_bytes_per_cycle`).
    /// Default off: the paper's hot spot is the home node, which the
    /// endpoint model already serializes; enabling this adds fabric-core
    /// queueing for sensitivity studies.
    pub model_router_contention: bool,
}

/// Active Memory Unit parameters (paper Sec. 3.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AmuConfig {
    /// Words in the AMU cache; an N-word cache allows N concurrently
    /// active synchronization variables (paper assumes 8).
    pub cache_words: usize,
    /// Hub cycles for an AMO that hits in the AMU cache (paper: 2).
    pub op_hub_cycles: u64,
    /// Capacity of the AMU's dispatch queue.
    pub queue_cap: usize,
    /// Upper bound on NACK-driven resends of one AMO/MAO before the run
    /// is declared starved (a model-sanity guard, not a protocol
    /// feature).
    pub max_retries: u32,
    /// Base backoff (in CPU cycles) a processor waits after an AMU NACK
    /// before resending; doubles per attempt with deterministic jitter,
    /// like the active-message retransmission path.
    pub nack_backoff: Cycle,
}

/// Active-message cost model (paper Sec. 2 and 4.2.1: invocation overhead
/// on the home processor dwarfs the handler body; heavy contention causes
/// timeouts and retransmission).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ActMsgConfig {
    /// CPU cycles to invoke a user-level handler on the home processor
    /// (trap/dispatch overhead).
    pub invoke_cycles: Cycle,
    /// CPU cycles the handler body itself runs.
    pub handler_cycles: Cycle,
    /// Incoming-message queue capacity at the home processor; arrivals
    /// beyond this are dropped (the sender's timeout recovers them).
    pub queue_cap: usize,
    /// Cycles a sender waits for an ack before retransmitting.
    pub timeout: Cycle,
    /// Upper bound on retransmissions before the run is declared stuck
    /// (a model-sanity guard, not a protocol feature).
    pub max_retries: u32,
}

/// Deterministic fault-injection parameters. Plain `Copy` data so it can
/// live inside [`SystemConfig`]; the runtime machinery (keyed hashing,
/// burst windows) lives in `amo-sim`'s `faults` module. The default is
/// [`FaultConfig::none`]: every rate zero, recovery knobs at their
/// hardware-plausible values, and — crucially — a zero-rate plan leaves
/// the simulated timing bit-identical to an unfaulted machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultConfig {
    /// Probability (parts per million) that a remote packet's first
    /// transmission is corrupted on the wire and must be replayed.
    pub link_error_ppm: u32,
    /// Multiplier applied to `link_error_ppm` inside a burst window
    /// (models correlated error bursts; 1 = no bursts).
    pub burst_multiplier: u32,
    /// Period of the burst windows in cycles; 0 disables bursts.
    pub burst_period: Cycle,
    /// Length of the elevated-error window at the start of each period.
    pub burst_len: Cycle,
    /// Maximum extra delay-jitter cycles added to a remote packet's
    /// flight time; 0 disables jitter.
    pub jitter_max: Cycle,
    /// Link-level replay budget: CRC-error retransmissions of one packet
    /// beyond this declare the link failed (unrecoverable fault).
    pub max_link_retries: u32,
    /// Base cycles one link-level replay costs; doubles per attempt
    /// (exponential backoff), capped at 16x.
    pub link_retry_backoff: Cycle,
    /// Period of AMU brown-out windows in cycles; 0 disables brown-outs.
    pub amu_brownout_period: Cycle,
    /// Length of the window (at the start of each period) during which a
    /// node's AMU NACKs every new dispatch.
    pub amu_brownout_len: Cycle,
    /// Probability (ppm) that a delivered AMO/MAO/ActMsg packet is
    /// silently dropped at the destination interface (delivery fault:
    /// the link-level CRC saw a clean transmission, but the message
    /// never reaches the handler). 0 disables drops.
    pub link_drop_ppm: u32,
    /// Probability (ppm) that a delivered AMO/MAO/ActMsg packet is
    /// duplicated at the destination interface (both copies reach the
    /// handler). 0 disables duplication.
    pub link_dup_ppm: u32,
    /// Maximum extra delivery skew (cycles) a delivered AMO/MAO/ActMsg
    /// packet may pick up *after* its ingress reservation — later
    /// packets can overtake it, so nonzero windows permit bounded
    /// reordering. 0 disables reordering.
    pub link_reorder_window: Cycle,
    /// Requester-side end-to-end timeout (cycles) on an outstanding
    /// AMO/MAO/uncached request. Armed only while delivery faults are
    /// active; the retransmission schedule reuses the actmsg
    /// exponential-backoff-plus-jitter shape.
    pub e2e_timeout: Cycle,
    /// End-to-end retransmission budget: timeouts of one request beyond
    /// this escalate to a typed `RequestTimedOut` fault.
    pub max_e2e_retries: u32,
    /// Distinct requesters remembered by each AMU's at-most-once table
    /// (the last reply served to each is cached, so a retransmitted
    /// `fetch_and_add` is answered from the table, not re-applied).
    /// Suppression is exact while this covers every processor —
    /// validation rejects delivery faults with a smaller window.
    pub dedup_window: u32,
    /// Seed for the fault plan's keyed hashing. Same seed + same config
    /// => bit-identical fault pattern.
    pub seed: u64,
}

/// Widest jitter or reorder window a configuration may ask for. It is
/// far beyond any run's horizon, and it keeps a packet's delay
/// (`0..=window`) and its delivery time clear of `u64` overflow.
const MAX_FAULT_WINDOW: Cycle = 1 << 40;

/// Largest cache level a configuration may ask for: 8× the paper's
/// 2 MB L2, the largest in any experiment. Each cache indexes all its
/// sets when it is built, so an unbounded size aborts on allocation.
const MAX_CACHE_BYTES: u64 = 16 << 20;

/// Most words an AMU cache may hold: 64× the largest in any experiment.
/// Every hub allocates its AMU cache up front.
const MAX_AMU_CACHE_WORDS: usize = 4096;

impl FaultConfig {
    /// The no-fault plan: all rates zero, recovery knobs at defaults.
    pub const fn none() -> Self {
        FaultConfig {
            link_error_ppm: 0,
            burst_multiplier: 1,
            burst_period: 0,
            burst_len: 0,
            jitter_max: 0,
            max_link_retries: 8,
            link_retry_backoff: 64,
            amu_brownout_period: 0,
            amu_brownout_len: 0,
            link_drop_ppm: 0,
            link_dup_ppm: 0,
            link_reorder_window: 0,
            e2e_timeout: 20_000,
            max_e2e_retries: 16,
            dedup_window: 64,
            seed: 0,
        }
    }

    /// True if any delivery-fault source (drop, duplication, reordering)
    /// is active. This is the gate for all end-to-end recovery
    /// machinery: with every rate zero, no e2e timers are armed, no
    /// dedup windows are maintained, and the simulated timing stays
    /// bit-identical to the unfaulted machine.
    pub fn delivery_enabled(&self) -> bool {
        self.link_drop_ppm > 0 || self.link_dup_ppm > 0 || self.link_reorder_window > 0
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self::none()
    }
}

/// Full machine configuration. [`SystemConfig::default`] reproduces the
/// paper's Table 1; constructors tweak the processor count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SystemConfig {
    /// Total processors (the paper sweeps 4..256).
    pub num_procs: u16,
    /// Processors per node (paper: 2).
    pub procs_per_node: u16,
    /// L1 data cache (paper: 2-way 32 KB, 32 B lines, 2-cycle).
    pub l1: CacheConfig,
    /// L2 cache (paper: 4-way 2 MB, 128 B lines, 10-cycle).
    pub l2: CacheConfig,
    /// Maximum outstanding L2 misses per processor (paper: 16).
    pub max_outstanding_misses: usize,
    /// Extra cycles a library LL/SC pair spends around the conditional
    /// store (retry-loop branch, pipeline drain) compared with a single
    /// atomic instruction. Sits on the critical path of a contended
    /// handoff, which is why the paper's Atomic baseline modestly beats
    /// LL/SC.
    pub llsc_pair_overhead: Cycle,
    /// Minimum cycles a freshly-filled block stays at its new owner
    /// before the processor answers an external probe for it. Real
    /// load/store units hold off probes while a conditional store is in
    /// flight — without this window, contended LL/SC has no forward
    /// progress guarantee (the next writer's intervention arrives right
    /// behind the fill).
    pub min_residence: Cycle,
    /// CPU cycles to cross the system bus between a processor and its
    /// local Hub (one direction).
    pub bus_latency: Cycle,
    /// CPU cycles per Hub clock (paper: Hub at 500 MHz = 4 CPU cycles).
    pub hub_cycle: Cycle,
    /// Hub cycles the directory/memory controller spends servicing one
    /// protocol message (home-node occupancy; the serialization point).
    pub dir_occupancy_hub_cycles: u64,
    /// DRAM access latency in CPU cycles (paper: 60).
    pub dram_latency: Cycle,
    /// Independent DRAM channels (paper: 16).
    pub dram_channels: usize,
    /// CPU cycles one DRAM channel is busy per block access (derived from
    /// the paper's 80-bit-burst-per-two-hub-cycles DDR backend).
    pub dram_occupancy: Cycle,
    /// Interconnect parameters.
    pub network: NetworkConfig,
    /// Active Memory Unit parameters.
    pub amu: AmuConfig,
    /// Active-message cost model.
    pub actmsg: ActMsgConfig,
    /// Deterministic fault injection (default: none).
    pub faults: FaultConfig,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            num_procs: 4,
            procs_per_node: 2,
            l1: CacheConfig {
                size_bytes: 32 * 1024,
                line_bytes: 32,
                ways: 2,
                hit_latency: 2,
            },
            l2: CacheConfig {
                size_bytes: 2 * 1024 * 1024,
                line_bytes: 128,
                ways: 4,
                hit_latency: 10,
            },
            max_outstanding_misses: 16,
            llsc_pair_overhead: 48,
            min_residence: 24,
            bus_latency: 10,
            hub_cycle: 4,
            dir_occupancy_hub_cycles: 4,
            dram_latency: 60,
            dram_channels: 16,
            dram_occupancy: 8,
            network: NetworkConfig {
                hop_latency: 100,
                router_radix: 8,
                min_packet_bytes: 32,
                header_bytes: 32,
                ni_bytes_per_cycle: 8,
                model_router_contention: false,
            },
            amu: AmuConfig {
                cache_words: 8,
                op_hub_cycles: 2,
                queue_cap: 1024,
                max_retries: 10_000,
                nack_backoff: 200,
            },
            actmsg: ActMsgConfig {
                invoke_cycles: 350,
                handler_cycles: 50,
                queue_cap: 16,
                timeout: 10_000,
                max_retries: 100_000,
            },
            faults: FaultConfig::none(),
        }
    }
}

impl SystemConfig {
    /// Table 1 configuration with `num_procs` processors.
    pub fn with_procs(num_procs: u16) -> Self {
        SystemConfig {
            num_procs,
            ..Self::default()
        }
    }

    /// Number of nodes implied by the processor count.
    pub fn num_nodes(&self) -> u16 {
        assert!(
            self.num_procs.is_multiple_of(self.procs_per_node),
            "num_procs must be a multiple of procs_per_node"
        );
        self.num_procs / self.procs_per_node
    }

    /// Internal consistency, as a value: `Err` names the offending field
    /// and says why. Every description of a run checks its
    /// configuration with this before a machine is built.
    pub fn check(&self) -> Result<(), String> {
        macro_rules! ensure {
            ($holds:expr, $($why:tt)+) => {
                if !$holds {
                    return Err(format!($($why)+));
                }
            };
        }
        let (procs, per_node, f) = (self.num_procs, self.procs_per_node, &self.faults);
        ensure!(procs > 0, "need at least one processor");
        ensure!(
            procs as usize <= crate::bitset::MAX_PROCS,
            "num_procs = {procs}: directory supports at most {} processors",
            crate::bitset::MAX_PROCS
        );
        ensure!(
            per_node > 0 && procs.is_multiple_of(per_node),
            "num_procs = {procs} must be a multiple of procs_per_node = {per_node}"
        );
        for (name, cache) in [("l1", &self.l1), ("l2", &self.l2)] {
            ensure!(
                cache.line_bytes.is_power_of_two(),
                "{name}.line_bytes = {} must be a power of two",
                cache.line_bytes
            );
            ensure!(
                cache.size_bytes <= MAX_CACHE_BYTES,
                "{name}.size_bytes = {}: a cache level may hold at most {MAX_CACHE_BYTES} bytes",
                cache.size_bytes
            );
            let (size, line, ways, sets) =
                (cache.size_bytes, cache.line_bytes, cache.ways, cache.sets());
            ensure!(
                ways > 0 && sets > 0,
                "{name} must hold at least one set of at least one way: \
                 {name}.size_bytes = {size}, {name}.line_bytes = {line}, {name}.ways = {ways}"
            );
            ensure!(
                sets.is_power_of_two(),
                "{name}.size_bytes = {size} / ({name}.line_bytes = {line} × {name}.ways = {ways}) \
                 = {sets} sets: the set count must be a power of two"
            );
        }
        ensure!(
            self.l1.line_bytes <= self.l2.line_bytes,
            "L1 lines must not exceed L2 lines (inclusive hierarchy)"
        );
        ensure!(
            self.network.router_radix >= 2,
            "network.router_radix = {} must be at least 2",
            self.network.router_radix
        );
        ensure!(
            (1..=MAX_AMU_CACHE_WORDS).contains(&self.amu.cache_words),
            "amu.cache_words = {} must be at least 1 and at most {MAX_AMU_CACHE_WORDS}",
            self.amu.cache_words
        );
        ensure!(
            f.burst_period == 0 || f.burst_len <= f.burst_period,
            "faults.burst_len = {}: burst window must fit inside its period of {}",
            f.burst_len,
            f.burst_period
        );
        ensure!(
            f.amu_brownout_period == 0 || f.amu_brownout_len < f.amu_brownout_period,
            "faults.amu_brownout_len = {}: brown-out window must leave the AMU some uptime \
             in its period of {}",
            f.amu_brownout_len,
            f.amu_brownout_period
        );
        ensure!(
            f.burst_multiplier >= 1,
            "burst multiplier of 0 would disable errors inside bursts"
        );
        for (name, window) in [
            ("jitter_max", f.jitter_max),
            ("link_reorder_window", f.link_reorder_window),
        ] {
            ensure!(
                window <= MAX_FAULT_WINDOW,
                "faults.{name} = {window}: a delay window may span at most \
                 {MAX_FAULT_WINDOW} cycles"
            );
        }
        if f.delivery_enabled() {
            ensure!(
                f.e2e_timeout > 0,
                "delivery faults need a nonzero end-to-end timeout to recover"
            );
            ensure!(
                f.dedup_window >= procs as u32,
                "faults.dedup_window = {} is below the required minimum of {procs} \
                 (num_procs = {procs}; the window needs one slot per requester): \
                 an evicted slot lets a retransmission double-apply",
                f.dedup_window
            );
            ensure!(
                f.link_drop_ppm < 1_000_000,
                "faults.link_drop_ppm = {}: dropping every delivery can never complete",
                f.link_drop_ppm
            );
        }
        Ok(())
    }

    /// The panicking form of [`check`](Self::check), for code that
    /// builds a machine from a configuration it takes to be sound.
    pub fn validate(&self) {
        if let Err(why) = self.check() {
            panic!("{why}");
        }
    }

    /// Canonical normalized form: one flat JSON object, every field by
    /// dotted path in declaration order. Two configs are behaviorally
    /// identical iff their canonical JSON is byte-identical, which is
    /// what makes it a sound cache-key component.
    pub fn canonical_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_obj();
        self.visit_fields(&mut |path, v| w.kv_u64(path, v));
        w.end_obj();
        w.finish()
    }
}

/// A configuration scalar read back from the `u64` form
/// [`SystemConfig::canonical_json`] writes it in, range-checked against
/// its own type for [`SystemConfig::set_field`].
trait Scalar: Sized {
    fn set(path: &str, value: u64) -> Result<Self, String>;
}

macro_rules! int_scalars {
    ($($t:ty),*) => {$(
        impl Scalar for $t {
            fn set(path: &str, value: u64) -> Result<Self, String> {
                <$t>::try_from(value)
                    .map_err(|_| format!("{path} out of range: {value} > {}", <$t>::MAX))
            }
        }
    )*};
}
int_scalars!(u16, u32, u64, usize);

/// Booleans take 0/1.
impl Scalar for bool {
    fn set(path: &str, value: u64) -> Result<Self, String> {
        match value {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(format!("{path} out of range: {value} > 1")),
        }
    }
}

/// The one list of [`SystemConfig`]'s scalar fields, in a frozen order:
/// it generates both the visitor behind `canonical_json` (cache keys)
/// and `set_field` (campaign spec overrides), so a field added here is
/// automatically normalized, hashed, and overridable — and cannot be in
/// one without the other. A field's dotted path is its Rust path.
macro_rules! config_fields {
    ($($head:ident $(. $tail:ident)*),* $(,)?) => {
        impl SystemConfig {
            fn visit_fields(&self, f: &mut dyn FnMut(&'static str, u64)) {
                $(f(
                    concat!(stringify!($head) $(, ".", stringify!($tail))*),
                    self.$head $(.$tail)* as u64,
                );)*
            }

            /// Set one scalar field by its dotted path (the same names
            /// [`canonical_json`](Self::canonical_json) emits), range-checked
            /// against the field's type. Booleans take 0/1. Used by campaign
            /// specs to express config axes like
            /// `"faults.link_error_ppm": [0, 1000, 10000]`.
            pub fn set_field(&mut self, path: &str, value: u64) -> Result<(), String> {
                match path {
                    $(concat!(stringify!($head) $(, ".", stringify!($tail))*) => {
                        self.$head $(.$tail)* = Scalar::set(path, value)?
                    })*
                    other => return Err(format!("unknown SystemConfig field `{other}`")),
                }
                Ok(())
            }
        }
    };
}

config_fields!(
    num_procs,
    procs_per_node,
    l1.size_bytes,
    l1.line_bytes,
    l1.ways,
    l1.hit_latency,
    l2.size_bytes,
    l2.line_bytes,
    l2.ways,
    l2.hit_latency,
    max_outstanding_misses,
    llsc_pair_overhead,
    min_residence,
    bus_latency,
    hub_cycle,
    dir_occupancy_hub_cycles,
    dram_latency,
    dram_channels,
    dram_occupancy,
    network.hop_latency,
    network.router_radix,
    network.min_packet_bytes,
    network.header_bytes,
    network.ni_bytes_per_cycle,
    network.model_router_contention,
    amu.cache_words,
    amu.op_hub_cycles,
    amu.queue_cap,
    amu.max_retries,
    amu.nack_backoff,
    actmsg.invoke_cycles,
    actmsg.handler_cycles,
    actmsg.queue_cap,
    actmsg.timeout,
    actmsg.max_retries,
    faults.link_error_ppm,
    faults.burst_multiplier,
    faults.burst_period,
    faults.burst_len,
    faults.jitter_max,
    faults.max_link_retries,
    faults.link_retry_backoff,
    faults.amu_brownout_period,
    faults.amu_brownout_len,
    faults.link_drop_ppm,
    faults.link_dup_ppm,
    faults.link_reorder_window,
    faults.e2e_timeout,
    faults.max_e2e_retries,
    faults.dedup_window,
    faults.seed,
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_table1() {
        let c = SystemConfig::default();
        assert_eq!(c.l1.size_bytes, 32 * 1024);
        assert_eq!(c.l1.line_bytes, 32);
        assert_eq!(c.l1.hit_latency, 2);
        assert_eq!(c.l2.size_bytes, 2 * 1024 * 1024);
        assert_eq!(c.l2.line_bytes, 128);
        assert_eq!(c.l2.ways, 4);
        assert_eq!(c.l2.hit_latency, 10);
        assert_eq!(c.dram_latency, 60);
        assert_eq!(c.network.hop_latency, 100);
        assert_eq!(c.network.router_radix, 8);
        assert_eq!(c.network.min_packet_bytes, 32);
        assert_eq!(c.amu.cache_words, 8);
        assert_eq!(c.max_outstanding_misses, 16);
        assert_eq!(c.procs_per_node, 2);
        c.validate();
    }

    #[test]
    fn cache_geometry() {
        let c = SystemConfig::default();
        // 32KB / (32B * 2 ways) = 512 sets.
        assert_eq!(c.l1.sets(), 512);
        // 2MB / (128B * 4 ways) = 4096 sets.
        assert_eq!(c.l2.sets(), 4096);
        assert_eq!(c.l2.line_words(), 16);
        assert_eq!(c.l1.line_words(), 4);
    }

    #[test]
    fn node_count() {
        assert_eq!(SystemConfig::with_procs(256).num_nodes(), 128);
        assert_eq!(SystemConfig::with_procs(4).num_nodes(), 2);
    }

    #[test]
    #[should_panic(expected = "multiple of procs_per_node")]
    fn odd_proc_count_rejected() {
        SystemConfig::with_procs(5).validate();
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn too_many_procs_rejected() {
        SystemConfig::with_procs(512).validate();
    }

    #[test]
    fn fault_config_defaults_to_none() {
        let c = SystemConfig::default();
        assert_eq!(c.faults, FaultConfig::none());
    }

    /// Pins the full undersized-dedup-window message: it must name the
    /// offending value, the required minimum, and where the minimum
    /// comes from, so a failing campaign cell is self-explanatory.
    #[test]
    fn undersized_dedup_window_message_states_minimum_and_values() {
        let mut c = SystemConfig::with_procs(8);
        c.faults.link_drop_ppm = 1_000;
        c.faults.dedup_window = 3;
        assert_eq!(
            c.check().unwrap_err(),
            "faults.dedup_window = 3 is below the required minimum of 8 \
             (num_procs = 8; the window needs one slot per requester): \
             an evicted slot lets a retransmission double-apply"
        );
    }

    /// `check` reports what `validate` panics with, naming the value.
    #[test]
    fn check_names_the_offending_field_and_value() {
        let bad = |edit: fn(&mut SystemConfig)| {
            let mut c = SystemConfig::with_procs(8);
            edit(&mut c);
            c.check().unwrap_err()
        };
        for (why, needle) in [
            (bad(|c| c.num_procs = 0), "at least one processor"),
            (bad(|c| c.num_procs = 5), "num_procs = 5 must be a multiple"),
            (bad(|c| c.procs_per_node = 0), "procs_per_node = 0"),
            (bad(|c| c.num_procs = 512), "num_procs = 512"),
            (bad(|c| c.l1.line_bytes = 48), "l1.line_bytes = 48"),
            (bad(|c| c.l2.line_bytes = 0), "l2.line_bytes = 0"),
            (bad(|c| c.l2.ways = 0), "l2 must hold"),
            (bad(|c| c.l1.line_bytes = 256), "L1 lines must not exceed"),
            (bad(|c| c.network.router_radix = 1), "router_radix = 1"),
            (bad(|c| c.faults.burst_multiplier = 0), "burst multiplier"),
            (
                bad(|c| c.faults.link_drop_ppm = 1_000_000),
                "link_drop_ppm = 1000000",
            ),
            (
                bad(|c| c.faults.jitter_max = u64::MAX),
                "faults.jitter_max = 18446744073709551615",
            ),
            (
                bad(|c| c.faults.link_reorder_window = u64::MAX),
                "faults.link_reorder_window = 18446744073709551615",
            ),
        ] {
            assert!(why.contains(needle), "{why:?} lacks {needle:?}");
        }
        assert_eq!(SystemConfig::with_procs(256).check(), Ok(()));
    }

    /// Cache and AMU geometries that once reached the simulator and
    /// crashed it: a set-count assert, a division by a wrapped zero, an
    /// allocation abort or a capacity overflow.
    #[test]
    fn check_refuses_geometries_the_machine_cannot_build() {
        let bad = |edit: &dyn Fn(&mut SystemConfig)| {
            let mut c = SystemConfig::with_procs(8);
            edit(&mut c);
            c.check().unwrap_err()
        };
        let (big, max) = (1u64 << 63, u64::MAX);
        for (why, needle) in [
            (bad(&|c| c.l2.ways = 3), "l2.ways = 3"),
            (
                bad(&|c| c.l2.ways = big as usize),
                "l2.ways = 9223372036854775808",
            ),
            (
                bad(&|c| c.l1.size_bytes = max),
                "l1.size_bytes = 18446744073709551615",
            ),
            (
                bad(&|c| c.l2.size_bytes = max),
                "l2.size_bytes = 18446744073709551615",
            ),
            (
                bad(&|c| c.l1.size_bytes = big),
                "l1.size_bytes = 9223372036854775808",
            ),
            (
                bad(&|c| c.l2.size_bytes = big),
                "l2.size_bytes = 9223372036854775808",
            ),
            (
                bad(&|c| c.amu.cache_words = 1 << 32),
                "amu.cache_words = 4294967296",
            ),
            (
                bad(&|c| c.amu.cache_words = big as usize),
                "amu.cache_words = 9223372036854775808",
            ),
            (
                bad(&|c| c.amu.cache_words = max as usize),
                "amu.cache_words = 18446744073709551615",
            ),
            (bad(&|c| c.amu.cache_words = 0), "amu.cache_words = 0"),
        ] {
            assert!(why.contains(needle), "{why:?} lacks {needle:?}");
        }
        // The limits sit well above every geometry the experiments use.
        let mut c = SystemConfig::with_procs(8);
        c.l2.size_bytes = MAX_CACHE_BYTES;
        c.amu.cache_words = MAX_AMU_CACHE_WORDS;
        assert_eq!(c.check(), Ok(()));
    }

    #[test]
    #[should_panic(expected = "burst window")]
    fn oversized_burst_window_rejected() {
        let mut c = SystemConfig::default();
        c.faults.burst_period = 100;
        c.faults.burst_len = 200;
        c.validate();
    }

    /// Every path `canonical_json` emits must round-trip through
    /// `set_field`, and equal configs must normalize identically —
    /// otherwise the cache key would split or alias grid cells.
    #[test]
    fn canonical_json_and_set_field_agree() {
        let c = SystemConfig::with_procs(64);
        let j = c.canonical_json();
        assert!(j.starts_with(r#"{"num_procs":64,"#), "{j}");
        assert!(j.contains(r#""faults.seed":0"#), "{j}");
        assert_eq!(j, SystemConfig::with_procs(64).canonical_json());

        // Rebuild a distinct config purely via set_field from the
        // canonical pairs and require byte-identical normalization.
        let mut src = SystemConfig::default();
        src.faults.link_error_ppm = 12_345;
        src.network.model_router_contention = true;
        src.amu.cache_words = 16;
        let mut dst = SystemConfig::default();
        let mut pairs = Vec::new();
        src.visit_fields(&mut |p, v| pairs.push((p, v)));
        for (p, v) in pairs {
            dst.set_field(p, v).unwrap();
        }
        assert_eq!(dst, src);
        assert_eq!(dst.canonical_json(), src.canonical_json());

        // Distinct configs must not alias.
        assert_ne!(
            SystemConfig::with_procs(64).canonical_json(),
            SystemConfig::with_procs(128).canonical_json()
        );
        assert!(dst.set_field("no.such.field", 1).is_err());
        assert!(dst.set_field("network.model_router_contention", 2).is_err());
    }
}
