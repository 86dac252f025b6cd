//! Host-side self-profiling: where the *simulator's own* wall-clock and
//! heap allocations go, as opposed to the simulated cycles every other
//! module in this crate attributes.
//!
//! The design mirrors [`Tracer`](crate::tracer::Tracer) exactly: the
//! machine is generic over a [`HostProf`] implementation with an
//! associated `const ENABLED`, every hook is written
//! `if P::ENABLED { self.prof.enter(..) }`, and the default zero-sized
//! [`NopHostProf`] folds the whole hook away at compile time — the
//! unprofiled hot path is untouched (pinned by a passivity test).
//! [`HostProfiler`] is the recording
//! implementation: a scope stack with exact parent/child nesting,
//! per-scope [`LatHist`] of nanosecond durations, and per-edge
//! (caller → callee) totals, which the JSON document carries as its
//! nesting edges beside the self-time table.
//!
//! **Allocation attribution** rides on [`CountingAlloc`], a
//! `#[global_allocator]` wrapper the *profiled binaries* opt into; the
//! profiler snapshots its counters at scope entry/exit, so each scope
//! reports the allocations performed while it (or its children) were on
//! the stack. This is what verifies the "steady-state dispatch
//! allocates nothing" claim at runtime. When the wrapper is not
//! installed the counters never move; [`HostProfiler`] detects that
//! with a probe allocation and reports `alloc_tracking: false` instead
//! of a vacuous zero.
//!
//! **Caveats** (also in DESIGN.md): timing a scope costs two
//! `Instant::now()` calls, so a profiled run is several times slower
//! than an unprofiled one and *inclusive* times are inflated by the
//! instrumentation of nested scopes — relative attribution is
//! trustworthy, absolute totals are an upper bound. Allocation counts
//! have no such skew: the profiler itself does not allocate after
//! construction (the scope table, edge matrix, and stack are
//! preallocated), so a zero stays a zero.

use amo_types::{Json, JsonWriter, LatHist};
use std::time::Instant;

/// Number of simulator event kinds that get a dedicated dispatch scope.
/// Must equal the machine's `Event::COUNT`; the sim crate pins the
/// correspondence (names and order) with a test.
pub const DISPATCH_SCOPES: usize = 11;

/// A profiled region of the simulator's host execution. Scopes nest
/// arbitrarily (the directory protocol recurses through AMU execution);
/// the profiler attributes each nanosecond to exactly one scope's
/// *self* time.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scope {
    /// The whole `Machine::run` call (root of every profile).
    Run,
    /// Event-queue batch refill. The machine's run loop pops one event
    /// at a time under `Run`'s self time and never enters this scope; it
    /// stays because `amo-benchmark`'s loop-cost metric names it.
    Drain,
    /// Dispatch of one `ProcWake` event.
    DispatchProcWake,
    /// Dispatch of one `ProcHandlerDone` event.
    DispatchProcHandlerDone,
    /// Dispatch of one `ProcTimeout` event.
    DispatchProcTimeout,
    /// Dispatch of one `ProcWordUpdate` event.
    DispatchProcWordUpdate,
    /// Dispatch of one `ToHub` event.
    DispatchToHub,
    /// Dispatch of one `DirProcess` event.
    DispatchDirProcess,
    /// Dispatch of one `DramDone` event.
    DispatchDramDone,
    /// Dispatch of one `AmuWake` event.
    DispatchAmuWake,
    /// Dispatch of one `AmuMemValue` event.
    DispatchAmuMemValue,
    /// Dispatch of one `AmuSend` event.
    DispatchAmuSend,
    /// Dispatch of one `ToProc` event.
    DispatchToProc,
    /// Directory protocol work: request servicing and action fan-out.
    DirProtocol,
    /// AMU work: submit, advance, operand arrival, effect fan-out.
    AmuExec,
    /// NoC routing + send (one fabric `send`/`send_delivery` call).
    NocSend,
    /// The tracer's own post-dispatch bookkeeping (traced builds only).
    TracerHooks,
    /// Time-series occupancy sampling.
    Sample,
}

impl Scope {
    /// Number of scopes.
    pub(crate) const COUNT: usize = 18;

    /// Every scope, in index order.
    pub(crate) const ALL: [Scope; Scope::COUNT] = [
        Scope::Run,
        Scope::Drain,
        Scope::DispatchProcWake,
        Scope::DispatchProcHandlerDone,
        Scope::DispatchProcTimeout,
        Scope::DispatchProcWordUpdate,
        Scope::DispatchToHub,
        Scope::DispatchDirProcess,
        Scope::DispatchDramDone,
        Scope::DispatchAmuWake,
        Scope::DispatchAmuMemValue,
        Scope::DispatchAmuSend,
        Scope::DispatchToProc,
        Scope::DirProtocol,
        Scope::AmuExec,
        Scope::NocSend,
        Scope::TracerHooks,
        Scope::Sample,
    ];

    /// Dense index (position in [`Scope::ALL`]).
    #[inline]
    pub(crate) fn index(self) -> usize {
        self as usize
    }

    /// The dispatch scope for the event variant with dense index `ev`
    /// (the machine's `Event::index()` order).
    #[inline]
    pub fn dispatch(ev: usize) -> Scope {
        debug_assert!(ev < DISPATCH_SCOPES, "event index {ev} out of range");
        Scope::ALL[2 + ev]
    }

    /// Stable name used in reports and the `amo-hostprof-v1` doc.
    pub fn name(self) -> &'static str {
        match self {
            Scope::Run => "run",
            Scope::Drain => "drain",
            Scope::DispatchProcWake => "dispatch:ProcWake",
            Scope::DispatchProcHandlerDone => "dispatch:ProcHandlerDone",
            Scope::DispatchProcTimeout => "dispatch:ProcTimeout",
            Scope::DispatchProcWordUpdate => "dispatch:ProcWordUpdate",
            Scope::DispatchToHub => "dispatch:ToHub",
            Scope::DispatchDirProcess => "dispatch:DirProcess",
            Scope::DispatchDramDone => "dispatch:DramDone",
            Scope::DispatchAmuWake => "dispatch:AmuWake",
            Scope::DispatchAmuMemValue => "dispatch:AmuMemValue",
            Scope::DispatchAmuSend => "dispatch:AmuSend",
            Scope::DispatchToProc => "dispatch:ToProc",
            Scope::DirProtocol => "dir-protocol",
            Scope::AmuExec => "amu-exec",
            Scope::NocSend => "noc-send",
            Scope::TracerHooks => "tracer-hooks",
            Scope::Sample => "sample",
        }
    }

    /// True for the per-event dispatch scopes (the steady-state
    /// allocation claim is about exactly these).
    pub fn is_dispatch(self) -> bool {
        (2..2 + DISPATCH_SCOPES).contains(&self.index())
    }
}

/// The profiling switch the machine is generic over. Same contract as
/// [`Tracer`](crate::tracer::Tracer): with `ENABLED = false` every hook
/// is compile-time dead code.
pub trait HostProf {
    /// Compile-time switch every hook is guarded by.
    const ENABLED: bool;

    /// Push a scope. Must nest exactly (LIFO) with [`exit`](Self::exit).
    fn enter(&mut self, scope: Scope);

    /// Pop the innermost scope, which must be `scope`.
    fn exit(&mut self, scope: Scope);

    /// Drain the accumulated profile, if this implementation keeps one.
    fn take_report(&mut self) -> Option<HostProfReport> {
        None
    }
}

/// The default profiler: zero-sized, compile-time disabled.
#[derive(Clone, Copy, Default, Debug)]
pub struct NopHostProf;

impl HostProf for NopHostProf {
    const ENABLED: bool = false;

    #[inline(always)]
    fn enter(&mut self, _scope: Scope) {}

    #[inline(always)]
    fn exit(&mut self, _scope: Scope) {}
}

/// Global allocation counters behind [`CountingAlloc`]. Relaxed atomics:
/// the profiler only ever reads deltas on one thread; cross-thread
/// precision is not needed.
mod counting {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

    static ALLOCS: AtomicU64 = AtomicU64::new(0);
    static BYTES: AtomicU64 = AtomicU64::new(0);

    /// `(allocations, bytes)` requested so far, process-wide. Both stay
    /// 0 forever unless [`CountingAlloc`](super::CountingAlloc) is
    /// installed as the `#[global_allocator]`.
    pub fn alloc_counters() -> (u64, u64) {
        (ALLOCS.load(Relaxed), BYTES.load(Relaxed))
    }

    /// A counting wrapper over the system allocator. Profiled binaries
    /// opt in with
    /// `#[global_allocator] static A: CountingAlloc = CountingAlloc;`;
    /// everything else keeps the plain system allocator. `realloc` and
    /// `alloc_zeroed` count as one allocation of the new size.
    pub struct CountingAlloc;

    // The one unavoidable `unsafe` in this crate: a `GlobalAlloc` impl
    // is an unsafe trait by definition. It only forwards to `System`
    // and bumps two atomics; no pointer arithmetic of its own.
    #[allow(unsafe_code)]
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Relaxed);
            BYTES.fetch_add(layout.size() as u64, Relaxed);
            System.alloc(layout)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCS.fetch_add(1, Relaxed);
            BYTES.fetch_add(new_size as u64, Relaxed);
            System.realloc(ptr, layout, new_size)
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Relaxed);
            BYTES.fetch_add(layout.size() as u64, Relaxed);
            System.alloc_zeroed(layout)
        }
    }
}

pub use counting::{alloc_counters, CountingAlloc};

/// One open scope on the profiler stack.
struct Frame {
    scope: Scope,
    start: Instant,
    allocs0: u64,
    bytes0: u64,
    child_ns: u64,
    child_allocs: u64,
    child_bytes: u64,
}

/// Accumulated totals for one scope.
#[derive(Clone, Default)]
struct ScopeStat {
    count: u64,
    total_ns: u64,
    child_ns: u64,
    allocs: u64,
    child_allocs: u64,
    bytes: u64,
    child_bytes: u64,
    hist: LatHist,
}

/// Accumulated totals for one (parent, child) nesting edge.
#[derive(Clone, Copy, Default)]
struct EdgeCell {
    count: u64,
    ns: u64,
}

/// The recording [`HostProf`]: scope stack + per-scope and per-edge
/// accumulators, all preallocated so profiling itself never allocates
/// after construction.
pub struct HostProfiler {
    stack: Vec<Frame>,
    scopes: Vec<ScopeStat>,
    /// `(COUNT + 1) × COUNT` matrix; row `COUNT` is the root (no
    /// parent).
    edges: Vec<EdgeCell>,
    root_ns: u64,
    root_allocs: u64,
    root_bytes: u64,
    alloc_tracking: bool,
}

impl Default for HostProfiler {
    fn default() -> Self {
        Self::new()
    }
}

impl HostProfiler {
    /// A fresh profiler. Probes whether [`CountingAlloc`] is installed
    /// (so reports can distinguish "zero allocations" from "nobody was
    /// counting").
    pub fn new() -> Self {
        let before = alloc_counters().0;
        std::hint::black_box(Box::new(0u64));
        let alloc_tracking = alloc_counters().0 != before;
        HostProfiler {
            stack: Vec::with_capacity(64),
            scopes: vec![ScopeStat::default(); Scope::COUNT],
            edges: vec![EdgeCell::default(); (Scope::COUNT + 1) * Scope::COUNT],
            root_ns: 0,
            root_allocs: 0,
            root_bytes: 0,
            alloc_tracking,
        }
    }

    /// Discard everything accumulated so far (the stack must be empty —
    /// call between runs, not inside one). Used to separate a warm-up
    /// pass from the steady-state pass it precedes.
    pub fn reset(&mut self) {
        assert!(
            self.stack.is_empty(),
            "hostprof: reset inside an open scope"
        );
        for s in &mut self.scopes {
            *s = ScopeStat::default();
        }
        for e in &mut self.edges {
            *e = EdgeCell::default();
        }
        self.root_ns = 0;
        self.root_allocs = 0;
        self.root_bytes = 0;
    }

    /// Build the report without consuming the profiler.
    fn report(&self) -> HostProfReport {
        let scopes = Scope::ALL
            .iter()
            .filter(|s| self.scopes[s.index()].count > 0)
            .map(|&scope| {
                let st = &self.scopes[scope.index()];
                ScopeReport {
                    scope,
                    count: st.count,
                    total_ns: st.total_ns,
                    child_ns: st.child_ns,
                    allocs: st.allocs,
                    child_allocs: st.child_allocs,
                    bytes: st.bytes,
                    child_bytes: st.child_bytes,
                    hist: st.hist.clone(),
                }
            })
            .collect();
        let mut edges = Vec::new();
        for (row, parent) in Scope::ALL
            .iter()
            .map(|&s| Some(s))
            .chain(std::iter::once(None))
            .enumerate()
        {
            for (col, &child) in Scope::ALL.iter().enumerate() {
                let e = self.edges[row * Scope::COUNT + col];
                if e.count > 0 {
                    edges.push(EdgeReport {
                        parent,
                        child,
                        count: e.count,
                        ns: e.ns,
                    });
                }
            }
        }
        HostProfReport {
            wall_ns: self.root_ns,
            total_allocs: self.root_allocs,
            total_bytes: self.root_bytes,
            alloc_tracking: self.alloc_tracking,
            scopes,
            edges,
        }
    }
}

impl HostProf for HostProfiler {
    const ENABLED: bool = true;

    #[inline]
    fn enter(&mut self, scope: Scope) {
        let (allocs0, bytes0) = alloc_counters();
        self.stack.push(Frame {
            scope,
            start: Instant::now(),
            allocs0,
            bytes0,
            child_ns: 0,
            child_allocs: 0,
            child_bytes: 0,
        });
    }

    #[inline]
    fn exit(&mut self, scope: Scope) {
        let ns = {
            let top = self.stack.last().expect("hostprof: exit without enter");
            assert_eq!(top.scope, scope, "hostprof: mismatched scope nesting");
            top.start.elapsed().as_nanos() as u64
        };
        let f = self.stack.pop().expect("checked above");
        let (a, b) = alloc_counters();
        let allocs = a - f.allocs0;
        let bytes = b - f.bytes0;
        let si = scope.index();
        let st = &mut self.scopes[si];
        st.count += 1;
        st.total_ns += ns;
        st.child_ns += f.child_ns;
        st.allocs += allocs;
        st.child_allocs += f.child_allocs;
        st.bytes += bytes;
        st.child_bytes += f.child_bytes;
        st.hist.record(ns);
        match self.stack.last_mut() {
            Some(parent) => {
                parent.child_ns += ns;
                parent.child_allocs += allocs;
                parent.child_bytes += bytes;
                let row = parent.scope.index();
                let e = &mut self.edges[row * Scope::COUNT + si];
                e.count += 1;
                e.ns += ns;
            }
            None => {
                self.root_ns += ns;
                self.root_allocs += allocs;
                self.root_bytes += bytes;
                let e = &mut self.edges[Scope::COUNT * Scope::COUNT + si];
                e.count += 1;
                e.ns += ns;
            }
        }
    }

    fn take_report(&mut self) -> Option<HostProfReport> {
        assert!(
            self.stack.is_empty(),
            "hostprof: report taken inside an open scope"
        );
        let report = self.report();
        self.reset();
        Some(report)
    }
}

/// One scope's accumulated profile.
#[derive(Clone, Debug)]
pub struct ScopeReport {
    /// Which scope.
    pub scope: Scope,
    /// Times the scope was entered.
    pub count: u64,
    /// Inclusive wall-clock nanoseconds (children included).
    pub total_ns: u64,
    /// Nanoseconds spent in nested scopes.
    pub child_ns: u64,
    /// Allocations performed while the scope was open (children
    /// included).
    pub allocs: u64,
    /// Allocations attributed to nested scopes.
    pub child_allocs: u64,
    /// Bytes requested while the scope was open (children included).
    pub bytes: u64,
    /// Bytes attributed to nested scopes.
    pub child_bytes: u64,
    /// Distribution of per-entry inclusive nanoseconds.
    pub hist: LatHist,
}

impl ScopeReport {
    /// Exclusive (self) nanoseconds: inclusive minus children. The
    /// saturation only matters at single-nanosecond rounding edges.
    pub fn self_ns(&self) -> u64 {
        self.total_ns.saturating_sub(self.child_ns)
    }

    /// Exclusive (self) allocation count.
    pub(crate) fn self_allocs(&self) -> u64 {
        self.allocs.saturating_sub(self.child_allocs)
    }

    /// Exclusive (self) bytes requested.
    pub(crate) fn self_bytes(&self) -> u64 {
        self.bytes.saturating_sub(self.child_bytes)
    }
}

/// One (caller scope → callee scope) nesting edge's totals.
#[derive(Clone, Debug)]
pub struct EdgeReport {
    /// The enclosing scope; `None` for top-level (root) entries.
    pub parent: Option<Scope>,
    /// The entered scope.
    pub child: Scope,
    /// Entries along this edge.
    pub count: u64,
    /// Inclusive nanoseconds accumulated along this edge. Summed over
    /// a scope's incoming edges this equals the scope's `total_ns`
    /// exactly.
    pub ns: u64,
}

/// A drained host profile: totals, per-scope stats, and the nesting
/// edges.
#[derive(Clone, Debug, Default)]
pub struct HostProfReport {
    /// Total profiled wall-clock: the sum of every top-level scope's
    /// inclusive time (the `run` scope, in practice).
    pub wall_ns: u64,
    /// Allocations under any top-level scope.
    pub total_allocs: u64,
    /// Bytes requested under any top-level scope.
    pub total_bytes: u64,
    /// True when [`CountingAlloc`] was installed, i.e. the allocation
    /// numbers are measurements rather than a dormant counter.
    pub alloc_tracking: bool,
    /// Scopes that were entered at least once, in `Scope::ALL` order.
    pub scopes: Vec<ScopeReport>,
    /// Nesting edges observed at least once.
    pub edges: Vec<EdgeReport>,
}

impl HostProfReport {
    /// Render the self-time table: scopes sorted by exclusive time,
    /// with call counts, inclusive mean/p95, and exclusive allocation
    /// totals (`-` when no allocator was counting).
    pub fn self_time_table(&self) -> String {
        let mut rows: Vec<&ScopeReport> = self.scopes.iter().collect();
        rows.sort_by_key(|r| std::cmp::Reverse(r.self_ns()));
        let wall = self.wall_ns.max(1);
        let mut out = String::new();
        out.push_str(&format!(
            "{:<26} {:>12} {:>11} {:>6} {:>10} {:>10} {:>9} {:>11}\n",
            "scope", "calls", "self-ms", "self%", "mean-ns", "p95-ns", "allocs", "bytes"
        ));
        for r in rows {
            let (allocs, bytes) = if self.alloc_tracking {
                (r.self_allocs().to_string(), r.self_bytes().to_string())
            } else {
                ("-".into(), "-".into())
            };
            out.push_str(&format!(
                "{:<26} {:>12} {:>11.3} {:>5.1}% {:>10.0} {:>10} {:>9} {:>11}\n",
                r.scope.name(),
                r.count,
                r.self_ns() as f64 / 1e6,
                100.0 * r.self_ns() as f64 / wall as f64,
                r.hist.mean().unwrap_or(0.0),
                r.hist.p95(),
                allocs,
                bytes,
            ));
        }
        out
    }

    /// Write this report as the JSON object used inside
    /// `amo-hostprof-v1` sections.
    pub(crate) fn write_json(&self, w: &mut JsonWriter) {
        w.begin_obj();
        w.kv_u64("wall_ns", self.wall_ns);
        w.kv_u64("total_allocs", self.total_allocs);
        w.kv_u64("total_bytes", self.total_bytes);
        w.key("alloc_tracking");
        w.bool_val(self.alloc_tracking);
        w.key("scopes");
        w.begin_arr();
        for s in &self.scopes {
            w.begin_obj();
            w.kv_str("scope", s.scope.name());
            w.kv_u64("count", s.count);
            w.kv_u64("total_ns", s.total_ns);
            w.kv_u64("child_ns", s.child_ns);
            w.kv_u64("self_ns", s.self_ns());
            w.kv_u64("allocs", s.allocs);
            w.kv_u64("self_allocs", s.self_allocs());
            w.kv_u64("bytes", s.bytes);
            w.kv_u64("self_bytes", s.self_bytes());
            w.key("ns_hist");
            s.hist.write_json(w);
            w.end_obj();
        }
        w.end_arr();
        w.key("edges");
        w.begin_arr();
        for e in &self.edges {
            w.begin_obj();
            w.kv_str("parent", e.parent.map_or("<root>", Scope::name));
            w.kv_str("child", e.child.name());
            w.kv_u64("count", e.count);
            w.kv_u64("ns", e.ns);
            w.end_obj();
        }
        w.end_arr();
        w.end_obj();
    }
}

/// One named section of an `amo-hostprof-v1` document (typically one
/// profiled workload).
pub struct HostProfSection<'a> {
    /// Section name (e.g. the workload key).
    pub name: &'a str,
    /// `"steady"` when a warm-up pass was run and discarded first,
    /// `"cold"` when the profile includes first-run container growth.
    pub phase: &'a str,
    /// Simulated events processed during the profiled run.
    pub events: u64,
    /// The profile.
    pub report: &'a HostProfReport,
}

/// Render a complete `amo-hostprof-v1` document: free-form `meta`
/// string pairs plus one object per profiled section.
pub fn hostprof_json(meta: &[(&str, String)], sections: &[HostProfSection]) -> String {
    let mut w = JsonWriter::new();
    w.begin_obj();
    w.kv_str("schema", "amo-hostprof-v1");
    w.key("meta");
    w.begin_obj();
    for (k, v) in meta {
        w.kv_str(k, v);
    }
    w.end_obj();
    w.key("sections");
    w.begin_arr();
    for s in sections {
        w.begin_obj();
        w.kv_str("name", s.name);
        w.kv_str("phase", s.phase);
        w.kv_u64("events", s.events);
        w.key("profile");
        s.report.write_json(&mut w);
        w.end_obj();
    }
    w.end_arr();
    w.end_obj();
    w.finish()
}

/// Validation summary for one section of an `amo-hostprof-v1` doc.
#[derive(Clone, Debug)]
pub struct HostProfSectionSummary {
    /// Section name.
    pub name: String,
    /// Section phase (`"steady"` / `"cold"`).
    pub phase: String,
    /// Total profiled wall-clock nanoseconds.
    pub wall_ns: u64,
    /// Whether the counting allocator was installed for this profile.
    pub alloc_tracking: bool,
    /// Sum of exclusive allocations over the `dispatch:*` scopes — the
    /// number the steady-state zero-allocation claim is about.
    pub dispatch_self_allocs: u64,
}

/// Parse and structurally validate an `amo-hostprof-v1` document,
/// checking the invariants the profiler guarantees by construction:
///
/// * every scope's `self_ns` equals `total_ns - child_ns`;
/// * every scope's incoming-edge `ns` sums exactly to its `total_ns`;
/// * per-scope `ns_hist` round-trips through [`LatHist::from_json`]
///   with `count` matching the scope count;
/// * the per-scope self-times sum to `wall_ns` within nanosecond
///   rounding (0.1% or 10 µs, whichever is larger).
pub fn validate_hostprof(doc: &str) -> Result<Vec<HostProfSectionSummary>, String> {
    let v = Json::parse(doc).map_err(|e| format!("hostprof doc: {e}"))?;
    if v.get("schema").and_then(Json::as_str) != Some("amo-hostprof-v1") {
        return Err("hostprof doc: wrong or missing schema tag".into());
    }
    let sections = v
        .get("sections")
        .and_then(Json::as_arr)
        .ok_or("hostprof doc: missing `sections` array")?;
    if sections.is_empty() {
        return Err("hostprof doc: no sections".into());
    }
    let mut out = Vec::new();
    for sec in sections {
        let name = sec
            .get("name")
            .and_then(Json::as_str)
            .ok_or("section: missing `name`")?
            .to_string();
        let phase = sec
            .get("phase")
            .and_then(Json::as_str)
            .ok_or("section: missing `phase`")?
            .to_string();
        let prof = sec.get("profile").ok_or("section: missing `profile`")?;
        let wall_ns = prof
            .get("wall_ns")
            .and_then(Json::as_u64)
            .ok_or("profile: missing `wall_ns`")?;
        let alloc_tracking = prof
            .get("alloc_tracking")
            .and_then(Json::as_bool)
            .ok_or("profile: missing `alloc_tracking`")?;
        let scopes = prof
            .get("scopes")
            .and_then(Json::as_arr)
            .ok_or("profile: missing `scopes` array")?;
        let edges = prof
            .get("edges")
            .and_then(Json::as_arr)
            .ok_or("profile: missing `edges` array")?;
        let mut self_sum: u64 = 0;
        let mut dispatch_self_allocs: u64 = 0;
        for s in scopes {
            let sname = s
                .get("scope")
                .and_then(Json::as_str)
                .ok_or("scope: missing `scope` name")?;
            let field = |k: &str| {
                s.get(k)
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("scope {sname}: missing `{k}`"))
            };
            let (count, total, child, selfns) = (
                field("count")?,
                field("total_ns")?,
                field("child_ns")?,
                field("self_ns")?,
            );
            if selfns != total.saturating_sub(child) {
                return Err(format!(
                    "scope {sname}: self_ns {selfns} != total_ns {total} - child_ns {child}"
                ));
            }
            let hist = s
                .get("ns_hist")
                .ok_or_else(|| format!("scope {sname}: missing `ns_hist`"))
                .and_then(|h| LatHist::from_json(h).map_err(|e| format!("scope {sname}: {e}")))?;
            if hist.count != count {
                return Err(format!(
                    "scope {sname}: hist count {} != scope count {count}",
                    hist.count
                ));
            }
            let edge_ns: u64 = edges
                .iter()
                .filter(|e| e.get("child").and_then(Json::as_str) == Some(sname))
                .filter_map(|e| e.get("ns").and_then(Json::as_u64))
                .sum();
            if edge_ns != total {
                return Err(format!(
                    "scope {sname}: incoming edge ns {edge_ns} != total_ns {total}"
                ));
            }
            self_sum += selfns;
            if sname.starts_with("dispatch:") {
                dispatch_self_allocs += field("self_allocs")?;
            }
        }
        let tolerance = (wall_ns / 1000).max(10_000);
        if self_sum.abs_diff(wall_ns) > tolerance {
            return Err(format!(
                "section {name}: self-time sum {self_sum} vs wall_ns {wall_ns} \
                 exceeds rounding tolerance {tolerance}"
            ));
        }
        out.push(HostProfSectionSummary {
            name,
            phase,
            wall_ns,
            alloc_tracking,
            dispatch_self_allocs,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nop_hostprof_is_zero_sized_and_disabled() {
        assert_eq!(std::mem::size_of::<NopHostProf>(), 0);
        const { assert!(!NopHostProf::ENABLED) };
        let mut p = NopHostProf;
        p.enter(Scope::Run);
        p.exit(Scope::Run);
        assert!(p.take_report().is_none());
    }

    #[test]
    fn scope_table_is_consistent() {
        assert_eq!(Scope::ALL.len(), Scope::COUNT);
        for (i, s) in Scope::ALL.iter().enumerate() {
            assert_eq!(s.index(), i, "{} out of order", s.name());
        }
        for ev in 0..DISPATCH_SCOPES {
            let s = Scope::dispatch(ev);
            assert!(s.is_dispatch());
            assert!(s.name().starts_with("dispatch:"));
        }
        assert!(!Scope::Run.is_dispatch());
        assert!(!Scope::Sample.is_dispatch());
    }

    #[test]
    fn nesting_attributes_child_time_to_parent() {
        let mut p = HostProfiler::new();
        p.enter(Scope::Run);
        p.enter(Scope::Drain);
        std::thread::sleep(std::time::Duration::from_millis(2));
        p.exit(Scope::Drain);
        p.exit(Scope::Run);
        let r = p.take_report().unwrap();
        let run = r.scopes.iter().find(|s| s.scope == Scope::Run).unwrap();
        let drain = r.scopes.iter().find(|s| s.scope == Scope::Drain).unwrap();
        assert_eq!(run.count, 1);
        assert_eq!(drain.count, 1);
        // The drain slept ~2ms; all of it is the run scope's child time.
        assert!(drain.total_ns >= 2_000_000);
        assert!(run.child_ns >= drain.total_ns);
        assert!(run.total_ns >= run.child_ns);
        assert_eq!(r.wall_ns, run.total_ns);
        // Exactly two edges: root→run and run→drain.
        assert_eq!(r.edges.len(), 2);
        let root_edge = r.edges.iter().find(|e| e.parent.is_none()).unwrap();
        assert_eq!(root_edge.child, Scope::Run);
        assert_eq!(root_edge.ns, run.total_ns);
        let nested = r.edges.iter().find(|e| e.parent.is_some()).unwrap();
        assert_eq!(nested.parent, Some(Scope::Run));
        assert_eq!(nested.child, Scope::Drain);
        assert_eq!(nested.ns, drain.total_ns);
    }

    #[test]
    fn self_times_telescope_to_wall_clock() {
        let mut p = HostProfiler::new();
        for _ in 0..100 {
            p.enter(Scope::Run);
            p.enter(Scope::Drain);
            p.exit(Scope::Drain);
            p.enter(Scope::DispatchProcWake);
            p.enter(Scope::NocSend);
            p.exit(Scope::NocSend);
            p.exit(Scope::DispatchProcWake);
            p.exit(Scope::Run);
        }
        let r = p.take_report().unwrap();
        let self_sum: u64 = r.scopes.iter().map(ScopeReport::self_ns).sum();
        // Saturation can only lose single nanoseconds per frame.
        assert!(
            self_sum.abs_diff(r.wall_ns) <= 8 * 100,
            "self sum {} vs wall {}",
            self_sum,
            r.wall_ns
        );
    }

    #[test]
    #[should_panic(expected = "mismatched scope nesting")]
    fn misnested_exit_panics() {
        let mut p = HostProfiler::new();
        p.enter(Scope::Run);
        p.enter(Scope::Drain);
        p.exit(Scope::Run);
    }

    #[test]
    fn recursive_scopes_do_not_double_count() {
        let mut p = HostProfiler::new();
        // dir-protocol → amu-exec → dir-protocol, as the machine's
        // fine-grained path genuinely nests.
        p.enter(Scope::Run);
        p.enter(Scope::DirProtocol);
        p.enter(Scope::AmuExec);
        p.enter(Scope::DirProtocol);
        p.exit(Scope::DirProtocol);
        p.exit(Scope::AmuExec);
        p.exit(Scope::DirProtocol);
        p.exit(Scope::Run);
        let r = p.take_report().unwrap();
        let dir = r
            .scopes
            .iter()
            .find(|s| s.scope == Scope::DirProtocol)
            .unwrap();
        assert_eq!(dir.count, 2);
        // Inclusive time of the outer frame contains the inner frame,
        // but the self-time telescoping still holds.
        let self_sum: u64 = r.scopes.iter().map(ScopeReport::self_ns).sum();
        assert!(self_sum.abs_diff(r.wall_ns) <= 16);
    }

    #[test]
    fn report_json_validates_and_summarizes() {
        let mut p = HostProfiler::new();
        for _ in 0..10 {
            p.enter(Scope::Run);
            p.enter(Scope::DispatchToHub);
            p.enter(Scope::DirProtocol);
            p.exit(Scope::DirProtocol);
            p.exit(Scope::DispatchToHub);
            p.exit(Scope::Run);
        }
        let report = p.take_report().unwrap();
        let doc = hostprof_json(
            &[("bench", "unit-test".into())],
            &[HostProfSection {
                name: "w0",
                phase: "steady",
                events: 10,
                report: &report,
            }],
        );
        let summaries = validate_hostprof(&doc).expect("doc must validate");
        assert_eq!(summaries.len(), 1);
        assert_eq!(summaries[0].name, "w0");
        assert_eq!(summaries[0].phase, "steady");
        assert_eq!(summaries[0].wall_ns, report.wall_ns);
        // Rendering never panics and mentions every scope.
        let table = report.self_time_table();
        for s in &report.scopes {
            assert!(table.contains(s.scope.name()));
        }
    }

    #[test]
    fn validator_rejects_tampered_docs() {
        let mut p = HostProfiler::new();
        p.enter(Scope::Run);
        p.exit(Scope::Run);
        let report = p.take_report().unwrap();
        let doc = hostprof_json(
            &[],
            &[HostProfSection {
                name: "w",
                phase: "cold",
                events: 1,
                report: &report,
            }],
        );
        assert!(validate_hostprof(&doc).is_ok());
        let bad = doc.replace("amo-hostprof-v1", "amo-hostprof-v0");
        assert!(validate_hostprof(&bad).is_err());
        // Inflate wall_ns: the self-time sum check must fire.
        let wall = format!("\"wall_ns\":{}", report.wall_ns);
        let bad = doc.replace(
            &wall,
            &format!("\"wall_ns\":{}", report.wall_ns + 1_000_000_000),
        );
        assert!(validate_hostprof(&bad).is_err());
    }

    #[test]
    fn reset_clears_accumulators() {
        let mut p = HostProfiler::new();
        p.enter(Scope::Run);
        p.exit(Scope::Run);
        p.reset();
        p.enter(Scope::Drain);
        p.exit(Scope::Drain);
        let r = p.take_report().unwrap();
        assert_eq!(r.scopes.len(), 1);
        assert_eq!(r.scopes[0].scope, Scope::Drain);
    }
}
