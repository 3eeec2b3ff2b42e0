//! The cycle-level out-of-order SMT core.
//!
//! One `step()` simulates one cycle, walking the pipeline back to front so
//! structural resources freed by a later stage become visible to earlier
//! stages only in the following cycle:
//!
//! ```text
//! commit → complete/writeback → issue/execute → rename/dispatch →
//! safe-shuffle (off the critical path) → fetch
//! ```
//!
//! Context 0 is the leading (or only) thread; context 1 is the trailing
//! thread in the redundant modes. See the crate documentation for how the
//! SRT and BlackJack machinery hangs off this pipeline.

use blackjack_faults::{FaultPlan, FaultSite};
use blackjack_isa::exec::{effective_addr, exec_nonmem, finish_load, store_data};
use blackjack_isa::{decode, initial_int_regs, FuType, Inst, PagedMem, Program};
use blackjack_mem::{MemSystem, StoreBuffer, StoreCheck, StoreRecord};

use crate::commit::{CommitRecord, MemEffect};
use crate::config::{CoreConfig, Mode, ShuffleAlgo};
use crate::detect::{DetectionEvent, DetectionKind, RunOutcome};
use crate::stats::ExitReason;
use crate::dtq::{Dtq, DtqPayload};
use crate::fu::FuPool;
use crate::iq::{IssueQueue, Resident};
use crate::lsq::Lsq;
use crate::predictor::{Btb, Gshare, Ras};
use crate::regfile::{CommitRat, LeadIndexedRat, RegFile};
use crate::rob::ActiveList;
use crate::shuffle::{exhaustive_shuffle, no_shuffle, safe_shuffle, ShuffleItem, Slot};
use crate::srt::{Boq, BoqEntry, Lvq, LvqEntry, WayLog, WayRecord};
use crate::stats::SimStats;
use crate::trace::{FlightEvent, FlightKind, TraceState, Tracer};
use crate::uop::{MaybeSeq, PhysReg, Stage, Uop, UopId, UopSlab};

/// Leading/single context index.
pub const LEADING: usize = 0;
/// Trailing context index.
pub const TRAILING: usize = 1;

/// Watchdog: a run with no commit for this many cycles is declared stuck.
const WATCHDOG_CYCLES: u64 = 200_000;

/// Default flight-recorder depth: enough to cover the in-flight window of
/// both contexts (each uop produces ~4 events and the machine holds at
/// most ~60 uops live), so a dump reaches back past the fetch of
/// everything in flight at the incident.
pub const FLIGHT_CAPACITY: usize = 256;

impl ShuffleItem for DtqPayload {
    fn fu_type(&self) -> FuType {
        self.fu
    }
    fn lead_front_way(&self) -> usize {
        usize::from(self.front_way)
    }
    fn lead_back_way(&self) -> usize {
        usize::from(self.back_way)
    }
}

/// Reusable per-cycle scratch buffers.
///
/// `step()` runs hundreds of millions of times per campaign; these
/// buffers are taken (`std::mem::take`), cleared, filled, and put back
/// each cycle, so in the steady state they never allocate — every
/// buffer retains its high-water-mark capacity across cycles.
#[derive(Clone, Default)]
struct StepScratch {
    /// Completions due this cycle as (uid, uop), in uid order.
    due: Vec<(u64, UopId)>,
    /// Uops issued this cycle.
    issued: Vec<UopId>,
    /// Per-trailing-packet operand readiness (packet id, all ready).
    packet_ready: Vec<(u64, bool)>,
    /// Trailing packets already considered for atomic issue this cycle.
    handled_packets: Vec<u64>,
    /// Issue-queue positions of the atomic packet under consideration.
    members: Vec<usize>,
    /// Backend ways allocated to the atomic packet under consideration.
    ways: Vec<usize>,
    /// Distinct trailing packets seen this issue cycle.
    packets: Vec<u64>,
    /// Leading uops issued this cycle (DTQ allocation order).
    leading: Vec<UopId>,
    /// Packet-boundary markers for DTQ allocation.
    breaks: Vec<bool>,
    /// Same-group destination registers (packet-splitting dependence check).
    dsts: Vec<crate::uop::PhysReg>,
}

/// Fixed-capacity map from in-flight trailing packet id to its occupied
/// slot count, for atomic packet issue.
///
/// Every live packet keeps at least one member in the trailing fetch
/// queue or the issue queue until the whole packet issues (the trailing
/// thread never squashes), so live entries never exceed
/// `fetch_queue + issue_queue` and a pre-reserved array with linear scan
/// replaces a `HashMap` without ever allocating after construction.
struct PacketTotals {
    entries: Vec<(u64, usize)>,
    fetch_queue: usize,
    issue_queue: usize,
}

/// Hand-written so a snapshot restore keeps the full pre-reserved
/// capacity (`Vec::clone` only reserves `len`, which would make the first
/// post-restore cycles reallocate and void the zero-alloc guarantee).
impl Clone for PacketTotals {
    fn clone(&self) -> PacketTotals {
        let mut entries = Vec::with_capacity(self.fetch_queue + self.issue_queue);
        entries.extend_from_slice(&self.entries);
        PacketTotals { entries, fetch_queue: self.fetch_queue, issue_queue: self.issue_queue }
    }
}

impl PacketTotals {
    fn new(fetch_queue: usize, issue_queue: usize) -> PacketTotals {
        PacketTotals {
            entries: Vec::with_capacity(fetch_queue + issue_queue),
            fetch_queue,
            issue_queue,
        }
    }

    fn insert(&mut self, pid: u64, total: usize) {
        debug_assert!(self.entries.iter().all(|&(p, _)| p != pid));
        // Always-on invariant (not a debug_assert): a config that lets
        // more packets live than `fetch_queue + issue_queue` would make
        // the push below reallocate and silently void the zero-alloc
        // hot-loop guarantee, so fail loudly naming the offending config.
        assert!(
            self.entries.len() < self.fetch_queue + self.issue_queue,
            "live-packet bound exceeded: {} packets live, but the config \
             (fetch_queue={}, issue_queue={}) bounds them to {} — \
             trailing packets must keep a member in one of those queues",
            self.entries.len() + 1,
            self.fetch_queue,
            self.issue_queue,
            self.fetch_queue + self.issue_queue,
        );
        self.entries.push((pid, total));
    }

    fn get(&self, pid: u64) -> Option<usize> {
        self.entries.iter().find(|&&(p, _)| p == pid).map(|&(_, t)| t)
    }

    fn remove(&mut self, pid: u64) {
        if let Some(i) = self.entries.iter().position(|&(p, _)| p == pid) {
            self.entries.swap_remove(i);
        }
    }

    fn len(&self) -> usize {
        self.entries.len()
    }
}

/// An issued uop awaiting completion at cycle `done`.
#[derive(Clone, Copy)]
struct InFlight {
    done: u64,
    /// The uop's age stamp, so the due list sorts without slab lookups.
    uid: u64,
    id: UopId,
}

/// The event a parked uop waits for.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Wake {
    /// Writeback of register `reg` in context `ctx`: a split store's
    /// data operand.
    Reg { ctx: usize, reg: PhysReg },
    /// Data capture of the leading store with sequence number `seq`: the
    /// oldest older store a leading load overlaps that has no data.
    Store { seq: u64 },
}

/// A uop that came due but cannot capture its values until `on`
/// happens. That event puts it back into the same cycle's completion
/// pass at its uid position (it always comes from an older uop); a
/// squash purges it.
#[derive(Clone, Copy)]
struct Parked {
    on: Wake,
    uid: u64,
    id: UopId,
}

/// What late value capture at completion decided.
enum Capture {
    /// Values captured: the uop completes now.
    Done,
    /// A value the uop needs is not there yet: park until `Wake`.
    Park(Wake),
}

/// Per-context (per-SMT-thread) machine state.
#[derive(Clone)]
struct Context {
    regs: RegFile,
    al: ActiveList,
    lsq: Lsq,
    frontq: std::collections::VecDeque<UopId>,
    fetch_pc: u64,
    fetch_halted: bool,
    fetch_stall_until: u64,
    /// Counters assigned at fetch: [next_seq, next_load, next_store, next_mem].
    counters: [u64; 4],
    /// Committed memory ops (trailing LSQ-window head).
    committed_mem: u64,
    /// Real (non-filler) instructions fetched — the slack denominator.
    fetched_real: u64,
}

impl Context {
    fn new(cfg: &CoreConfig, entry: u64) -> Context {
        Context {
            regs: RegFile::new(cfg.phys_regs, &initial_int_regs()),
            al: ActiveList::new(cfg.active_list),
            lsq: Lsq::new(cfg.lsq),
            frontq: std::collections::VecDeque::with_capacity(cfg.fetch_queue),
            fetch_pc: entry,
            fetch_halted: false,
            fetch_stall_until: 0,
            counters: [0; 4],
            committed_mem: 0,
            fetched_real: 0,
        }
    }
}

/// The simulated core. Construct with [`Core::new`], drive with
/// [`Core::run`], inspect with [`Core::stats`] and the architectural-state
/// accessors.
///
/// `Clone` covers the *entire* ownership tree (contexts, queues,
/// predictors, memory hierarchy, statistics), which is what makes
/// [`Core::snapshot`] exact: a clone is indistinguishable from the
/// original under every subsequent `step()`.
#[derive(Clone)]
pub struct Core {
    cfg: CoreConfig,
    cycle: u64,
    next_uid: u64,
    slab: UopSlab,
    ctxs: Vec<Context>,
    iq: IssueQueue,
    fus: FuPool,
    mem_sys: MemSystem,
    mem: PagedMem,
    sb: StoreBuffer,
    boq: Boq,
    lvq: Lvq,
    waylog: WayLog,
    dtq: Dtq,
    /// Shuffled packets awaiting trailing fetch (BlackJack modes).
    fetchq_packets: std::collections::VecDeque<Vec<Slot<DtqPayload>>>,
    gshare: Gshare,
    btb: Btb,
    ras: Ras,
    plan: FaultPlan,
    stats: SimStats,
    inflight: Vec<InFlight>,
    /// Split stores waiting for their data register's writeback, and
    /// leading loads waiting for an older store's data.
    parked: Vec<Parked>,
    /// True when the last simulated cycle changed no state outside fetch:
    /// until the next timed event, every stage but fetch would do nothing
    /// (see [`Core::run`]).
    idle: bool,
    /// Cycles [`Core::run`] simulated as quiet (prologue and fetch only).
    quiet_cycles: u64,
    halted: [bool; 2],
    detection: Option<DetectionEvent>,
    done: bool,
    lead_packets: u64,
    trail_packets: u64,

    /// Trailing packet id → number of occupied slots (instructions +
    /// filler NOPs), for atomic packet issue.
    trail_packet_total: PacketTotals,
    /// Reusable per-cycle scratch buffers (see [`StepScratch`]).
    scratch: StepScratch,

    /// Expected PC of the next trailing commit (program-order chain check).
    trail_expect_pc: u64,
    commit_rat: CommitRat,
    tmap: LeadIndexedRat,
    last_commit_cycle: u64,
    /// Architectural commit trace ([`Core::enable_commit_log`]); `None`
    /// (the default) keeps the commit path a single branch.
    commit_log: Option<Vec<CommitRecord>>,
    /// Observability hooks; `Tracer::Off` (the default) keeps every hook
    /// a single discriminant branch — no allocation in the hot loop.
    tracer: Tracer,
}

impl Core {
    /// Builds a core running `prog` under `cfg` with faults from `plan`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`CoreConfig::validate`]).
    pub fn new(cfg: CoreConfig, prog: &Program, plan: FaultPlan) -> Core {
        cfg.validate();
        let n_ctx = if cfg.mode.is_redundant() { 2 } else { 1 };
        let ctxs = (0..n_ctx).map(|_| Context::new(&cfg, prog.entry())).collect();
        Core {
            cycle: 0,
            next_uid: 0,
            slab: UopSlab::new(),
            ctxs,
            iq: IssueQueue::new(cfg.issue_queue),
            fus: FuPool::new(cfg.fu_counts),
            mem_sys: MemSystem::new(&cfg.mem),
            mem: prog.load(),
            sb: StoreBuffer::new(cfg.store_buffer),
            boq: Boq::new(cfg.boq),
            lvq: Lvq::new(cfg.lvq),
            waylog: WayLog::new(),
            dtq: Dtq::new(cfg.dtq),
            fetchq_packets: std::collections::VecDeque::new(),
            gshare: Gshare::new(cfg.gshare_bits),
            btb: Btb::new(cfg.btb_entries),
            ras: Ras::new(cfg.ras_depth),
            plan,
            stats: SimStats::default(),
            inflight: Vec::new(),
            parked: Vec::new(),
            idle: false,
            quiet_cycles: 0,
            halted: [false, false],
            detection: None,
            done: false,
            lead_packets: 0,
            trail_packets: 0,
            trail_packet_total: PacketTotals::new(cfg.fetch_queue, cfg.issue_queue),
            scratch: StepScratch::default(),
            trail_expect_pc: prog.entry(),
            commit_rat: CommitRat::new(),
            tmap: LeadIndexedRat::new(cfg.phys_regs),
            last_commit_cycle: 0,
            commit_log: None,
            tracer: Tracer::Off,
            cfg,
        }
    }

    /// Turns on the observability layer (occupancy histograms, the way
    /// heatmap, and a [`FLIGHT_CAPACITY`]-event flight recorder). All
    /// buffers are allocated here, once; recording never allocates.
    pub fn enable_trace(&mut self) {
        self.enable_trace_with_capacity(FLIGHT_CAPACITY);
    }

    /// [`Core::enable_trace`] with an explicit flight-recorder depth.
    pub fn enable_trace_with_capacity(&mut self, flight_capacity: usize) {
        self.tracer = Tracer::enabled(&self.cfg, flight_capacity);
    }

    /// The recorded trace, if tracing is enabled.
    pub fn trace(&self) -> Option<&TraceState> {
        self.tracer.state()
    }

    /// Detaches and returns the recorded trace, turning tracing off.
    pub fn take_trace(&mut self) -> Option<Box<TraceState>> {
        match std::mem::take(&mut self.tracer) {
            Tracer::Off => None,
            Tracer::On(t) => Some(t),
        }
    }

    /// Turns on recording of every leading-context commit as a
    /// [`CommitRecord`] (PC, destination write, memory effect). Works in
    /// every mode and with faults injected — the record reflects what the
    /// (possibly corrupted) pipeline actually did.
    pub fn enable_commit_log(&mut self) {
        self.commit_log = Some(Vec::new());
    }

    /// The recorded commit stream, if [`Core::enable_commit_log`] was
    /// called.
    pub fn commit_log(&self) -> Option<&[CommitRecord]> {
        self.commit_log.as_deref()
    }

    /// Detaches and returns the recorded commit stream, turning recording
    /// off.
    pub fn take_commit_log(&mut self) -> Option<Vec<CommitRecord>> {
        self.commit_log.take()
    }

    /// The active fault plan: its activation counters and site-usage
    /// record are what a campaign's early-exit driver reads.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The configuration.
    pub fn config(&self) -> &CoreConfig {
        &self.cfg
    }

    /// Statistics so far.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Cycles [`Core::run`] simulated as quiet: the shared prologue and
    /// fetch alone, because no other stage could act before the next
    /// timed event. Kept outside [`SimStats`], so no report depends on
    /// it.
    pub fn quiet_cycles(&self) -> u64 {
        self.quiet_cycles
    }

    /// One-line description of machine occupancy, for stuck-state triage,
    /// followed by the oldest residents, in-flight uops and every parked
    /// store and load. During a quiet stretch it names the cycle the core
    /// waits for.
    pub fn debug_state(&self) -> String {
        let mut out = format!("cycle={}", self.cycle);
        if self.idle {
            out += &format!(" quiet_until={}", self.next_wake());
        }
        out += &format!(
            " halted={:?} iq={} inflight={} parked={} sb={} lvq={} boq={} dtq={} fetchq_pkts={} live_pkts={}",
            self.halted,
            self.iq.len(),
            self.inflight.len(),
            self.parked.len(),
            self.sb.len(),
            self.lvq.len(),
            self.boq.len(),
            self.dtq.len(),
            self.fetchq_packets.len(),
            self.trail_packet_total.len(),
        );
        for (i, c) in self.ctxs.iter().enumerate() {
            out += &format!(
                " | ctx{i}: frontq={} al={} head_seq={} head_ready={} lsq={} fetch_pc={:#x} fetch_halted={} committed_mem={}",
                c.frontq.len(),
                c.al.len(),
                c.al.head_seq(),
                c.al.head().map(|h| format!("{:?}", self.slab.at(h).stage)).unwrap_or_else(|| "hole".into()),
                c.lsq.len(),
                c.fetch_pc,
                c.fetch_halted,
                c.committed_mem,
            );
        }
        for r in self.iq.residents().iter().take(12) {
            let u = self.slab.at(r.id);
            out += &format!(
                "\n  iq: ctx={} seq={} pc={:#x} {} pkt={:?} filler={} ready={}",
                u.ctx, u.seq, u.pc, u.inst, u.packet.get(), u.filler, self.operands_ready(r.id)
            );
        }
        for f in self.inflight.iter().take(6) {
            if let Some(u) = self.slab.get(f.id) {
                out += &format!(
                    "\n  inflight(done={}): ctx={} seq={} pc={:#x} {} store_val={:?} result={:?}",
                    f.done, u.ctx, u.seq, u.pc, u.inst, u.store_val, u.result
                );
            }
        }
        for p in &self.parked {
            let u = self.slab.at(p.id);
            out += &format!("\n  parked: ctx={} seq={} pc={:#x} {} ", u.ctx, u.seq, u.pc, u.inst);
            out += &match p.on {
                Wake::Reg { reg, .. } => format!("data=p{reg}"),
                Wake::Store { seq } => format!("store_seq={seq}"),
            };
        }
        out
    }

    /// The (post-check) memory image.
    pub fn mem(&self) -> &PagedMem {
        &self.mem
    }

    /// The memory-hierarchy timing model (for cache statistics).
    pub fn mem_sys(&self) -> &MemSystem {
        &self.mem_sys
    }

    /// The in-flight uop slab: how much of it a snapshot copies
    /// ([`UopSlab::slot_count`]) against its high-water mark.
    pub fn uop_slab(&self) -> &UopSlab {
        &self.slab
    }

    /// Committed architectural value of integer register `x<n>` in the
    /// leading context. Exact once the run has completed.
    ///
    /// # Panics
    ///
    /// Panics if `n >= 32`.
    pub fn arch_reg(&self, n: usize) -> u64 {
        let p = self.ctxs[LEADING].regs.lookup(blackjack_isa::LogReg::new(n as u8));
        self.ctxs[LEADING].regs.read(p)
    }

    /// Committed architectural value of FP register `f<n>` (raw bits).
    ///
    /// # Panics
    ///
    /// Panics if `n >= 32`.
    pub fn arch_freg_bits(&self, n: usize) -> u64 {
        let p = self.ctxs[LEADING].regs.lookup(blackjack_isa::LogReg::new(32 + n as u8));
        self.ctxs[LEADING].regs.read(p)
    }

    /// True once the run has finished cleanly.
    pub fn finished(&self) -> bool {
        self.done
    }

    /// Cycles simulated so far.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The last cycle on which either context committed an instruction
    /// (0 before the first commit) — the progress mark of the built-in
    /// no-commit watchdog, which ends every wedged run, campaign runs
    /// included.
    pub fn last_commit_cycle(&self) -> u64 {
        self.last_commit_cycle
    }

    /// Freezes the complete simulation state — contexts, queues,
    /// predictors, the memory hierarchy, and statistics — into a
    /// restore-exact [`CoreSnapshot`]. The original core is untouched and
    /// both copies evolve identically under subsequent [`Core::step`]s.
    pub fn snapshot(&self) -> CoreSnapshot {
        CoreSnapshot { core: self.clone() }
    }

    /// [`Core::snapshot`] minus the fault plan, for a donor that is only
    /// ever [forked](CoreSnapshot::fork): a fork installs its own plan,
    /// so the copy holds an empty one. A snapshot chain's reference pass
    /// records site usage in its plan, a record no fork reads; its donors
    /// leave it behind. A [`CoreSnapshot::restore`] of the copy runs on
    /// under the empty plan.
    pub fn snapshot_without_plan(&mut self) -> CoreSnapshot {
        let plan = std::mem::take(&mut self.plan);
        let snap = self.snapshot();
        self.plan = plan;
        snap
    }

    /// Runs until completion, detection, or cycle `max_cycles` (an
    /// absolute cycle number, so a resumed or forked core stops where a
    /// cold one would). Returns
    ///
    /// - [`RunOutcome::Completed`] once both contexts halted with every
    ///   store checked,
    /// - [`RunOutcome::Detected`] when a redundancy check fired, or
    /// - [`RunOutcome::CycleLimit`] when `max_cycles` was reached, or the
    ///   built-in watchdog found no commit for 200,000 cycles (which also
    ///   sets [`SimStats::deadlocked`]).
    ///
    /// A core that already finished, or that the watchdog stopped,
    /// returns its outcome again without stepping, so a caller can drive
    /// a run in slices. Wall-clock time spent here accumulates into
    /// [`SimStats::wall_nanos`] (and its twin [`SimStats::agg_wall_nanos`])
    /// for throughput accounting.
    ///
    /// The result is exactly that of calling [`Core::step`] once per
    /// cycle, but cycles in which only the clock can move are cheaper:
    /// after a step that changed no state outside fetch, every other
    /// stage stays idle until the earliest in-flight completion,
    /// unpipelined-unit release or watchdog deadline, so those cycles run
    /// only the prologue `step` shares and fetch ([`Core::quiet_cycles`]
    /// counts them).
    pub fn run(&mut self, max_cycles: u64) -> RunOutcome {
        let t0 = std::time::Instant::now();
        while !self.done
            && self.detection.is_none()
            && !self.stats.deadlocked
            && self.cycle < max_cycles
        {
            if self.idle {
                self.run_quiet(max_cycles);
                if self.detection.is_some() {
                    break;
                }
            }
            self.step();
            if self.cycle - self.last_commit_cycle > WATCHDOG_CYCLES {
                self.stats.deadlocked = true;
            }
        }
        let elapsed = t0.elapsed().as_nanos() as u64;
        self.stats.wall_nanos += elapsed;
        self.stats.agg_wall_nanos += elapsed;
        let outcome = if self.stats.deadlocked {
            RunOutcome::CycleLimit
        } else if let Some(e) = self.detection {
            RunOutcome::Detected(e)
        } else if self.done {
            RunOutcome::Completed
        } else {
            RunOutcome::CycleLimit
        };
        self.stats.exit_reason = Some(match outcome {
            RunOutcome::Completed => ExitReason::Completed,
            RunOutcome::Detected(_) => ExitReason::Detected,
            RunOutcome::CycleLimit => ExitReason::CycleLimit,
        });
        outcome
    }

    /// Simulates one cycle through the full pipeline: the reference
    /// [`Core::run`]'s quiet cycles must match.
    pub fn step(&mut self) {
        if self.done || self.detection.is_some() {
            return;
        }
        self.begin_cycle();
        let committed = self.stats.committed;
        self.commit();
        if self.done || self.detection.is_some() {
            return;
        }
        let mut acted = self.stats.committed != committed;
        acted |= self.complete();
        if self.detection.is_some() {
            return;
        }
        acted |= self.issue();
        acted |= self.dispatch();
        if self.cfg.mode.uses_dtq() {
            acted |= self.shuffle_stage();
        }
        if self.detection.is_some() {
            return;
        }
        acted |= self.fetch_stage();
        self.idle = !acted;
    }

    /// The prologue every cycle runs: the clock, the fault plan's clock
    /// and the tracer's occupancy sample.
    fn begin_cycle(&mut self) {
        self.cycle += 1;
        // Publish the cycle so every fault hook this step evaluates the
        // plan's temporal model (transient/intermittent presence) against
        // the cycle being simulated.
        self.plan.observe_cycle(self.cycle);
        self.stats.cycles = self.cycle;
        if self.tracer.is_on() {
            // Start-of-cycle occupancy snapshot (last cycle's end state).
            let lsq: usize = self.ctxs.iter().map(|c| c.lsq.len()).sum();
            let al: usize = self.ctxs.iter().map(|c| c.al.len()).sum();
            let slack = self.cfg.mode.is_redundant().then(|| {
                self.stats.committed[LEADING]
                    .saturating_sub(self.ctxs[TRAILING].fetched_real)
            });
            self.tracer.cycle_sample(self.iq.len(), self.dtq.len(), lsq, al, slack);
        }
    }

    /// Runs fetch; true if it handed another stage work (a fetched uop, a
    /// consumed shuffled packet) or detected.
    fn fetch_stage(&mut self) -> bool {
        let before = (self.next_uid, self.fetchq_packets.len());
        self.fetch();
        self.detection.is_some() || before != (self.next_uid, self.fetchq_packets.len())
    }

    /// The quiet stretch after a step that changed nothing outside fetch.
    ///
    /// Commit, completion, select, dispatch and shuffle read only state
    /// that another stage's action or a timer changes, so until the
    /// earliest timer fires they would do nothing again: each cycle runs
    /// the prologue and fetch alone. Fetch still runs for real, since a
    /// blocked fetch still touches the L1I and an SRT trailing fetch
    /// waiting on an empty BOQ still consults the frontend fault hook;
    /// the stretch ends early the cycle it hands another stage work. The
    /// cycle that ends the stretch runs as a full [`Core::step`].
    fn run_quiet(&mut self, max_cycles: u64) {
        let wake = self.next_wake().min(max_cycles);
        while self.cycle + 1 < wake {
            self.begin_cycle();
            self.quiet_cycles += 1;
            if self.fetch_stage() {
                self.idle = false;
                return;
            }
        }
    }

    /// The first cycle after this one at which a timer can hand a stage
    /// work: an in-flight completion, an unpipelined unit's release, or
    /// the no-commit watchdog's deadline.
    fn next_wake(&self) -> u64 {
        let done = self.inflight.iter().map(|f| f.done).min().unwrap_or(u64::MAX);
        let release = self.fus.next_release(self.cycle).unwrap_or(u64::MAX);
        done.min(release).min(self.last_commit_cycle + WATCHDOG_CYCLES + 1)
    }

    fn detect(&mut self, kind: DetectionKind, seq: u64, pc: u64) {
        self.detect_ways(kind, seq, pc, None, None, None);
    }

    fn detect_ways(
        &mut self,
        kind: DetectionKind,
        seq: u64,
        pc: u64,
        lead_back_way: Option<usize>,
        trail_back_way: Option<usize>,
        front_ways: Option<(usize, usize)>,
    ) {
        let ev = DetectionEvent {
            kind,
            cycle: self.cycle,
            seq,
            pc,
            lead_back_way,
            trail_back_way,
            front_ways,
            store_compared: None,
        };
        self.record_detection(ev);
    }

    fn record_detection(&mut self, ev: DetectionEvent) {
        if self.tracer.is_on() {
            self.tracer.event(FlightEvent {
                cycle: ev.cycle,
                kind: FlightKind::Detect,
                uid: u64::MAX,
                ctx: if self.cfg.mode.is_redundant() { TRAILING } else { LEADING },
                seq: ev.seq,
                pc: ev.pc,
                way: ev.trail_back_way.unwrap_or(usize::MAX),
                packet: u64::MAX,
                filler: false,
            });
        }
        if self.detection.is_none() {
            self.detection = Some(ev);
        }
        self.stats.detections.push(ev);
    }

    /// Flight-recorder hook: records `id` reaching pipeline stage `kind`.
    /// A single branch when tracing is off; must run while the uop is
    /// still in the slab.
    #[inline]
    fn trace_uop(&mut self, kind: FlightKind, id: UopId) {
        if !self.tracer.is_on() {
            return;
        }
        let u = self.slab.at(id);
        let way = match kind {
            FlightKind::Fetch | FlightKind::Dispatch => usize::from(u.front_way),
            _ => u.back_way.map_or(usize::MAX, usize::from),
        };
        let ev = FlightEvent {
            cycle: self.cycle,
            kind,
            uid: u.uid,
            ctx: usize::from(u.ctx),
            seq: u.seq,
            pc: u.pc,
            way,
            packet: u.packet.get().unwrap_or(u64::MAX),
            filler: u.filler,
        };
        self.tracer.event(ev);
    }

    // ----------------------------------------------------------------- commit

    fn commit(&mut self) {
        self.commit_ctx(LEADING);
        if self.cfg.mode.is_redundant() && self.detection.is_none() {
            self.commit_ctx(TRAILING);
        }
        // Run-completion check.
        if self.cfg.mode.is_redundant() {
            if self.halted[0] && self.halted[1] {
                if !self.sb.is_empty() && !self.plan.is_empty() {
                    // A fault that corrupts the trailing stream into an
                    // early `halt` leaves leading stores unchecked; the
                    // surplus is itself the divergence.
                    self.detect(
                        DetectionKind::UncheckedStores,
                        self.stats.committed[TRAILING],
                        self.trail_expect_pc,
                    );
                    return;
                }
                debug_assert!(self.sb.is_empty(), "stores unchecked at completion");
                self.done = true;
            }
        } else if self.halted[0] {
            self.done = true;
        }
    }

    fn commit_ctx(&mut self, ctx: usize) {
        for _ in 0..self.cfg.width {
            if self.halted[ctx] || self.detection.is_some() {
                break;
            }
            let Some(id) = self.ctxs[ctx].al.head() else { break };
            if self.slab.at(id).stage != Stage::Completed {
                break;
            }
            let ok = if ctx == LEADING {
                self.commit_leading(id)
            } else {
                self.commit_trailing(id)
            };
            if !ok {
                break; // structural stall (queue full)
            }
            self.last_commit_cycle = self.cycle;
        }
    }

    /// Commits the leading-context head. Returns false on a structural
    /// stall (downstream queue full).
    fn commit_leading(&mut self, id: UopId) -> bool {
        let redundant = self.cfg.mode.is_redundant();
        let uses_dtq = self.cfg.mode.uses_dtq();
        let u = self.slab.at(id);

        // Structural stalls before any state change.
        if redundant {
            if u.inst.is_store() && self.sb.is_full() {
                return false;
            }
            if u.inst.is_load() && self.lvq.is_full() {
                return false;
            }
            if self.cfg.mode == Mode::Srt && u.inst.is_control() && self.boq.is_full() {
                return false;
            }
        }

        let u = self.slab.at(id);
        let (seq, pc, next_pc, taken) = (u.seq, u.pc, u.next_pc, u.taken);
        let inst = u.inst;
        let pristine = u.pristine;
        let log_dst = u.log_dst;
        let (front_way, back_way) = (u.front_way, u.back_way.expect("a committed uop has issued"));
        let (dst, old_dst) = (u.dst, u.old_dst);
        let (load_seq, store_seq, mem_seq) = (u.load_seq, u.store_seq, u.mem_seq);
        let (eff_addr, store_val, result) = (u.eff_addr, u.store_val, u.result);
        let ecc = u.ecc;
        let lead_srcs = u.srcs;
        let ghist = u.ghist_snapshot;
        let dtq_index = u.dtq_index;

        // Register freeing.
        if dst.is_some() {
            if let Some(old) = old_dst {
                self.ctxs[LEADING].regs.free_reg(old);
            }
        }

        // Memory side.
        if inst.is_mem() {
            self.ctxs[LEADING].lsq.commit_head(seq);
            self.ctxs[LEADING].committed_mem += 1;
        }
        if inst.is_store() {
            let mut rec = StoreRecord {
                addr: eff_addr.expect("committed store has an address"),
                bytes: inst.mem_bytes().expect("store width"),
                data: store_val.expect("committed store has data"),
                seq: store_seq.get().expect("store seq"),
            };
            if redundant {
                // A defective store-buffer entry corrupts the buffered
                // leading copy as it is written into its circular-RAM
                // slot (store ordinal mod capacity); the trailing
                // comparison at release then disagrees and the store never
                // reaches memory.
                let entry = (rec.seq % self.cfg.store_buffer as u64) as usize;
                rec.data = self.plan.apply(FaultSite::StoreBuffer { entry }, rec.data);
                self.sb.push(rec);
            } else {
                self.mem.write_sized(rec.addr, rec.bytes, rec.data);
                self.mem_sys.access_data(rec.addr, true);
            }
        }
        if inst.is_load() && redundant {
            let load_seq = load_seq.get().expect("load seq");
            self.lvq.push(LvqEntry {
                load_seq,
                addr: eff_addr.expect("committed load has an address"),
                value: result.expect("committed load has a value"),
                ecc,
            });
        }

        // Control side: predictor training + BOQ.
        if inst.is_cond_branch() {
            self.stats.branches += 1;
            self.gshare.train(pc, ghist, taken);
        }
        if let Inst::Jalr { .. } = inst {
            self.btb.update(pc, next_pc);
        }
        if inst.is_control() && self.cfg.mode == Mode::Srt {
            self.boq.push(BoqEntry { branch_seq: seq, taken, next_pc });
        }

        // Redundancy bookkeeping.
        if uses_dtq {
            let payload = DtqPayload {
                raw: pristine,
                pc,
                next_pc,
                seq,
                load_seq,
                store_seq,
                mem_seq,
                lead_srcs,
                lead_dst: dst,
                front_way,
                back_way,
                fu: inst.fu_type(),
            };
            self.dtq.record(dtq_index.get().expect("leading committed without a DTQ entry"), payload);
        } else if redundant {
            self.waylog.push(WayRecord {
                seq,
                front_way: usize::from(front_way),
                back_way: usize::from(back_way),
            });
        }

        if matches!(inst, Inst::Halt) {
            self.halted[LEADING] = true;
        }

        if let Some(log) = self.commit_log.as_mut() {
            let dst_write = match (log_dst, dst) {
                (Some(l), Some(_)) => {
                    Some((l, result.expect("committed writer has a result")))
                }
                _ => None,
            };
            let mem = if inst.is_store() {
                Some(MemEffect::Store {
                    addr: eff_addr.expect("committed store has an address"),
                    bytes: inst.mem_bytes().expect("store width"),
                    data: store_val.expect("committed store has data"),
                })
            } else if inst.is_load() {
                Some(MemEffect::Load {
                    addr: eff_addr.expect("committed load has an address"),
                    value: result.expect("committed load has a value"),
                })
            } else {
                None
            };
            log.push(CommitRecord { seq, pc, next_pc, taken, dst: dst_write, mem });
        }

        self.trace_uop(FlightKind::Commit, id);
        self.ctxs[LEADING].al.commit_head();
        self.slab.remove(id);
        self.stats.committed[LEADING] += 1;
        true
    }

    /// Commits the trailing-context head, running the BlackJack/SRT checks.
    fn commit_trailing(&mut self, id: UopId) -> bool {
        let uses_dtq = self.cfg.mode.uses_dtq();
        let u = self.slab.at(id);
        let (seq, pc, next_pc) = (u.seq, u.pc, u.next_pc);
        // The trailing thread is the checker: it must never commit an
        // instruction the leading thread has not committed (possible in
        // SRT when structural stalls collapse the slack to zero — the
        // trailing store would find an empty store buffer and
        // false-positive as an unpaired store).
        if seq >= self.stats.committed[LEADING] {
            return false;
        }
        // Way usage of the two copies, recorded with any detection so an
        // online-diagnosis layer can localize the defective unit.
        let (front_way, back_way) = (usize::from(u.front_way), u.back_way.map(usize::from));
        let (lead_front, lead_back) = (usize::from(u.lead_front_way), usize::from(u.lead_back_way));
        let ev_lead_back = if uses_dtq {
            self.lead_back_way(id)
        } else {
            self.waylog.get(seq).map(|r| r.back_way)
        };
        let ev_fronts = if uses_dtq {
            (u.lead_front_way != Uop::NO_WAY).then_some((lead_front, front_way))
        } else {
            self.waylog.get(seq).map(|r| (r.front_way, front_way))
        };
        let dw = (ev_lead_back, back_way, ev_fronts);
        let back_way = back_way.expect("a committed uop has issued");
        let inst = u.inst;
        let (dst, old_dst) = (u.dst, u.old_dst);
        let srcs = u.srcs;
        let load_seq = u.load_seq;
        let (eff_addr, store_val) = (u.eff_addr, u.store_val);
        let pred_next_pc = u.pred_next_pc;

        // Program-order (PC chain) check, §4.4.
        if pc != self.trail_expect_pc {
            self.detect_ways(DetectionKind::ProgramOrderMismatch, seq, pc, dw.0, dw.1, dw.2);
            return false;
        }

        // Branch-outcome verification of borrowed control flow: a
        // BlackJack trailing uop's predicted next PC is the leading copy's
        // committed one.
        if uses_dtq && next_pc != pred_next_pc {
            self.detect_ways(DetectionKind::BranchOutcomeMismatch, seq, pc, dw.0, dw.1, dw.2);
            return false;
        }

        // Dependence check through the second (program-order) rename table
        // (BlackJack modes; SRT's trailing rename is its own program-order
        // rename, so no borrowed dependence information exists to check).
        if uses_dtq {
            let mut logical_srcs = inst.srcs().filter(|r| !r.is_zero());
            for used in &srcs {
                let Some(used) = used else { continue };
                let Some(log) = logical_srcs.next() else { continue };
                let expected = self.commit_rat.lookup(log);
                if expected != *used {
                    self.detect_ways(DetectionKind::DependenceCheckMismatch, seq, pc, dw.0, dw.1, dw.2);
                    return false;
                }
            }
            if let (Some(d), Some(log)) = (dst, inst.dst()) {
                let prev = self.commit_rat.commit_dst(log, d);
                self.ctxs[TRAILING].regs.free_reg(prev);
            }
        } else if dst.is_some() {
            if let Some(old) = old_dst {
                self.ctxs[TRAILING].regs.free_reg(old);
            }
        }

        // Store check against the buffered leading store. In the DTQ
        // modes the trailing store's data is read here, at commit, through
        // the program-order rename table (see `try_rename_dispatch`).
        if inst.is_store() {
            let addr = eff_addr.expect("committed store has an address");
            let bytes = inst.mem_bytes().expect("store width");
            let data = if uses_dtq {
                let log = inst
                    .srcs()
                    .nth(1)
                    .expect("stores have a data operand");
                let raw = if log.is_zero() {
                    0
                } else {
                    self.ctxs[TRAILING].regs.read(self.commit_rat.lookup(log))
                };
                store_data(&inst, raw)
            } else {
                store_val.expect("committed store has data")
            };
            self.stats.store_checks += 1;
            match self.sb.check(addr, bytes, data, &mut self.mem) {
                StoreCheck::Match => {
                    self.mem_sys.access_data(addr, true);
                }
                StoreCheck::Mismatch(lead) => {
                    let ev = DetectionEvent {
                        kind: DetectionKind::StoreMismatch,
                        cycle: self.cycle,
                        seq,
                        pc,
                        lead_back_way: dw.0,
                        trail_back_way: dw.1,
                        front_ways: dw.2,
                        store_compared: Some(((lead.addr, lead.data), (addr, data))),
                    };
                    self.record_detection(ev);
                    return false;
                }
                StoreCheck::Unpaired => {
                    self.detect_ways(DetectionKind::UnpairedStore, seq, pc, dw.0, dw.1, dw.2);
                    return false;
                }
            }
        }
        if inst.is_load() {
            self.lvq.retire_through(load_seq.get().expect("load seq"));
        }
        if inst.is_mem() {
            if !uses_dtq {
                self.ctxs[TRAILING].lsq.commit_head(seq);
            }
            self.ctxs[TRAILING].committed_mem += 1;
        }

        // Coverage accounting for the pair.
        let lead_ways = if uses_dtq {
            Some((lead_front, lead_back))
        } else {
            self.waylog.take(seq).map(|r| (r.front_way, r.back_way))
        };
        if let Some((lf, lb)) = lead_ways {
            self.stats.coverage.record_pair(front_way != lf, back_way != lb);
        }

        self.trail_expect_pc = next_pc;
        if matches!(inst, Inst::Halt) {
            self.halted[TRAILING] = true;
        }
        self.trace_uop(FlightKind::Commit, id);
        self.ctxs[TRAILING].al.commit_head();
        self.slab.remove(id);
        self.stats.committed[TRAILING] += 1;
        true
    }

    // --------------------------------------------------------------- complete

    /// Completes the uops due this cycle, oldest first; true if any
    /// completed.
    fn complete(&mut self) -> bool {
        let cycle = self.cycle;
        let mut due = std::mem::take(&mut self.scratch.due);
        due.clear();
        self.inflight.retain(|f| {
            if f.done <= cycle {
                due.push((f.uid, f.id));
                false
            } else {
                true
            }
        });
        // Oldest first so the eldest mispredicted branch squashes first.
        due.sort_unstable_by_key(|&(uid, _)| uid);

        let mut completed = false;
        let mut next = 0;
        while next < due.len() {
            let (uid, id) = due[next];
            next += 1;
            if !self.slab.contains(id) {
                continue; // squashed while executing
            }
            if let Capture::Park(on) = self.capture_late_values(id) {
                self.parked.push(Parked { on, uid, id });
                continue;
            }
            completed = true;
            let u = self.slab.at_mut(id);
            u.stage = Stage::Completed;
            let (ctx, dst, result) = (usize::from(u.ctx), u.dst, u.result);
            let filler = u.filler;
            if let Some(d) = dst {
                self.ctxs[ctx].regs.write(d, result.unwrap_or(0));
                self.iq.wake(ctx == TRAILING, d);
                self.unpark(Wake::Reg { ctx, reg: d }, uid, &mut due, next);
            }
            let u = self.slab.at(id);
            if ctx == LEADING && u.inst.is_store() {
                self.unpark(Wake::Store { seq: u.seq }, uid, &mut due, next);
            }
            self.trace_uop(FlightKind::Complete, id);
            if filler {
                self.slab.remove(id);
                continue;
            }
            let u = self.slab.at(id);
            let (is_control, next_pc, pred_next_pc, seq, pc) =
                (u.inst.is_control(), u.next_pc, u.pred_next_pc, u.seq, u.pc);
            if is_control && next_pc != pred_next_pc {
                match (ctx, self.cfg.mode) {
                    (LEADING, _) => {
                        self.stats.mispredicts += 1;
                        self.squash_after(LEADING, id);
                    }
                    (TRAILING, Mode::Srt) => {
                        // The BOQ outcome was the trailing "prediction";
                        // disagreement is the §4.4-style verification firing.
                        self.detect(DetectionKind::BranchOutcomeMismatch, seq, pc);
                        break;
                    }
                    // BlackJack trailing branches carry no prediction
                    // (pred_next_pc is set to the computed leading next PC
                    // at fetch); a mismatch surfaces at commit instead.
                    (TRAILING, _) => {}
                    _ => unreachable!(),
                }
            }
        }
        self.scratch.due = due;
        completed
    }

    /// Event `on`, caused by the completion of uop `uid`, puts every uop
    /// parked on it back into this completion pass at its uid position
    /// (`due[next..]` is what remains of the pass). Writeback is the only
    /// event that readies a parked store, and an older store's data
    /// capture the only one that readies a parked load: every older
    /// store had executed before the load issued.
    fn unpark(&mut self, on: Wake, uid: u64, due: &mut Vec<(u64, UopId)>, next: usize) {
        let mut k = 0;
        while k < self.parked.len() {
            let p = self.parked[k];
            if p.on != on {
                k += 1;
                continue;
            }
            debug_assert!(p.uid > uid, "a parked uop waits on an older one");
            self.parked.remove(k);
            let at = next + due[next..].partition_point(|&(u, _)| u < p.uid);
            due.insert(at, (p.uid, p.id));
        }
    }

    // ----------------------------------------------------------------- squash

    /// Squashes everything in `ctx` younger than `branch` and redirects
    /// fetch to the branch's computed target.
    fn squash_after(&mut self, ctx: usize, branch: UopId) {
        let b = self.slab.at(branch);
        let (bseq, target, ghist, taken, counters) =
            (b.seq, b.next_pc, b.ghist_snapshot, b.taken, b.cnt_after);

        // Predictor history repair.
        if ctx == LEADING {
            self.gshare.recover(ghist, taken);
        }

        // Renamed instructions, youngest first.
        while let Some(id) = self.ctxs[ctx].al.pop_youngest_after(bseq) {
            let u = self.slab.at(id);
            let (dst, old_dst, log_dst, dtq_index, way, stage, fu) =
                (u.dst, u.old_dst, u.log_dst, u.dtq_index, u.back_way, u.stage, u.fu);
            if let (Some(d), Some(log)) = (dst, log_dst) {
                self.ctxs[ctx].regs.undo_rename(log, d, old_dst.expect("renamed dst has old"));
            } else if let Some(d) = dst {
                // Allocated without a RAT update (never happens for the
                // leading thread, which is the only squasher).
                self.ctxs[ctx].regs.free_reg(d);
            }
            if stage == Stage::InQueue {
                self.iq.remove(id);
            }
            if stage == Stage::Executing {
                if let Some(w) = way {
                    if crate::config::FuLatencies::unpipelined(fu) {
                        self.fus.release(usize::from(w));
                    }
                }
            }
            if let Some(idx) = dtq_index.get() {
                self.dtq.squash(idx);
            }
            self.slab.remove(id);
            self.stats.squashed += 1;
        }
        self.ctxs[ctx].lsq.squash_after(bseq);
        let slab = &self.slab;
        self.parked.retain(|p| slab.contains(p.id));

        // Fetch-queue instructions (not yet renamed).
        let (slab, stats) = (&mut self.slab, &mut self.stats);
        self.ctxs[ctx].frontq.retain(|&id| {
            if slab.at(id).seq > bseq {
                slab.remove(id);
                stats.squashed += 1;
                false
            } else {
                true
            }
        });

        // Counter and fetch redirect.
        self.ctxs[ctx].counters = counters;
        self.ctxs[ctx].fetch_pc = target & !3u64;
        self.ctxs[ctx].fetch_halted = false;
        self.ctxs[ctx].fetch_stall_until = 0;
    }

    // ------------------------------------------------------------------ issue

    /// Select: issues ready residents oldest first; true if any issued.
    fn issue(&mut self) -> bool {
        self.fus.begin_cycle();
        let mut budget = self.cfg.width;
        let mut issued = std::mem::take(&mut self.scratch.issued);
        issued.clear();
        let mut lead_dtq_needed = 0usize;
        let uses_dtq = self.cfg.mode.uses_dtq();
        let atomic = self.cfg.trailing_packet_atomic && uses_dtq;

        // Filler NOPs must move *with* their packet or the backend-way
        // mapping safe-shuffle computed is destroyed. Atomic issue moves
        // whole packets; otherwise a filler waits on its packet's operand
        // readiness, computed before anything issues.
        let mut packet_ready = std::mem::take(&mut self.scratch.packet_ready);
        packet_ready.clear();
        if !atomic {
            for r in self.iq.residents() {
                if r.is_trailing() && !r.is_filler() && r.packet != Resident::NO_PACKET {
                    let ready = self.resident_ready(r);
                    match packet_ready.iter_mut().find(|e| e.0 == r.packet) {
                        Some(e) => e.1 &= ready,
                        None => packet_ready.push((r.packet, ready)),
                    }
                }
            }
        }
        let mut handled_packets = std::mem::take(&mut self.scratch.handled_packets);
        handled_packets.clear();
        let mut members = std::mem::take(&mut self.scratch.members);
        let mut ways = std::mem::take(&mut self.scratch.ways);
        // Issued residents stay in the queue until select ends, so the
        // positions stay put.
        for at in 0..self.iq.len() {
            if budget == 0 {
                break;
            }
            let r = self.iq.residents()[at];
            if r.is_issued() {
                continue; // already issued as part of an atomic packet
            }

            if atomic && r.is_trailing() {
                // Whole-packet-or-nothing issue for trailing packets, so
                // the intra-packet backend mapping computed by safe-shuffle
                // is realized exactly.
                let pid = r.packet;
                assert_ne!(pid, Resident::NO_PACKET, "trailing DTQ uops belong to a packet");
                if handled_packets.contains(&pid) {
                    continue;
                }
                handled_packets.push(pid);
                members.clear();
                let residents = self.iq.residents();
                members.extend(
                    (0..residents.len())
                        .filter(|&m| residents[m].is_trailing() && residents[m].packet == pid),
                );
                let total = self.trail_packet_total.get(pid).unwrap_or(members.len());
                if members.len() != total
                    || budget < members.len()
                    || !members.iter().all(|&m| self.resident_ready(&residents[m]))
                {
                    continue;
                }
                ways.clear();
                for &m in &members {
                    let fu = self.iq.residents()[m].fu;
                    match self.fus.try_alloc(fu, self.cycle, &self.cfg.fu_lat) {
                        Some(w) => ways.push(w),
                        None => break,
                    }
                }
                if ways.len() != members.len() {
                    for &way in &ways {
                        self.fus.undo_alloc(way);
                    }
                    continue;
                }
                for (&m, &way) in members.iter().zip(&ways) {
                    self.do_issue(m, way, &mut issued, &mut budget);
                }
                self.trail_packet_total.remove(pid);
                continue;
            }

            // Non-atomic path (leading, SRT trailing, and ablations).
            if r.is_filler() {
                // A filler NOP is ready when every unissued real member
                // of its packet is ready (it then issues in slot order
                // with them, preserving the mapping).
                assert_ne!(r.packet, Resident::NO_PACKET, "filler NOPs belong to a packet");
                if !packet_ready.iter().find(|e| e.0 == r.packet).map(|e| e.1).unwrap_or(true) {
                    continue;
                }
            } else if !self.resident_ready(&r) {
                continue;
            }
            // Leading issue must reserve a DTQ entry.
            let leading_dtq = !r.is_trailing() && uses_dtq;
            if leading_dtq && self.dtq.free_slots() <= lead_dtq_needed {
                continue;
            }
            let Some(way) = self.fus.try_alloc(r.fu, self.cycle, &self.cfg.fu_lat) else {
                continue;
            };
            if leading_dtq {
                lead_dtq_needed += 1;
            }
            self.do_issue(at, way, &mut issued, &mut budget);
        }
        self.iq.retire_issued();
        self.classify_issue_cycle(&issued);
        self.allocate_dtq_entries(&issued);
        let any = !issued.is_empty();
        self.scratch.issued = issued;
        self.scratch.packet_ready = packet_ready;
        self.scratch.handled_packets = handled_packets;
        self.scratch.members = members;
        self.scratch.ways = ways;
        any
    }

    /// Common issue bookkeeping for the resident at issue-queue position
    /// `at`: marks it issued, executes it, and schedules completion.
    fn do_issue(&mut self, at: usize, way: usize, issued: &mut Vec<UopId>, budget: &mut usize) {
        let r = self.iq.residents()[at];
        self.iq.mark_issued(at);
        *budget -= 1;
        let id = r.id;
        let latency = self.execute(id, way, r.entry());
        let uid = self.slab.at(id).uid;
        self.inflight.push(InFlight { done: self.cycle + latency, uid, id });
        issued.push(id);
        let ctx = if r.is_trailing() { TRAILING } else { LEADING };
        self.stats.issued[ctx] += 1;
        if r.is_filler() {
            self.stats.filler_issued += 1;
        }
        if self.tracer.is_on() {
            self.tracer.issue_way(ctx, way);
            self.trace_uop(FlightKind::Issue, id);
        }
    }

    /// Select's readiness test: no gating register operand is unwritten
    /// (the resident's wait marks), plus the load conditions, which stay
    /// live because an older store's issue can ready a younger load
    /// mid-cycle. Debug builds check it against [`Core::operands_ready`].
    fn resident_ready(&self, r: &Resident) -> bool {
        let ready = !r.waits_on_registers()
            && (!r.is_load()
                || if r.is_trailing() {
                    // Trailing loads read the LVQ; the entry must have arrived.
                    self.lvq.lookup(r.load_key).is_some()
                } else {
                    // Split-store disambiguation: all older stores must
                    // have known addresses so overlap is decidable.
                    self.ctxs[LEADING].lsq.older_stores_addr_known(r.load_key)
                });
        debug_assert_eq!(ready, self.operands_ready(r.id), "wait marks disagree: {r:?}");
        ready
    }

    /// Readiness: operands produced plus per-kind structural conditions.
    fn operands_ready(&self, id: UopId) -> bool {
        let u = self.slab.at(id);
        if u.stage != Stage::InQueue {
            return false;
        }
        let regs = &self.ctxs[usize::from(u.ctx)].regs;
        if u.inst.is_store() {
            // Split store: only the address operand gates issue; the data
            // operand is captured at completion.
            if !u.srcs[0].map(|p| regs.is_ready(p)).unwrap_or(true) {
                return false;
            }
        } else if !u.srcs.iter().all(|s| s.map(|p| regs.is_ready(p)).unwrap_or(true)) {
            return false;
        }
        if u.inst.is_load() {
            if usize::from(u.ctx) == LEADING {
                // Split-store disambiguation: all older stores must have
                // known addresses so overlap is decidable.
                if !self.ctxs[LEADING].lsq.older_stores_addr_known(u.seq) {
                    return false;
                }
            } else {
                // Trailing loads read the LVQ; the entry must have arrived.
                let Some(ls) = u.load_seq.get() else { return true };
                if self.lvq.lookup(ls).is_none() {
                    return false;
                }
            }
        }
        true
    }

    /// The backend way of the leading copy a BlackJack trailing uop
    /// borrowed through the DTQ, if any.
    fn lead_back_way(&self, id: UopId) -> Option<usize> {
        let w = self.slab.at(id).lead_back_way;
        (w != Uop::NO_WAY).then_some(usize::from(w))
    }

    /// Applies backend-way and payload-RAM faults to a computed value.
    ///
    /// Payload-RAM faults corrupt whoever occupies the defective entry; with
    /// split payload RAMs (the paper's fix, §4.5) only the leading thread's
    /// RAM is modeled as defective, so the two copies can never be corrupted
    /// identically.
    fn fault_value(&mut self, ctx: usize, way: usize, payload_slot: usize, v: u64) -> u64 {
        let v = self.plan.apply(FaultSite::Backend { way }, v);
        if ctx == LEADING || !self.cfg.split_payload_ram {
            self.plan.apply(FaultSite::PayloadRam { entry: payload_slot }, v)
        } else {
            v
        }
    }

    /// Computes the uop's result on backend way `way`, applying backend and
    /// payload-RAM faults, and returns its completion latency.
    ///
    /// Stores are *split*: they issue once their address operand is ready
    /// and capture their data at completion (parking until the data
    /// register is produced). Leading loads likewise compose their value at
    /// completion, so forwarding sees final store data.
    fn execute(&mut self, id: UopId, way: usize, payload_entry: usize) -> u64 {
        let u = self.slab.at(id);
        let (ctx, seq, pc, inst) = (usize::from(u.ctx), u.seq, u.pc, u.inst);
        let srcs = u.srcs;
        let a = srcs[0].map(|p| self.ctxs[ctx].regs.read(p)).unwrap_or(0);
        let b = srcs[1].map(|p| self.ctxs[ctx].regs.read(p)).unwrap_or(0);

        {
            let u = self.slab.at_mut(id);
            u.back_way = Some(way as u8);
            u.payload_slot = payload_entry as u16;
            u.stage = Stage::Executing;
        }

        let lat;
        if inst.is_mem() {
            let addr = effective_addr(&inst, a);
            let bytes = inst.mem_bytes().expect("memory width");
            if inst.is_store() {
                // Split store: address now, data at completion if the data
                // register is already ready.
                let data = srcs[1]
                    .map(|p| self.ctxs[ctx].regs.is_ready(p).then(|| self.ctxs[ctx].regs.read(p)))
                    .unwrap_or(Some(0))
                    .map(|raw| {
                        store_data(&inst, self.fault_value(ctx, way, payload_entry, store_data(&inst, raw)))
                    });
                if ctx == LEADING {
                    self.ctxs[LEADING].lsq.execute(seq, addr, data);
                }
                let u = self.slab.at_mut(id);
                u.eff_addr = Some(addr);
                u.store_val = data;
                lat = self.cfg.fu_lat.agen + 1;
            } else if ctx == LEADING {
                // Value is composed at completion; probe forwarding now only
                // to pick the latency (full forward = L1-hit-like).
                self.ctxs[LEADING].lsq.execute(seq, addr, None);
                let probe = self.ctxs[LEADING].lsq.forward_status(seq, addr, bytes);
                let mem_lat = match &probe {
                    Ok(f) if f[..bytes as usize].iter().all(|b| b.is_some()) => {
                        self.cfg.mem.l1d.hit_latency
                    }
                    Err(_) => self.cfg.mem.l1d.hit_latency,
                    _ => {
                        // A corrupted L1D tag makes the lookup miss, so the
                        // load pays the L2 path — purely a timing
                        // perturbation (the refill rewrites the tag).
                        // Fully forwarded loads never read the tags.
                        if self.plan.cache_tag_miss(self.mem_sys.l1d_set(addr)) {
                            self.mem_sys.access_data_forced_miss(addr, false)
                        } else {
                            self.mem_sys.access_data(addr, false)
                        }
                    }
                };
                let u = self.slab.at_mut(id);
                u.eff_addr = Some(addr);
                lat = self.cfg.fu_lat.agen + mem_lat;
            } else {
                // Trailing load: LVQ access with address check.
                let load_seq = self.slab.at(id).load_seq.get().expect("trailing load seq");
                let entry = *self.lvq.lookup(load_seq).expect("readiness guaranteed the entry");
                if entry.addr != addr {
                    let lead_back = self.lead_back_way(id);
                    self.detect_ways(
                        DetectionKind::LoadAddrMismatch,
                        seq,
                        pc,
                        lead_back,
                        Some(way),
                        None,
                    );
                }
                // The payload RAM read: a defective slot corrupts what
                // the trailing thread sees (never what the leading
                // thread committed).
                let site = FaultSite::LvqPayload { entry: self.lvq.slot_of(load_seq) };
                let value = self.plan.apply(site, entry.value);
                // SEC-DED decode at the read port. The check bits were
                // generated over the *clean* composed value, before the
                // backend/payload/cache-data hooks on the leading side
                // could strike, so a single-bit upset anywhere along the
                // captured value's path is repaired here — the trailing
                // thread then diverges from the corrupt leading copy and
                // the pair checks fire (closing the LVQ escape).
                let value = if self.cfg.lvq_ecc {
                    match blackjack_faults::ecc::decode(value, entry.ecc) {
                        blackjack_faults::EccOutcome::Clean => value,
                        blackjack_faults::EccOutcome::Corrected { data, .. } => {
                            self.stats.ecc_corrected += 1;
                            data
                        }
                        blackjack_faults::EccOutcome::Uncorrectable => {
                            let lead_back = self.lead_back_way(id);
                            self.detect_ways(
                                DetectionKind::EccUncorrectable,
                                seq,
                                pc,
                                lead_back,
                                Some(way),
                                None,
                            );
                            value
                        }
                    }
                } else {
                    value
                };
                let value = self.fault_value(ctx, way, payload_entry, value);
                let u = self.slab.at_mut(id);
                u.eff_addr = Some(addr);
                u.result = Some(value);
                lat = self.cfg.fu_lat.agen + self.cfg.mem.l1d.hit_latency;
            }
        } else {
            let out = exec_nonmem(&inst, a, b, pc);
            let (taken, next_pc, result) = if inst.is_control() {
                (out.taken, self.fault_value(ctx, way, payload_entry, out.next_pc), out.wb)
            } else {
                (out.taken, out.next_pc, out.wb.map(|v| self.fault_value(ctx, way, payload_entry, v)))
            };
            let u = self.slab.at_mut(id);
            u.taken = taken;
            u.next_pc = next_pc;
            u.result = result;
            lat = self.cfg.fu_lat.of(u.fu);
        }
        lat
    }

    /// Late value capture at completion: split-store data and leading-load
    /// value composition.
    fn capture_late_values(&mut self, id: UopId) -> Capture {
        let u = self.slab.at(id);
        let (ctx, seq, inst) = (usize::from(u.ctx), u.seq, u.inst);
        let (way, payload_slot) = (usize::from(u.back_way.unwrap_or(0)), usize::from(u.payload_slot));
        let srcs = u.srcs;
        let trailing_dtq_store = ctx == TRAILING && self.cfg.mode.uses_dtq();
        if inst.is_store() && u.store_val.is_none() && !trailing_dtq_store {
            let Some(p) = srcs[1] else { unreachable!("store without data operand has store_val") };
            if !self.ctxs[ctx].regs.is_ready(p) {
                return Capture::Park(Wake::Reg { ctx, reg: p });
            }
            let raw = self.ctxs[ctx].regs.read(p);
            let data = store_data(&inst, self.fault_value(ctx, way, payload_slot, store_data(&inst, raw)));
            if ctx == LEADING {
                self.ctxs[LEADING].lsq.set_data(seq, data);
            }
            self.slab.at_mut(id).store_val = Some(data);
            return Capture::Done;
        }
        if inst.is_load() && ctx == LEADING && u.result.is_none() {
            let addr = u.eff_addr.expect("issued load has an address");
            let bytes = inst.mem_bytes().expect("memory width");
            let fwd = match self.ctxs[LEADING].lsq.forward_status(seq, addr, bytes) {
                Ok(fwd) => fwd,
                Err(store) => return Capture::Park(Wake::Store { seq: store }),
            };
            let committed = self.sb.read_through(addr, bytes, &self.mem);
            let mut raw = 0u64;
            for (i, byte) in fwd[..bytes as usize].iter().enumerate() {
                let v = byte.unwrap_or((committed >> (8 * i)) as u8);
                raw |= (v as u64) << (8 * i);
            }
            // ECC check bits are generated over the clean composed value
            // — the protected end of the load path. Everything after
            // (cache data array, memory-port backend way, payload RAM)
            // corrupts only the data bits, which the LVQ read port's
            // decoder can then repair for the trailing thread.
            let clean = finish_load(&inst, raw);
            let ecc = if self.cfg.lvq_ecc { blackjack_faults::ecc::encode(clean) } else { 0 };
            // The L1D data array corrupts the value as it leaves the set
            // `addr` maps to — after the check bits were generated, so the
            // LVQ decoder sees the upset.
            let site = FaultSite::CacheData { index: self.mem_sys.l1d_set(addr) };
            let value = self.plan.apply(site, clean);
            let value = self.fault_value(ctx, way, payload_slot, value);
            let u = self.slab.at_mut(id);
            u.result = Some(value);
            u.ecc = ecc;
        }
        Capture::Done
    }

    /// Figures 5/6 bookkeeping for one issue cycle.
    fn classify_issue_cycle(&mut self, issued: &[UopId]) {
        if issued.is_empty() {
            return;
        }
        self.stats.issue_cycles += 1;
        let mut lead_n = 0usize;
        let mut trail_n = 0usize;
        let mut packets = std::mem::take(&mut self.scratch.packets);
        packets.clear();
        let mut violated = false;
        for &id in issued {
            let u = self.slab.at(id);
            if usize::from(u.ctx) == LEADING {
                lead_n += 1;
            } else {
                trail_n += 1;
                if let Some(p) = u.packet.get() {
                    if !packets.contains(&p) {
                        packets.push(p);
                    }
                }
                if !u.filler {
                    let lead_back = if self.cfg.mode.uses_dtq() {
                        self.lead_back_way(id)
                    } else {
                        self.waylog.get(u.seq).map(|r| r.back_way)
                    };
                    if lead_back == u.back_way.map(usize::from) {
                        violated = true;
                    }
                }
            }
        }
        if lead_n == 0 || trail_n == 0 {
            self.stats.single_ctx_issue_cycles += 1;
        }
        if violated && lead_n > 0 && trail_n > 0 {
            self.stats.lt_interference_cycles += 1;
        }
        if violated && packets.len() > 1 {
            self.stats.tt_interference_cycles += 1;
        }
        self.scratch.packets = packets;
    }

    /// Allocates DTQ entries for this cycle's leading packet, in issue
    /// order, marking packet boundaries.
    ///
    /// Safe-shuffle's correctness rests on packet members being mutually
    /// independent. Split stores are the one way a dependent pair can
    /// co-issue (a store and its data producer), so the packet is broken
    /// before any instruction whose source matches an earlier same-cycle
    /// destination.
    fn allocate_dtq_entries(&mut self, issued: &[UopId]) {
        if !self.cfg.mode.uses_dtq() {
            return;
        }
        // Group = split stores whose data arrived this cycle (older, first)
        // plus this cycle's issued leading instructions — except stores
        // still awaiting data, which join the packet of their capture
        // cycle. This keeps the DTQ in *dependence-complete* order, which
        // is what safe-shuffle's within-packet-independence and
        // across-packet-ordering guarantees actually require.
        let mut leading = std::mem::take(&mut self.scratch.leading);
        leading.clear();
        leading.extend(issued.iter().copied().filter(|&id| usize::from(self.slab.at(id).ctx) == LEADING));
        let n = leading.len();
        if n == 0 {
            self.scratch.leading = leading;
            return;
        }
        // Compute packet-boundary positions (break *before* index i): at a
        // same-group dependence (safety net), at the machine width, and
        // when a class would exceed its FU instance count (late-captured
        // split stores can push a group past what any single cycle could
        // actually co-issue — such a packet could never issue whole).
        let mut breaks = std::mem::take(&mut self.scratch.breaks);
        breaks.clear();
        breaks.resize(n, false);
        let mut dsts = std::mem::take(&mut self.scratch.dsts);
        dsts.clear();
        let mut members = 0usize;
        let mut class_counts = [0usize; 7];
        for (i, &id) in leading.iter().enumerate() {
            let u = self.slab.at(id);
            let class = u.fu.index();
            if members == self.cfg.width
                || class_counts[class] == self.cfg.fu_counts.of(u.fu)
                || u.srcs.iter().flatten().any(|src| dsts.contains(src))
            {
                breaks[i] = true;
                dsts.clear();
                members = 0;
                class_counts = [0; 7];
            }
            if let Some(d) = u.dst {
                dsts.push(d);
            }
            members += 1;
            class_counts[class] += 1;
        }
        let mut packet_id = self.lead_packets;
        for (i, &id) in leading.iter().enumerate() {
            if i > 0 && breaks[i] {
                packet_id += 1;
            }
            let last = i + 1 == n || breaks[i + 1];
            let idx = self.dtq.allocate(last);
            let u = self.slab.at_mut(id);
            u.dtq_index = MaybeSeq::some(idx);
            u.packet = MaybeSeq::some(packet_id);
        }
        self.lead_packets = packet_id + 1;
        self.scratch.leading = leading;
        self.scratch.breaks = breaks;
        self.scratch.dsts = dsts;
    }

    // --------------------------------------------------------------- dispatch

    /// Renames and dispatches up to a machine width of fetched uops; true
    /// if any dispatched.
    fn dispatch(&mut self) -> bool {
        let mut budget = self.cfg.width;
        let atomic = self.cfg.trailing_packet_atomic && self.cfg.mode.uses_dtq();
        // Trailing first: it is the high-IPC drain.
        let order: &[usize] =
            if self.cfg.mode.is_redundant() { &[TRAILING, LEADING] } else { &[LEADING] };
        for &ctx in order {
            while budget > 0 {
                let Some(&id) = self.ctxs[ctx].frontq.front() else { break };
                if ctx == TRAILING && atomic {
                    // Don't start dispatching a packet unless the whole
                    // packet fits in the issue queue and the cycle's
                    // budget: a packet stranded half-in/half-out of a full
                    // queue can never issue atomically (deadlock).
                    let pid = self.slab.at(id).packet;
                    let members = self.ctxs[TRAILING]
                        .frontq
                        .iter()
                        .take_while(|&&m| self.slab.at(m).packet == pid)
                        .count();
                    if self.iq.free_slots() < members || budget < members {
                        break;
                    }
                }
                if !self.try_rename_dispatch(ctx, id) {
                    break;
                }
                self.ctxs[ctx].frontq.pop_front();
                budget -= 1;
            }
        }
        budget < self.cfg.width
    }

    /// Renames and dispatches one uop; false = structural stall.
    fn try_rename_dispatch(&mut self, ctx: usize, id: UopId) -> bool {
        if self.iq.is_full() {
            return false;
        }
        // Reserve one machine width of issue-queue entries for the
        // trailing thread: a leading thread stalled at commit (full store
        // buffer / DTQ) must never be able to lock the trailing thread —
        // the only thing that can unblock it — out of the issue queue.
        if ctx == LEADING
            && self.cfg.mode.is_redundant()
            && self.iq.free_slots() <= self.cfg.width
        {
            return false;
        }
        let u = self.slab.at(id);
        let filler = u.filler;
        let (seq, inst, mem_seq) = (u.seq, u.inst, u.mem_seq);
        let lead_srcs = u.lead_srcs;
        let lead_dst = u.lead_dst;
        let trailing_dtq = ctx == TRAILING && self.cfg.mode.uses_dtq();

        if !filler {
            // Window checks.
            if !self.ctxs[ctx].al.can_allocate(seq) {
                return false;
            }
            if inst.is_mem() {
                if ctx == LEADING || !trailing_dtq {
                    if self.ctxs[ctx].lsq.is_full() {
                        return false;
                    }
                } else {
                    // Virtual→physical LSQ window for the DTQ trailing thread.
                    let m = mem_seq.get().expect("trailing mem op carries mem_seq");
                    if m - self.ctxs[ctx].committed_mem >= self.cfg.lsq as u64 {
                        return false;
                    }
                }
            }
            // Register availability.
            let needs_reg = if trailing_dtq { lead_dst.is_some() } else { inst.dst().is_some() };
            if needs_reg && self.ctxs[ctx].regs.free_count() == 0 {
                return false;
            }
        }

        // All checks passed: mutate.
        if !filler {
            if trailing_dtq {
                // A store's *data* source is not renamed here: the DTQ is
                // in leading issue order, and a split store can issue (and
                // therefore appear in the DTQ) before its data producer,
                // so the issue-time map could be stale. The trailing store
                // instead reads its data at commit through the second
                // (program-order) rename table, where the producer is
                // guaranteed committed.
                let srcs = if inst.is_store() {
                    [lead_srcs[0].map(|lp| self.tmap.lookup(lp)), None]
                } else {
                    [
                        lead_srcs[0].map(|lp| self.tmap.lookup(lp)),
                        lead_srcs[1].map(|lp| self.tmap.lookup(lp)),
                    ]
                };
                let dst = lead_dst.map(|lp| {
                    let t = self.ctxs[ctx].regs.alloc().expect("checked free_count");
                    self.tmap.update(lp, t);
                    t
                });
                if let Some(t) = dst {
                    // Freeing goes through the program-order table, so a
                    // corrupted trailing decode can free a register a
                    // younger resident still reads (the pair checks flag
                    // it at commit). Reallocating it makes that reader
                    // wait again, as the register file's ready bit says.
                    self.iq.unwake(true, t);
                }
                let u = self.slab.at_mut(id);
                u.srcs = srcs;
                u.dst = dst;
            } else {
                let mut srcs = [None, None];
                for (i, r) in inst.srcs().enumerate() {
                    if !r.is_zero() {
                        srcs[i] = Some(self.ctxs[ctx].regs.lookup(r));
                    }
                }
                let dst_pair = inst.dst().map(|r| {
                    self.ctxs[ctx].regs.rename_dst(r).expect("checked free_count")
                });
                let u = self.slab.at_mut(id);
                u.srcs = srcs;
                if let Some((new, old)) = dst_pair {
                    u.dst = Some(new);
                    u.old_dst = Some(old);
                }
            }
            self.ctxs[ctx].al.allocate(seq, id);
            if inst.is_mem() && (ctx == LEADING || !trailing_dtq) {
                self.ctxs[ctx].lsq.allocate(id, seq, inst.is_store(), inst.mem_bytes().unwrap());
            }
        }
        let u = self.slab.at_mut(id);
        u.stage = Stage::InQueue;
        let u = self.slab.at(id);
        let regs = &self.ctxs[ctx].regs;
        // Split store: only the address operand gates issue; the data
        // operand is captured at completion.
        let gating = if u.inst.is_store() { [u.srcs[0], None] } else { u.srcs };
        let mut r = Resident::new(id, u.fu, ctx == TRAILING, u.filler, u.packet.get())
            .gated_on(gating, |p| regs.is_ready(p));
        if u.inst.is_load() {
            if ctx == LEADING {
                r = r.load(u.seq);
            } else if let Some(ls) = u.load_seq.get() {
                r = r.load(ls);
            }
        }
        self.iq.insert(r).expect("checked is_full");
        self.trace_uop(FlightKind::Dispatch, id);
        true
    }

    // ---------------------------------------------------------------- shuffle

    /// Consumes complete DTQ packets, shuffles them, and refills the
    /// trailing fetch queue. Runs well off the critical path (§4.6).
    ///
    /// True if it took anything from the DTQ (a packet, a harvest, or
    /// squashed entries it compacted away).
    fn shuffle_stage(&mut self) -> bool {
        let (dtq_len, packets) = (self.dtq.len(), self.dtq.packets_popped());
        while self.fetchq_packets.len() < 4 {
            let Some(packet) = self.dtq.pop_packet() else { break };
            self.shuffle_packet(packet);
        }
        // Starvation escape: a commit-stalled entry (e.g., a store
        // waiting on the full store buffer, which only trailing commits
        // can drain) can wedge the queue's head while committed entries
        // sit behind it. Harvest those committed entries — provably
        // independent of everything pending ahead of them — as
        // single-instruction packets (they are not mutually independent,
        // so they must not be shuffled or issue-grouped).
        if self.fetchq_packets.is_empty() && self.ctxs[TRAILING].frontq.is_empty() {
            if let Some(harvest) = self.dtq.pop_committed_starved(self.cfg.width) {
                for p in harvest {
                    // One instruction per packet: a singleton is trivially
                    // shuffle-safe, so it still gets spatial diversity.
                    self.shuffle_packet(vec![p]);
                }
            }
        }
        (dtq_len, packets) != (self.dtq.len(), self.dtq.packets_popped())
    }

    fn shuffle_packet(&mut self, packet: Vec<DtqPayload>) {
        let outcome = if !self.cfg.mode.shuffles() {
            no_shuffle(packet)
        } else {
            match self.cfg.shuffle_algo {
                ShuffleAlgo::Greedy => {
                    safe_shuffle(packet, self.cfg.width, &self.cfg.fu_counts)
                }
                ShuffleAlgo::Exhaustive => {
                    exhaustive_shuffle(packet, self.cfg.width, &self.cfg.fu_counts)
                }
            }
        };
        self.stats.shuffle_splits += outcome.splits;
        self.stats.shuffle_nops += outcome.nops;
        self.stats.shuffle_forced += outcome.forced;
        self.stats.shuffle_packets += outcome.packets.len() as u64;
        for p in outcome.packets {
            self.fetchq_packets.push_back(p);
        }
    }

    // ------------------------------------------------------------------ fetch

    fn fetch(&mut self) {
        if !self.cfg.mode.is_redundant() {
            self.fetch_leading();
            return;
        }
        let slack =
            self.stats.committed[LEADING].saturating_sub(self.ctxs[TRAILING].fetched_real);
        let trailing_ready = !self.halted[TRAILING]
            && if self.cfg.mode.uses_dtq() {
                self.fetchq_packets
                    .front()
                    .map(|p| {
                        p.len() <= self.cfg.fetch_queue - self.ctxs[TRAILING].frontq.len()
                    })
                    .unwrap_or(false)
            } else {
                self.ctxs[TRAILING].frontq.len() < self.cfg.fetch_queue
                    && !self.ctxs[TRAILING].fetch_halted
            };
        // The slack target yields the fetch slot to the leading thread, but
        // a blocked leading frontend (full fetch queue, fetched halt) cedes
        // the slot so trailing work hides under leading stalls — and so the
        // trailing thread can always drain a full store buffer (deadlock
        // freedom).
        let leading_blocked = self.halted[LEADING]
            || self.ctxs[LEADING].fetch_halted
            || self.ctxs[LEADING].frontq.len() >= self.cfg.fetch_queue;
        let want_trailing = trailing_ready && (slack >= self.cfg.slack || leading_blocked);
        if want_trailing {
            if self.cfg.mode.uses_dtq() {
                self.fetch_trailing_packet();
            } else {
                self.fetch_icache(TRAILING);
            }
        } else if !self.halted[LEADING] {
            self.fetch_leading();
        }
    }

    fn fetch_leading(&mut self) {
        if !self.ctxs[LEADING].fetch_halted {
            self.fetch_icache(LEADING);
        }
    }

    /// Fetches one aligned group from the I-cache for `ctx` (leading
    /// always; trailing in SRT mode, predicted by the BOQ).
    fn fetch_icache(&mut self, ctx: usize) {
        if self.cycle < self.ctxs[ctx].fetch_stall_until || self.ctxs[ctx].fetch_halted {
            return;
        }
        let width = self.cfg.width as u64;
        let mut pc = self.ctxs[ctx].fetch_pc;

        // One I-cache access per group; a miss stalls fetch until refill.
        let lat = self.mem_sys.access_instr(pc);
        if lat > self.cfg.mem.l1i.hit_latency {
            self.ctxs[ctx].fetch_stall_until = self.cycle + lat;
            return;
        }

        let slots_left = width - ((pc >> 2) % width);
        for _ in 0..slots_left {
            if self.ctxs[ctx].frontq.len() >= self.cfg.fetch_queue {
                break;
            }
            let front_way = ((pc >> 2) % width) as usize;
            let word = self.mem.read_u32(pc);
            let raw = self.plan.apply(FaultSite::Frontend { way: front_way }, word as u64) as u32;
            let inst = decode(raw).unwrap_or(Inst::Nop);
            // `word` (not `raw`) is what the DTQ will carry: the trailing
            // copy applies its own way's corruption to the pristine bits.

            // SRT trailing: control flow is predicted by the BOQ; stall at
            // a branch whose outcome has not arrived.
            let mut boq_next: Option<u64> = None;
            if ctx == TRAILING && inst.is_control() {
                match self.boq.pop() {
                    Some(e) => boq_next = Some(e.next_pc),
                    None => break,
                }
            }

            let seq = self.ctxs[ctx].counters[0];
            let mut u = Uop::new(self.next_uid, ctx, seq, pc, inst);
            u.pristine = word;
            self.next_uid += 1;

            // Sequence counters (snapshot carried for squash recovery).
            let mut c = self.ctxs[ctx].counters;
            c[0] += 1;
            if inst.is_load() {
                u.load_seq = MaybeSeq::some(c[1]);
                c[1] += 1;
            }
            if inst.is_store() {
                u.store_seq = MaybeSeq::some(c[2]);
                c[2] += 1;
            }
            if inst.is_mem() {
                u.mem_seq = MaybeSeq::some(c[3]);
                c[3] += 1;
            }
            u.cnt_after = c;
            self.ctxs[ctx].counters = c;
            u.front_way = front_way as u8;

            // Branch prediction / next-pc selection.
            let fall = pc.wrapping_add(4);
            let pred = if ctx == TRAILING {
                boq_next.unwrap_or(fall)
            } else {
                match inst {
                    Inst::Branch { offset, .. } => {
                        u.ghist_snapshot = self.gshare.history();
                        let taken = self.gshare.predict(pc);
                        self.gshare.push_history(taken);
                        if taken {
                            pc.wrapping_add(offset as i64 as u64)
                        } else {
                            fall
                        }
                    }
                    Inst::Jal { rd, offset } => {
                        if rd.index() == 1 {
                            self.ras.push(fall);
                        }
                        pc.wrapping_add(offset as i64 as u64)
                    }
                    Inst::Jalr { rd, rs1, .. } => {
                        let target = if rs1.index() == 1 && rd.index() == 0 {
                            self.ras.pop().or_else(|| self.btb.lookup(pc)).unwrap_or(fall)
                        } else {
                            if rd.index() == 1 {
                                self.ras.push(fall);
                            }
                            self.btb.lookup(pc).unwrap_or(fall)
                        };
                        target & !3u64
                    }
                    _ => fall,
                }
            };
            u.pred_next_pc = pred;
            let is_halt = matches!(inst, Inst::Halt);

            let id = self.slab.insert(u);
            self.ctxs[ctx].frontq.push_back(id);
            self.stats.fetched[ctx] += 1;
            self.ctxs[ctx].fetched_real += 1;
            self.trace_uop(FlightKind::Fetch, id);

            if is_halt {
                self.ctxs[ctx].fetch_halted = true;
                self.ctxs[ctx].fetch_pc = fall;
                return;
            }
            if pred != fall {
                // Redirect: group ends at a (predicted-)taken control op.
                self.ctxs[ctx].fetch_pc = pred;
                return;
            }
            pc = fall;
        }
        self.ctxs[ctx].fetch_pc = pc;
    }

    /// Fetches one shuffled packet for the BlackJack trailing thread.
    fn fetch_trailing_packet(&mut self) {
        let Some(packet) = self.fetchq_packets.pop_front() else { return };
        let packet_id = self.trail_packets;
        self.trail_packets += 1;
        if self.cfg.trailing_packet_atomic {
            let occupied = packet.iter().filter(|s| !matches!(s, Slot::Hole)).count();
            // A memberless packet would never be removed at issue; skip it
            // so the fixed-capacity table's live-entry bound holds.
            if occupied > 0 {
                self.trail_packet_total.insert(packet_id, occupied);
            }
        }
        for (slot, s) in packet.into_iter().enumerate() {
            match s {
                Slot::Hole => {}
                Slot::Nop(ty) => {
                    let mut u = Uop::new(self.next_uid, TRAILING, u64::MAX, 0, Inst::Nop);
                    self.next_uid += 1;
                    u.filler = true;
                    u.fu = ty;
                    u.front_way = slot as u8;
                    u.packet = MaybeSeq::some(packet_id);
                    let id = self.slab.insert(u);
                    self.ctxs[TRAILING].frontq.push_back(id);
                    self.trace_uop(FlightKind::Fetch, id);
                }
                Slot::Inst(p) => {
                    // The DTQ payload RAM read: a defective entry (its
                    // circular-RAM slot is the program-order sequence mod
                    // capacity) hands the trailing thread a corrupted copy
                    // of the pristine word, *before* the trailing fetch
                    // way's own corruption applies.
                    let entry = (p.seq % self.cfg.dtq as u64) as usize;
                    let word = self.plan.apply(FaultSite::DtqPayload { entry }, p.raw as u64) as u32;
                    let raw = self.plan.apply(FaultSite::Frontend { way: slot }, word as u64) as u32;
                    let inst = decode(raw).ok();
                    // A decode that disagrees with the leading structure
                    // (class or memory behaviour) would derail the virtual
                    // resource allocation; the allocation logic flags it.
                    let structural_match = inst
                        .map(|i| {
                            i.fu_type() == p.fu
                                && i.is_load() == p.load_seq.is_some()
                                && i.is_store() == p.store_seq.is_some()
                        })
                        .unwrap_or(false);
                    if !structural_match {
                        self.detect(DetectionKind::ProgramOrderMismatch, p.seq, p.pc);
                        return;
                    }
                    let inst = inst.expect("structural match implies decode");
                    let mut u = Uop::new(self.next_uid, TRAILING, p.seq, p.pc, inst);
                    self.next_uid += 1;
                    u.front_way = slot as u8;
                    u.packet = MaybeSeq::some(packet_id);
                    u.lead_srcs = p.lead_srcs;
                    u.lead_dst = p.lead_dst;
                    u.lead_front_way = p.front_way;
                    u.lead_back_way = p.back_way;
                    u.pred_next_pc = p.next_pc;
                    u.load_seq = p.load_seq;
                    u.store_seq = p.store_seq;
                    u.mem_seq = p.mem_seq;
                    let id = self.slab.insert(u);
                    self.ctxs[TRAILING].frontq.push_back(id);
                    self.stats.fetched[TRAILING] += 1;
                    self.ctxs[TRAILING].fetched_real += 1;
                    self.trace_uop(FlightKind::Fetch, id);
                }
            }
        }
    }
}

/// A frozen, restore-exact copy of a [`Core`] mid-simulation, taken with
/// [`Core::snapshot`].
///
/// The snapshot owns a copy of the entire simulation state, so it
/// outlives the core it came from and can mint any number of independent
/// continuations. Cache lines, the memory image and the BTB table are
/// shared copy-on-write ([`blackjack_mem::Cache`], [`PagedMem`],
/// [`Btb`]): the snapshot, its donor and every continuation copy a 4-set
/// cache chunk (and its group's four chunk handles) only when they first
/// access it, a 256-byte memory block (and its page's block handles) only
/// when they first write it, and the BTB table only when an update
/// changes an entry. Of the rest, the copy holds only what is in flight:
/// the uop slab up to its last live slot ([`UopSlab`]) and each active
/// list's window ([`ActiveList`]). A snapshot chain's donors also leave
/// the fault plan behind ([`Core::snapshot_without_plan`]). On equake,
/// each donor of the BlackJack chain holds about 77 KiB of its own,
/// the 2,496-byte `Core` included, besides its page map and cache
/// handle table; the chain's 21 donors keep 4.2 MiB of block, page-table
/// and chunk versions between them (DESIGN §2.11). Two uses:
///
/// - [`CoreSnapshot::restore`] resumes the *same* run — stepping the
///   restored core is bit-identical to stepping the original.
/// - [`CoreSnapshot::fork`] substitutes a fault plan armed *after* the
///   snapshot point — the fork-at-injection path. Because every fault
///   hook is inert before the plan's arming cycle, a run forked at cycle
///   `C` with a plan armed at `C+1` is bit-identical to a cold run from
///   cycle 0 with the same armed plan: both simulate cycles `1..=C`
///   fault-free and first corrupt at `C+1`.
#[derive(Clone)]
pub struct CoreSnapshot {
    core: Core,
}

impl CoreSnapshot {
    /// The cycle the snapshot was taken at.
    pub fn cycle(&self) -> u64 {
        self.core.cycle
    }

    /// A fresh core continuing the snapshotted run, fault plan unchanged.
    pub fn restore(&self) -> Core {
        self.core.clone()
    }

    /// A fresh core continuing from the snapshot point under `plan` — the
    /// injection fork.
    ///
    /// # Panics
    ///
    /// Panics if the plan would already have fired inside the simulated
    /// prefix (non-empty plan with `arm_cycle() <= cycle()` on a snapshot
    /// past cycle 0) — such a fork could not be equivalent to a
    /// replay-from-zero run.
    pub fn fork(&self, plan: FaultPlan) -> Core {
        assert!(
            self.core.cycle == 0 || plan.is_empty() || plan.arm_cycle() > self.core.cycle,
            "fault plan arms at cycle {} but the snapshot already simulated {} fault-free cycles",
            plan.arm_cycle(),
            self.core.cycle,
        );
        let mut core = self.core.clone();
        core.plan = plan;
        core
    }
}

#[cfg(test)]
mod tests {
    use super::PacketTotals;
    use crate::{Core, CoreConfig, Mode, RunOutcome};
    use blackjack_faults::FaultPlan;
    use blackjack_isa::asm::assemble;

    #[test]
    fn packet_totals_fills_to_exactly_the_bound() {
        let mut pt = PacketTotals::new(4, 4);
        for pid in 0..8u64 {
            pt.insert(pid, 3);
        }
        assert_eq!(pt.len(), 8);
        assert_eq!(pt.get(5), Some(3));
        // Removing frees a slot for a new packet at the bound.
        pt.remove(0);
        pt.insert(8, 2);
        assert_eq!(pt.len(), 8);
    }

    #[test]
    fn packet_totals_overflow_names_the_config() {
        let err = std::panic::catch_unwind(|| {
            let mut pt = PacketTotals::new(2, 3);
            for pid in 0..6u64 {
                pt.insert(pid, 1);
            }
        })
        .expect_err("the sixth insert must violate the bound");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(msg.contains("live-packet bound exceeded"), "{msg}");
        assert!(msg.contains("fetch_queue=2"), "{msg}");
        assert!(msg.contains("issue_queue=3"), "{msg}");
    }

    #[test]
    fn boundary_queue_config_runs_blackjack() {
        // The tightest *workable* config for width 4: at
        // issue_queue == width the leading thread never dispatches,
        // because dispatch keeps one width of entries free as the
        // trailing thread's reserve, so width + 1 is the boundary in
        // every redundant mode, SRT included (`CoreConfig::validate`
        // rejects the narrower queue). The live-packet bound is then
        // fetch_queue + issue_queue = 9, the smallest that completes,
        // which exercises the PacketTotals invariant hardest.
        let mut cfg = CoreConfig::with_mode(Mode::BlackJack);
        cfg.fetch_queue = cfg.width;
        cfg.issue_queue = cfg.width + 1;
        let prog = assemble(
            ".text
                li   x1, 64
                li   x2, 0
                li   x10, 0x200000
            loop:
                addi x2, x2, 1
                mul  x3, x2, x2
                sd   x3, 0(x10)
                blt  x2, x1, loop
                halt
            ",
        )
        .unwrap();
        let mut core = Core::new(cfg, &prog, FaultPlan::new());
        let out = core.run(1_000_000);
        assert_eq!(out, RunOutcome::Completed);
        assert_eq!(core.arch_reg(2), 64);
    }
}
