//! The cycle-level out-of-order core, with CDF and PRE.
//!
//! One `Core` simulates one program on one configuration. The per-cycle
//! stage order is (backwards through the pipeline, classic cycle-level
//! style): retire → complete → schedule/execute → rename/dispatch →
//! (flush | fetch) → bookkeeping. Architectural state (the memory image and
//! the retired register values reachable through the RAT) is kept exactly:
//! integration tests compare it against the functional executor for every
//! workload and mode.

use crate::cdf_engine::{CdfEngine, CmqEntry, DbqEntry};
use crate::config::{BoundaryKind, CoreConfig, CoreMode, SchedulerKind};
use crate::fill_buffer::FbEntry;
use crate::frontend::{DecodePipe, FetchedUop};
use crate::lsq::{ForwardResult, Lsq};
use crate::memport::{MemSide, MessagePort};
use crate::partition::{PartitionController, Resize};
use crate::pre::RunaheadState;
use crate::regfile::{Rat, RatKind, RegFile, RenameLog, RenameLogEntry};
use crate::rob::PartitionedQueue;
use crate::rs::{PortBudget, PortClass, ReservationStations};
use crate::sched::Scheduler;
use crate::stats::CoreStats;
use crate::types::{DynUop, InstrPool, PhysReg, Seq, Stream, UopState};
use cdf_bpred::{Btb, BtbConfig, DirectionPredictor, Prediction, TageScL};
use cdf_energy::{Activity, EnergyModel, EnergyParams};
use cdf_isa::{AluOp, ArchReg, ArchState, MemoryImage, Op, Pc, Program, NUM_ARCH_REGS};
use cdf_mem::{AccessKind, AccessResult, HitLevel, MemoryHierarchy, MultiCoreMemory};
use std::cell::RefCell;
use std::collections::{BinaryHeap, VecDeque};
use std::rc::Rc;

/// A flush request raised during a cycle; the oldest target wins.
#[derive(Clone, Debug)]
struct Flush {
    /// Everything with `seq > target` is removed.
    target: Seq,
    /// Where fetch restarts.
    redirect: Pc,
    kind: FlushKind,
}

#[derive(Clone, Debug, PartialEq, Eq)]
enum FlushKind {
    /// The branch at `target` stays; recover the predictor with the actual
    /// direction.
    Mispredict { actual: bool },
    /// Memory-ordering violation at the flushed load (restart regular mode).
    MemOrder,
    /// CDF register dependence (poison) violation at the flushed uop.
    Poison,
}

/// The simulated core. See the [crate docs](crate) for an example.
#[derive(Debug)]
pub struct Core<'p> {
    program: &'p Program,
    cfg: CoreConfig,
    now: u64,

    // Architectural + memory substrate.
    mem_image: MemoryImage,
    memsys: MemSide,
    predictor: TageScL,
    btb: Btb,
    energy: EnergyModel,

    // Regular frontend.
    fetch_pc: Pc,
    next_seq: u64,
    fetch_stalled_until: u64,
    last_fetch_line: Option<u64>,
    /// Fetch reached `Halt` (or left the program on a wrong path) and waits
    /// for a flush.
    fetch_blocked: bool,
    decode: DecodePipe,

    // Backend.
    pool: InstrPool,
    next_uid: u64,
    rob: PartitionedQueue<Seq>,
    rs: ReservationStations,
    lsq: Lsq,
    prf: RegFile,
    rat: Rat,
    crat: Rat,
    rlog: RenameLog,
    commit_seq: u64,
    completions: BinaryHeap<std::cmp::Reverse<(u64, u64, u64)>>,
    pending_flush: Option<Flush>,

    /// Event-driven wakeup/select state (see [`crate::sched`]). Maintained
    /// only when `event_sched` is set.
    sched: Scheduler,
    /// The configured scheduler is [`SchedulerKind::EventDriven`]; false
    /// selects the reference scan and skips all event bookkeeping.
    event_sched: bool,
    /// Reused scratch for draining waiter lists in `complete`.
    wake_buf: Vec<(u64, u64)>,

    // CDF mode state.
    cdf: Option<CdfEngine>,
    cdf_fetch_mode: bool,
    cdf_entry_seq: u64,
    cdf_end_seq: Option<u64>,
    crit_fetch_active: bool,
    crit_fetch_pc: Pc,
    crit_seq_cursor: u64,
    crit_pending: VecDeque<FetchedUop>,
    crit_buffer: VecDeque<(u64, FetchedUop)>,
    crat_ready: bool,
    reg_renamed_upto: u64,
    crit_renamed_upto: u64,

    // Dynamic partitioning controllers.
    pc_rob: PartitionController,
    pc_lq: PartitionController,
    pc_sq: PartitionController,

    /// A rename was blocked by a full backend structure this cycle.
    rename_blocked: bool,
    /// Commit-head seq of the last runahead episode: a stalling load gets
    /// exactly one runahead budget, however often the stall condition
    /// flickers while it drains.
    last_runahead_head: u64,

    /// The initial critical-partition split has been applied for the
    /// current CDF engagement (afterwards only the §3.5 controllers move
    /// capacity).
    partition_seeded: bool,

    /// Memory-dependence predictor: 2-bit confidence per load PC that the
    /// load conflicts with an in-flight older store. Predicted-conflicting
    /// loads wait for older store addresses instead of speculating past them
    /// (store-set-lite; prevents per-iteration ordering violations on
    /// read-after-write-through-memory loops).
    mdp: Vec<u8>,

    // PRE.
    runahead: RunaheadState,

    /// Optional pipeline trace (see [`crate::trace`]).
    pipe_trace: Option<crate::trace::PipeTrace>,

    /// Optional telemetry collectors (see [`crate::telemetry`]). `None`
    /// keeps the cycle path free of telemetry work entirely.
    telemetry: Option<crate::telemetry::Telemetry>,
    /// Optional criticality-provenance diagnostics (see [`crate::diag`]).
    /// `None` — the default — keeps every pipeline stage free of provenance
    /// observation work; enabling it never perturbs simulated state.
    diag: Option<crate::diag::CdfDiagnostics>,
    /// Optional host-side self-profiler (see [`crate::prof`]). `None` — the
    /// default — costs one null check per stage per cycle; enabling it only
    /// reads the monotonic clock, never simulated state.
    prof: Option<Box<crate::prof::HostProf>>,
    /// The cycle and retired-uop count at [`enable_prof`](Self::enable_prof),
    /// which a finished profile counts from.
    prof_origin: (u64, u64),
    /// Optional lockstep retirement observer (see [`crate::observer`]).
    /// `None` — the default — keeps the retire path free of observer work
    /// and of the structural invariant sweep entirely.
    observer: Option<Box<dyn crate::observer::RetireObserver + 'p>>,
    /// A uop was dispatched into the backend this cycle (cycle-accounting
    /// input; reset in `post_cycle`).
    dispatched_this_cycle: bool,
    /// Cycles up to this clock value are attributed to flush recovery (set
    /// when a flush is applied; read only by telemetry).
    flush_recovery_until: u64,

    // Bookkeeping.
    stats: CoreStats,
    halted: bool,
    last_retire_cycle: u64,
    /// The no-retirement diagnostic, once the pipeline has stalled.
    stalled: Option<String>,
    in_stall_episode: bool,
}

impl<'p> Core<'p> {
    /// Builds a core over `program` with the given initial data memory.
    /// The private memory system sits behind the boundary selected by
    /// `cfg.boundary` (request/response by default; the direct-call
    /// reference for equivalence runs).
    pub fn new(program: &'p Program, mem: MemoryImage, cfg: CoreConfig) -> Core<'p> {
        let hierarchy = MemoryHierarchy::with_model(cfg.mem.clone(), cfg.mem_model);
        let memsys = match cfg.boundary {
            BoundaryKind::RequestResponse => MemSide::Message(MessagePort::new(hierarchy)),
            BoundaryKind::ReferenceDirect => MemSide::Direct(hierarchy),
        };
        Core::with_memsys(program, mem, cfg, memsys)
    }

    /// Builds core `core_id` of a multi-core system: its memory requests go
    /// to `sys`, the [`MultiCoreMemory`] it shares with its co-runners
    /// (private L1 slice, shared LLC/MSHR pool/DRAM). `sys` was built from
    /// one core's `cfg.mem` and `cfg.mem_model` (the first core's, in
    /// [`MultiCore::new`](crate::MultiCore::new)), so this core's must
    /// match them; `cfg.boundary` is ignored (a shared port is
    /// message-passing by construction).
    pub fn new_shared(
        program: &'p Program,
        mem: MemoryImage,
        cfg: CoreConfig,
        core_id: usize,
        sys: Rc<RefCell<MultiCoreMemory>>,
    ) -> Core<'p> {
        let memsys = MemSide::shared(core_id, sys);
        Core::with_memsys(program, mem, cfg, memsys)
    }

    fn with_memsys(
        program: &'p Program,
        mem: MemoryImage,
        cfg: CoreConfig,
        memsys: MemSide,
    ) -> Core<'p> {
        let mut prf = RegFile::new(cfg.phys_regs, cfg.phys_regs / 2);
        let mut init = [PhysReg(0); NUM_ARCH_REGS];
        for slot in init.iter_mut() {
            let p = prf.alloc(false).expect("PRF holds initial mappings");
            prf.write(p, 0);
            *slot = p;
        }
        let rat = Rat::new(init);
        let crat = rat.clone();
        let cdf = match &cfg.mode {
            CoreMode::Baseline => None,
            CoreMode::BaselineClassify => Some(CdfEngine::new(crate::config::CdfConfig {
                // Classification measures what *is* critical; the density
                // guards govern what CDF chooses to store, not Fig. 1.
                apply_density_guards: false,
                ..crate::config::CdfConfig::default()
            })),
            CoreMode::Cdf(c) => Some(CdfEngine::new(c.clone())),
            CoreMode::Pre(p) => Some(CdfEngine::new(p.cdf.clone())),
        };
        let cdf_cfg = cfg.cdf_config().cloned().unwrap_or_default();
        let energy = EnergyModel::new(EnergyParams::default().scaled_for_window(cfg.rob));
        Core {
            memsys,
            predictor: TageScL::new(cfg.tage.clone()),
            btb: Btb::new(BtbConfig::default()),
            energy,
            mem_image: mem,
            fetch_pc: Pc::new(0),
            next_seq: 1,
            fetch_stalled_until: 0,
            last_fetch_line: None,
            fetch_blocked: false,
            decode: DecodePipe::new(cfg.decode_latency, cfg.fetch_width * 8),
            pool: InstrPool::with_slots(cfg.pool_slots()),
            next_uid: 1,
            rob: PartitionedQueue::new(cfg.rob, 0, 16.min(cfg.rob / 4)),
            rs: ReservationStations::new(cfg.rs, cfg.rs.saturating_sub(32).max(cfg.rs / 2)),
            lsq: Lsq::new(cfg.lq, 0, cfg.sq, 0, 0),
            prf,
            rat,
            crat,
            rlog: RenameLog::new(),
            commit_seq: 1,
            completions: BinaryHeap::new(),
            pending_flush: None,
            sched: Scheduler::new(cfg.phys_regs),
            event_sched: cfg.scheduler == SchedulerKind::EventDriven,
            wake_buf: Vec::new(),
            cdf,
            cdf_fetch_mode: false,
            cdf_entry_seq: 0,
            cdf_end_seq: None,
            crit_fetch_active: false,
            crit_fetch_pc: Pc::new(0),
            crit_seq_cursor: 0,
            crit_pending: VecDeque::new(),
            crit_buffer: VecDeque::new(),
            crat_ready: false,
            reg_renamed_upto: 0,
            crit_renamed_upto: 0,
            pc_rob: PartitionController::new(cdf_cfg.partition_threshold, cdf_cfg.rob_step),
            pc_lq: PartitionController::new(cdf_cfg.partition_threshold, cdf_cfg.lsq_step),
            pc_sq: PartitionController::new(cdf_cfg.partition_threshold, cdf_cfg.lsq_step),
            mdp: vec![0; 256],
            rename_blocked: false,
            last_runahead_head: u64::MAX,
            partition_seeded: false,
            pipe_trace: None,
            telemetry: None,
            diag: None,
            prof: None,
            prof_origin: (0, 0),
            observer: None,
            dispatched_this_cycle: false,
            flush_recovery_until: 0,
            runahead: RunaheadState::new(),
            stats: CoreStats::default(),
            halted: false,
            last_retire_cycle: 0,
            stalled: None,
            in_stall_episode: false,
            now: 0,
            program,
            cfg,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &CoreConfig {
        &self.cfg
    }

    /// Statistics so far.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// The private memory hierarchy (traffic and cache statistics).
    ///
    /// # Panics
    ///
    /// Panics for a core built with [`new_shared`](Self::new_shared) —
    /// shared-system statistics are per-core-attributed on the
    /// [`MultiCoreMemory`] itself.
    pub fn hierarchy(&self) -> &MemoryHierarchy {
        self.memsys
            .hierarchy()
            .expect("private memory system (shared cores expose stats via MultiCoreMemory)")
    }

    /// The Critical Uop Cache, when the mode has one (inspection/examples).
    pub fn uop_cache(&self) -> Option<&crate::uop_cache::CriticalUopCache> {
        self.cdf.as_ref().map(|c| &c.traces)
    }

    /// The Mask Cache, when the mode has one.
    pub fn mask_cache(&self) -> Option<&crate::mask_cache::MaskCache> {
        self.cdf.as_ref().map(|c| &c.masks)
    }

    /// Pre-installs compiler-provided critical chains (the §6 augmentation;
    /// see [`crate::static_chains`]): the static backward slices of `seeds`
    /// go straight into the Mask Cache and Critical Uop Cache, so CDF mode
    /// can engage on the first traversal instead of waiting for the CCTs and
    /// the first Fill Buffer walk. The runtime machinery still updates and
    /// corrects the seeded chains. No effect outside CDF mode.
    pub fn preinstall_chains(&mut self, seeds: &[cdf_isa::Pc]) {
        if !matches!(self.cfg.mode, CoreMode::Cdf(_)) {
            return;
        }
        let masks = crate::static_chains::static_critical_masks(self.program, seeds, 256);
        let Some(cdf) = &mut self.cdf else { return };
        // The compiler asserts these instructions are delinquent: warm the
        // Critical Count Tables so the first Fill Buffer walks agree with
        // the seeded chains instead of tearing them down as seedless.
        for &pc in seeds {
            if let Some(uop) = self.program.get(pc) {
                for _ in 0..16 {
                    if uop.op.is_load() {
                        cdf.cct_loads.update(pc, true);
                    } else if uop.op.is_cond_branch() {
                        cdf.cct_branches.update(pc, true);
                    }
                }
            }
        }
        for (block, len, mask) in masks {
            if len > 64 {
                continue;
            }
            let merged = cdf.masks.merge(block, mask);
            let chain = cdf.alloc_chain();
            let trace = crate::uop_cache::Trace::from_mask(block, len, merged).with_chain(chain);
            let crit = trace.crit_count();
            if cdf.traces.insert(trace) {
                if let Some(d) = self.diag.as_mut() {
                    d.note_install(chain, block, len, crit, 0);
                }
            } else if let Some(d) = self.diag.as_mut() {
                d.note_install_rejected();
            }
        }
    }

    /// Enables pipeline tracing for the first `limit` sequence numbers (see
    /// [`crate::trace::PipeTrace`]); call before [`run`](Self::run).
    pub fn enable_trace(&mut self, limit: u64) {
        self.pipe_trace = Some(crate::trace::PipeTrace::new(limit));
    }

    /// The collected pipeline trace, if tracing was enabled.
    pub fn pipe_trace(&self) -> Option<&crate::trace::PipeTrace> {
        self.pipe_trace.as_ref()
    }

    /// Enables cycle-accounting telemetry (see [`crate::telemetry`]); call
    /// before [`run`](Self::run). When `cfg.uop_events > 0` and no pipe
    /// trace is active yet, one is enabled over that window so per-stage
    /// uop slices have timestamps to draw from.
    ///
    /// Telemetry never alters simulation results: a telemetry-enabled run
    /// produces bit-identical [`CoreStats`] to a disabled one.
    pub fn enable_telemetry(&mut self, cfg: crate::telemetry::TelemetryConfig) {
        if cfg.uop_events > 0 && self.pipe_trace.is_none() {
            self.pipe_trace = Some(crate::trace::PipeTrace::new(cfg.uop_events));
        }
        self.telemetry = Some(crate::telemetry::Telemetry::new(cfg));
    }

    /// Detaches and returns the telemetry collectors (disabling further
    /// collection) — the harness calls this once the run is over.
    pub fn take_telemetry(&mut self) -> Option<crate::telemetry::Telemetry> {
        self.telemetry.take()
    }

    /// Enables criticality-provenance diagnostics (see [`crate::diag`]):
    /// chain lifecycles, CUC coverage of retired triggers, critical-fetch
    /// accuracy, and miss-initiation lead times. Call before
    /// [`run`](Self::run).
    ///
    /// Diagnostics never alter simulation results: an enabled run produces
    /// bit-identical [`CoreStats`] to a disabled one, and a core without
    /// diagnostics runs zero observation code.
    pub fn enable_diagnostics(&mut self) {
        self.diag = Some(crate::diag::CdfDiagnostics::new());
    }

    /// Detaches and returns the diagnostics (disabling further collection),
    /// finalizing open lead-time observations so histogram totality holds —
    /// the harness calls this once the run is over.
    pub fn take_diagnostics(&mut self) -> Option<crate::diag::CdfDiagnostics> {
        let mut d = self.diag.take();
        if let Some(d) = d.as_mut() {
            d.sample_interval(self.now);
            d.finalize();
        }
        d
    }

    /// Enables host-side self-profiling (see [`crate::prof`]): per-stage
    /// wall-clock attribution, per-subsystem heap/port timers in the memory
    /// system, and per-stage allocation deltas. The profile counts cycles
    /// and retired uops from this call on, so it may follow a warmup.
    ///
    /// Profiling observes only the host — the monotonic clock and the
    /// process allocation counters — and never reads or writes simulated
    /// state: an enabled run produces bit-identical [`CoreStats`] to a
    /// disabled one, and a core without profiling pays one null check per
    /// stage per cycle.
    pub fn enable_prof(&mut self) {
        self.prof = Some(Box::new(crate::prof::HostProf::new()));
        self.prof_origin = (self.now, self.stats.retired);
        self.memsys.enable_prof();
    }

    /// Detaches the raw profiling collector (disabling further collection),
    /// folding the memory system's heap timers into it. Use this when an
    /// outer driver merges several cores' collectors before finalizing;
    /// single-core harnesses usually want [`take_profile`](Self::take_profile).
    pub fn take_prof(&mut self) -> Option<crate::prof::HostProf> {
        let mut p = self.prof.take()?;
        if let Some(m) = self.memsys.take_prof() {
            p.fold_mem(&m);
        }
        Some(*p)
    }

    /// Detaches the profiler and finalizes it into a [`crate::prof::HostProfile`]
    /// against `total_wall_ns`, the harness-measured wall time since
    /// [`enable_prof`](Self::enable_prof) — the profile's totality invariant
    /// (stages + untracked == total) is established here.
    pub fn take_profile(&mut self, total_wall_ns: u64) -> Option<crate::prof::HostProfile> {
        let (cycles0, retired0) = self.prof_origin;
        let cycles = self.now - cycles0;
        let retired = self.stats.retired - retired0;
        self.take_prof()
            .map(|p| p.into_profile(cycles, retired, total_wall_ns))
    }

    /// Attaches a lockstep retirement observer (see [`crate::observer`]):
    /// from now on every retired uop's architectural effects are reported to
    /// it in program order, and the core additionally sweeps its structural
    /// invariants ([`assert_invariants`](Self::assert_invariants)) after
    /// each retirement. Call before [`run`](Self::run).
    ///
    /// Observation never alters simulation results: a run with an observer
    /// attached produces bit-identical [`CoreStats`] to a run without one,
    /// and a core with no observer runs zero observer code.
    pub fn attach_retire_observer(
        &mut self,
        observer: Box<dyn crate::observer::RetireObserver + 'p>,
    ) {
        self.observer = Some(observer);
    }

    /// The retired architectural state: register values read through the RAT
    /// plus the committed memory image. Exact once the program has halted
    /// and the pipeline drained.
    pub fn arch_state(&self) -> ArchState {
        let mut st = ArchState::new(self.mem_image.clone());
        for r in ArchReg::all() {
            let p = self.rat.get(r);
            if self.prf.is_ready(p) {
                st.set_reg(r, self.prf.read(p));
            }
        }
        st
    }

    /// The energy report for the cycles simulated so far (memory-system and
    /// CDF-engine activity counts are folded in at call time).
    pub fn energy_report(&self) -> cdf_energy::EnergyReport {
        let mut model = self.energy.clone();
        let v = self.memsys.view();
        let m = &v.stats;
        model.record(
            Activity::L1Access,
            m.demand_loads + m.demand_stores + m.inst_fetches,
        );
        model.record(Activity::LlcAccess, v.l1d_misses + m.prefetch_reads);
        model.record(Activity::DramAccess, v.dram_reads + v.dram_writes);
        if let Some(cdf) = &self.cdf {
            model.record(Activity::CctOp, cdf.activity.cct_ops);
            model.record(
                Activity::FillBufferOp,
                cdf.activity.fill_pushes + cdf.activity.walk_steps,
            );
            model.record(
                Activity::MaskCacheOp,
                cdf.activity.mask_ops + cdf.masks.merges(),
            );
            model.record(Activity::CriticalUopCacheOp, cdf.activity.uop_cache_ops);
        }
        model.report(self.now)
    }

    /// Runs until the program halts, `max_instructions` retire, or the
    /// pipeline [stalls](Self::stalled). Returns the final statistics (also
    /// available via [`stats`](Self::stats)).
    pub fn run(&mut self, max_instructions: u64) -> CoreStats {
        self.run_bounded(max_instructions, u64::MAX)
    }

    /// Like [`run`](Self::run), but additionally stops once the core clock
    /// reaches `cycle_budget` — the fuel for a sweep watchdog. The caller
    /// can tell the budget ran out because the returned stats have
    /// `halted == false` and `retired < max_instructions`, and
    /// [`stalled`](Self::stalled) is `None`.
    pub fn run_bounded(&mut self, max_instructions: u64, cycle_budget: u64) -> CoreStats {
        while !self.halted
            && self.stalled.is_none()
            && self.stats.retired < max_instructions
            && self.now < cycle_budget
        {
            self.step();
        }
        self.finalize_stats()
    }

    /// Whether the program has halted (fetch hit `Halt` and the pipeline
    /// drained).
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// The diagnostic once the pipeline has gone 200k cycles without
    /// retiring: a simulator bug, never a program property. The run methods
    /// stop there, so the caller can report it as an error.
    pub fn stalled(&self) -> Option<&str> {
        self.stalled.as_deref()
    }

    /// The core clock.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Advances the core by exactly one cycle — the primitive the
    /// round-robin multi-core driver interleaves. [`run_bounded`](Self::run_bounded)
    /// is `step` in a loop followed by [`finalize_stats`](Self::finalize_stats).
    /// It sets [`stalled`](Self::stalled) after 200k cycles without a retirement.
    pub fn step(&mut self) {
        self.cycle();
        if self.now - self.last_retire_cycle >= 200_000 && self.stalled.is_none() {
            self.stalled = Some(format!(
                "no retirement for 200k cycles at cycle {} (commit_seq {}, next_seq {}, \
                 rob {}/{} (crit cap {}), rs {}, cdf_fetch_mode {}, crit_active {}, \
                 cmq {}, dbq {}, pool {}, prf free {}, reg_renamed_upto {})",
                self.now,
                self.commit_seq,
                self.next_seq,
                self.rob.len(),
                self.rob.total_cap(),
                self.rob.crit_cap(),
                self.rs.len(),
                self.cdf_fetch_mode,
                self.crit_fetch_active,
                self.cdf.as_ref().map(|c| c.cmq.len()).unwrap_or(0),
                self.cdf.as_ref().map(|c| c.dbq.len()).unwrap_or(0),
                self.pool.len(),
                self.prf.free_count(),
                self.reg_renamed_upto,
            ));
        }
    }

    /// Closes a run window and returns the statistics: flushes partial
    /// telemetry/diagnostic intervals and folds end-of-run fields into
    /// [`CoreStats`]. Called by [`run_bounded`](Self::run_bounded); multi-core
    /// drivers call it once per core after the lockstep loop.
    pub fn finalize_stats(&mut self) -> CoreStats {
        // End of a run window: flush the partial telemetry interval (so
        // interval deltas sum to the aggregates) and close open episodes.
        if let Some(tel) = self.telemetry.as_mut() {
            tel.flush_window(self.now, &self.stats);
        }
        if let Some(d) = self.diag.as_mut() {
            d.sample_interval(self.now);
        }
        self.stats.halted = self.halted;
        self.stats.cycles = self.now;
        self.stats.walks = self.cdf.as_ref().map(|c| c.walks).unwrap_or(0);
        self.stats.traces_installed = self.cdf.as_ref().map(|c| c.traces_installed).unwrap_or(0);
        self.stats.walks_dropped_by_density =
            self.cdf.as_ref().map(|c| c.walks_dropped).unwrap_or(0);
        self.stats.runahead_episodes = self.runahead.episodes;
        self.stats.runahead_uops = self.runahead.uops_executed;
        self.stats.clone()
    }

    fn byte_addr(&self, pc: Pc) -> u64 {
        pc.byte_addr(self.cfg.code_base)
    }

    fn is_cdf_mode(&self) -> bool {
        matches!(self.cfg.mode, CoreMode::Cdf(_))
    }

    // ------------------------------------------------------------------
    // Cycle.
    // ------------------------------------------------------------------

    fn cycle(&mut self) {
        use crate::prof::Stage;
        self.now += 1;
        let retired_before = self.stats.retired;
        let now = self.now;
        let t = self.prof.as_mut().map(|p| p.begin_cycle(now));
        self.retire();
        let t = self.prof_stage(Stage::Retire, t);
        self.complete();
        let t = self.prof_stage(Stage::Complete, t);
        self.schedule_execute();
        let t = self.prof_stage(Stage::Schedule, t);
        self.rename_dispatch();
        let t = self.prof_stage(Stage::Rename, t);
        if self.pending_flush.is_some() {
            self.apply_flush();
            let t = self.prof_stage(Stage::Flush, t);
            self.post_cycle(retired_before);
            self.prof_stage(Stage::PostCycle, t);
        } else {
            self.fetch_critical();
            self.fetch_regular();
            let t = self.prof_stage(Stage::Fetch, t);
            self.post_cycle(retired_before);
            self.prof_stage(Stage::PostCycle, t);
        }
    }

    /// Closes a stage scope and opens the next one — stages within a cycle
    /// are contiguous, so the end of one is the start of the next.
    #[inline]
    fn prof_stage(
        &mut self,
        stage: crate::prof::Stage,
        t: Option<crate::prof::ProfToken>,
    ) -> Option<crate::prof::ProfToken> {
        match (self.prof.as_mut(), t) {
            (Some(p), Some(t)) => Some(p.end_stage(stage, t)),
            _ => None,
        }
    }

    /// Starts a subsystem scope: the start time when profiling is on and
    /// this cycle is one of `sub`'s timed cycles, `None` otherwise.
    #[inline]
    fn prof_sub_start(&self, sub: crate::prof::Subsystem) -> Option<std::time::Instant> {
        cdf_mem::prof::HeapProf::start(self.prof.is_some(), sub.timer(), self.now)
    }

    /// Counts a subsystem operation opened with
    /// [`prof_sub_start`](Self::prof_sub_start) when profiling is on.
    #[inline]
    fn prof_sub(&mut self, sub: crate::prof::Subsystem, t0: Option<std::time::Instant>) {
        if let Some(p) = self.prof.as_mut() {
            p.end_sub(sub, t0);
        }
    }

    /// Memory-port envelope: counts (and on sampled cycles times) the
    /// synchronous [`MemSide::access`] call under
    /// [`crate::prof::Subsystem::MemPort`] when profiling is on.
    #[inline]
    fn mem_access(
        &mut self,
        addr: u64,
        kind: AccessKind,
        now: u64,
        wrong_path: bool,
    ) -> AccessResult {
        let t = self.prof_sub_start(crate::prof::Subsystem::MemPort);
        let r = self.memsys.access(addr, kind, now, wrong_path);
        self.prof_sub(crate::prof::Subsystem::MemPort, t);
        r
    }

    // ------------------------------------------------------------------
    // Retire.
    // ------------------------------------------------------------------

    fn retire(&mut self) {
        for _ in 0..self.cfg.retire_width {
            let next = Seq(self.commit_seq);
            let (ch, nh) = self.rob.heads();
            let critical = match (ch.copied(), nh.copied()) {
                (Some(c), _) if c == next => true,
                (_, Some(n)) if n == next => false,
                (c, n) => {
                    // The oldest instruction is not in the ROB yet. If the
                    // rename stage claims to have passed it, state is
                    // corrupt — fail loudly at the first occurrence.
                    assert!(
                        self.reg_renamed_upto < next.0 || self.pool.contains_key(next.0),
                        "commit head {next} lost: heads {c:?}/{n:?}, reg_renamed_upto {}, \
                         crit_renamed_upto {}, cmq head {:?}, decode front {:?}, cycle {}",
                        self.reg_renamed_upto,
                        self.crit_renamed_upto,
                        self.cdf.as_ref().and_then(|x| x.cmq.front().map(|e| e.seq)),
                        self.decode.front_ready(u64::MAX).map(|f| f.seq),
                        self.now,
                    );
                    break;
                }
            };
            // A uop may not retire before its regular-stream copy has been
            // renamed: the CMQ replay updates the regular RAT in program
            // order and performs the poison check (§3.4/§3.6).
            if next.0 > self.reg_renamed_upto {
                break;
            }
            let done = self.pool.get(next.0).map(|u| u.is_done()).unwrap_or(false);
            if !done {
                break;
            }
            self.rob.pop_head(critical);
            let uop = self.pool.remove(next.0).expect("checked above");
            self.retire_one(uop, critical);
            self.commit_seq += 1;
            self.last_retire_cycle = self.now;
            if self.halted {
                break;
            }
        }
    }

    fn retire_one(&mut self, uop: DynUop, critical: bool) {
        if let Some(t) = &mut self.pipe_trace {
            if let Some(r) = t.row(uop.seq, uop.pc) {
                r.retire = Some(self.now);
                if let Some(tel) = &mut self.telemetry {
                    if tel.wants_uop_events(uop.seq.0) {
                        tel.note_uop_retired(uop.seq.0, uop.pc.index() as u64, r);
                    }
                }
            }
        }
        self.stats.retired += 1;
        self.energy.record(Activity::RobWrite, 1);
        let op = uop.uop.op;

        if op.is_load() {
            let e = self.lsq.retire_load(critical).expect("retiring load in LQ");
            debug_assert_eq!(e.seq, uop.seq);
            self.stats.loads_retired += 1;
            if uop.llc_miss {
                self.stats.llc_miss_loads += 1;
            }
        }
        if op.is_store() {
            let e = self
                .lsq
                .retire_store(critical)
                .expect("retiring store in SQ");
            debug_assert_eq!(e.seq, uop.seq);
            let addr = uop.mem_addr.expect("store retired with address");
            let data = uop.result.expect("store retired with data");
            self.mem_image.store(addr, data);
            // Commit the write into the memory system (traffic + dirty
            // state); retirement does not wait for it.
            self.mem_access(addr, AccessKind::Store, self.now, false);
        }
        let mispredicted = if let Op::Branch(_) = op {
            self.stats.branches += 1;
            let taken = uop.taken.expect("branch retired resolved");
            if let Some(pred) = &uop.pred {
                self.predictor.update(self.byte_addr(uop.pc), taken, pred);
                self.energy.record(Activity::BpredOp, 1);
            }
            if taken {
                if let Some(t) = uop.uop.target {
                    self.btb
                        .insert(self.byte_addr(uop.pc), self.byte_addr(t), false);
                }
            }
            taken != uop.pred_taken
        } else {
            false
        };

        if let Some(prev) = uop.prev_pdst {
            self.prf.dealloc(prev);
        }
        self.rlog.prune(uop.seq);

        // The CDF identification machinery (runs in CDF, PRE and
        // classify-only modes).
        if let Some(cdf) = &mut self.cdf {
            let is_pre = matches!(self.cfg.mode, CoreMode::Pre(_));
            let mut seed = false;
            if op.is_load() {
                if !is_pre {
                    cdf.cct_loads.update(uop.pc, uop.llc_miss);
                    cdf.activity.cct_ops += 1;
                }
                seed = cdf.cct_loads.is_critical(uop.pc);
            } else if op.is_cond_branch() && cdf.cfg.mark_branches {
                cdf.cct_branches.update(uop.pc, mispredicted);
                cdf.activity.cct_ops += 1;
                seed = cdf.cct_branches.is_critical(uop.pc);
            }
            let bb = *self.program.block(self.program.block_of(uop.pc));
            // Provenance coverage: did a live CUC trace cover this trigger
            // at retire time? Read the CUC before `on_retire`, whose walk
            // may tear traces down this same cycle.
            if let Some(d) = self.diag.as_mut() {
                let off = (uop.pc.index() - bb.start.index()) as u32;
                let covers = cdf
                    .traces
                    .peek(bb.start)
                    .is_some_and(|t| t.is_critical(off));
                if op.is_load() {
                    d.note_load_retired(uop.llc_miss, covers);
                } else if op.is_cond_branch() && mispredicted && seed {
                    d.note_h2p_mispredict_retired(covers);
                }
            }
            let word = uop.mem_addr.map(|a| a >> 3);
            cdf.on_retire(
                FbEntry {
                    pc: uop.pc,
                    block_start: bb.start,
                    block_len: bb.len,
                    offset: (uop.pc.index() - bb.start.index()).min(255) as u8,
                    srcs: uop.uop.srcs(),
                    dsts: uop.uop.dst_set(),
                    mem_read: if op.is_load() { word } else { None },
                    mem_write: if op.is_store() { word } else { None },
                    crit_seed: seed,
                },
                self.stats.retired,
                self.now,
                self.diag.as_mut(),
            );
        } else if let Some(d) = self.diag.as_mut() {
            // No identification engine (pure baseline): record the trigger
            // denominators so coverage is comparable across mechanisms.
            if op.is_load() {
                d.note_load_retired(uop.llc_miss, false);
            }
        }

        if op == Op::Halt {
            self.halted = true;
        }

        if self.observer.is_some() {
            let taken = uop.taken;
            let next_pc = match op {
                Op::Halt => None,
                Op::Jump => Some(uop.uop.target.expect("jump has a target")),
                Op::Branch(_) if taken == Some(true) => {
                    Some(uop.uop.target.expect("branch has a target"))
                }
                _ => Some(uop.pc.next()),
            };
            let ev = crate::observer::RetiredUop {
                index: self.stats.retired - 1,
                pc: uop.pc,
                op,
                dst: uop.uop.dst.zip(uop.result),
                store: if op.is_store() {
                    uop.mem_addr.zip(uop.result)
                } else {
                    None
                },
                load: if op.is_load() {
                    uop.mem_addr.zip(uop.result)
                } else {
                    None
                },
                taken: if op.is_cond_branch() { taken } else { None },
                next_pc,
                critical,
                chain: uop.chain,
            };
            if let Some(obs) = self.observer.as_mut() {
                obs.on_retire(&ev);
            }
            self.assert_invariants();
        }
    }

    /// Asserts the core's structural invariants: ROB/LQ/SQ partition
    /// occupancies within their caps, the instruction pool consistent with
    /// the ROB, RS occupancy (total and critical) equal to the pool's
    /// waiting uops, RAT mappings in range (and the regular RAT injective),
    /// and poison bits confined to modes that have a CDF engine.
    ///
    /// Runs automatically after every retirement while a retire observer is
    /// attached; exposed so adversarial tests can sweep a core at any point.
    ///
    /// # Panics
    ///
    /// Panics if any invariant is violated — that is a simulator bug, never
    /// a program property.
    pub fn assert_invariants(&self) {
        assert!(
            self.rob.len() <= self.rob.total_cap(),
            "ROB over capacity: {}/{}",
            self.rob.len(),
            self.rob.total_cap()
        );
        assert!(
            self.rob.section_len(true) <= self.rob.crit_cap(),
            "critical ROB partition over its cap: {}/{}",
            self.rob.section_len(true),
            self.rob.crit_cap()
        );
        let (lq, sq) = (self.lsq.lq(), self.lsq.sq());
        let queues = [
            (
                "LQ",
                lq.len(),
                lq.total_cap(),
                lq.section_len(true),
                lq.crit_cap(),
            ),
            (
                "SQ",
                sq.len(),
                sq.total_cap(),
                sq.section_len(true),
                sq.crit_cap(),
            ),
        ];
        for (name, len, cap, crit_len, crit_cap) in queues {
            assert!(len <= cap, "{name} over capacity: {len}/{cap}");
            assert!(
                crit_len <= crit_cap,
                "critical {name} partition over its cap: {crit_len}/{crit_cap}"
            );
        }
        assert_eq!(
            self.rob.len(),
            self.pool.len(),
            "ROB and instruction pool disagree on in-flight uops"
        );
        let mut waiting = (0, 0);
        for seq in self.rob.iter() {
            let u = self.pool.get(seq.0);
            assert!(
                u.is_some(),
                "ROB entry {seq} missing from the instruction pool"
            );
            assert!(
                seq.0 >= self.commit_seq,
                "ROB entry {seq} is older than the commit head {}",
                self.commit_seq
            );
            if let Some(u) = u.filter(|u| u.state == UopState::Waiting) {
                waiting.0 += 1;
                waiting.1 += usize::from(u.critical);
            }
        }
        assert_eq!(
            (self.rs.len(), self.rs.critical_count()),
            waiting,
            "RS occupancy (total, critical) disagrees with the pool's waiting uops"
        );
        let mut seen = [false; 4096];
        for r in ArchReg::all() {
            for (kind, rat) in [("RAT", &self.rat), ("CRAT", &self.crat)] {
                let p = rat.get(r);
                assert!(
                    (p.0 as usize) < self.cfg.phys_regs,
                    "{kind} maps {r:?} to out-of-range {p:?} (PRF size {})",
                    self.cfg.phys_regs
                );
            }
            let p = self.rat.get(r).0 as usize;
            if p < seen.len() {
                assert!(!seen[p], "RAT maps two architectural registers to p{p}");
                seen[p] = true;
            }
            if self.cdf.is_none() {
                assert!(
                    !self.rat.poisoned(r) && !self.crat.poisoned(r),
                    "poison bit on {r:?} without a CDF engine"
                );
            }
        }
    }

    // ------------------------------------------------------------------
    // Completion.
    // ------------------------------------------------------------------

    fn complete(&mut self) {
        while let Some(&std::cmp::Reverse((done, seq, uid))) = self.completions.peek() {
            if done > self.now {
                break;
            }
            self.completions.pop();
            let Some(uop) = self.pool.get_mut(seq) else {
                continue; // flushed
            };
            if uop.uid != uid {
                continue; // a post-flush uop reused the sequence number
            }
            match uop.state {
                UopState::Executing { done_at } if done_at == done => {}
                _ => continue,
            }
            uop.state = UopState::Done;
            if let (Some(pdst), Some(v)) = (uop.pdst, uop.result) {
                self.prf.write(pdst, v);
                self.energy.record(Activity::PrfOp, 1);
                if self.event_sched {
                    self.wake_reg(pdst);
                }
            }
            if let Some(uop) = self.pool.get(seq) {
                if uop.uop.op.is_load() {
                    let (s, addr) = (uop.seq, uop.mem_addr.expect("completing load has addr"));
                    self.lsq.set_load_state(s, addr, true);
                }
            }
        }
    }

    /// Wakeup: `p` was just written, so every uop waiting on it re-checks
    /// readiness; the now-ready ones enter the ready queue. Tokens whose uop
    /// was flushed (or whose sequence number was reused) fail validation and
    /// are dropped. This is the only place a waiting uop becomes
    /// selectable — `prf` readiness transitions false→true only here in
    /// `complete` — so the ready queues always hold exactly the uops the
    /// reference scan would find ready.
    fn wake_reg(&mut self, p: PhysReg) {
        let t = self.prof_sub_start(crate::prof::Subsystem::SchedWake);
        let mut buf = std::mem::take(&mut self.wake_buf);
        self.sched.drain_waiters(p, &mut buf);
        for &(seq, uid) in &buf {
            let Some(u) = self.pool.get(seq) else {
                continue;
            };
            if u.uid != uid || u.state != UopState::Waiting || !self.srcs_ready(u) {
                continue;
            }
            self.sched
                .enqueue_ready(u.critical, Self::op_port(u.uop.op), (seq, uid));
        }
        self.wake_buf = buf;
        self.prof_sub(crate::prof::Subsystem::SchedWake, t);
    }

    // ------------------------------------------------------------------
    // Schedule + execute.
    // ------------------------------------------------------------------

    fn op_port(op: Op) -> PortClass {
        match op {
            Op::Load => PortClass::Load,
            Op::Store => PortClass::Store,
            Op::Alu(a) if a.is_fp() => PortClass::Fp,
            _ => PortClass::Int,
        }
    }

    fn op_latency(op: Op) -> u64 {
        match op {
            Op::Alu(AluOp::Mul) => 3,
            Op::Alu(AluOp::Div) => 20,
            Op::Alu(AluOp::FAdd) => 3,
            Op::Alu(AluOp::FMul) => 4,
            Op::Alu(AluOp::FDiv) => 20,
            _ => 1,
        }
    }

    fn srcs_ready(&self, uop: &DynUop) -> bool {
        uop.psrcs.iter().flatten().all(|p| self.prf.is_ready(*p))
    }

    fn src_val(&self, uop: &DynUop, role: usize) -> u64 {
        uop.psrcs[role].map(|p| self.prf.read(p)).unwrap_or(0)
    }

    fn schedule_execute(&mut self) {
        let mut ports = PortBudget {
            int: self.cfg.ports.int,
            fp: self.cfg.ports.fp,
            load: self.cfg.ports.load,
            store: self.cfg.ports.store,
        };
        if !self.event_sched {
            return self.schedule_execute_scan(ports);
        }
        // Event-driven select: pop the oldest ready token, critical first,
        // among the queues whose port class still has a free port — the
        // reference scan's (!critical, seq) order restricted to the uops it
        // can issue. A queue whose class is spent is not touched; the scan
        // would have skipped its uops with no side effect. Entries whose
        // execute attempt must retry (MSHR rejection, store-forward stall,
        // memory-dependence wait) keep the port they took and are deferred
        // and requeued for next cycle, matching the scan's retry-every-cycle
        // behaviour.
        let t = self.prof_sub_start(crate::prof::Subsystem::SchedSelect);
        while let Some((q, (seq, uid))) = self.sched.pop_ready(ports.free_mask()) {
            let Some(u) = self.pool.get(seq) else {
                continue; // flushed: stale token
            };
            if u.uid != uid || u.state != UopState::Waiting {
                continue; // reused seq, or already issued
            }
            if !self.srcs_ready(u) {
                self.sched.defer(q, (seq, uid));
                continue;
            }
            let took = ports.take(Self::op_port(u.uop.op));
            debug_assert!(took, "select pops only classes with a free port");
            self.execute_one(Seq(seq));
            let still_waiting = self
                .pool
                .get(seq)
                .map(|u| u.state == UopState::Waiting)
                .unwrap_or(false);
            if still_waiting {
                self.sched.defer(q, (seq, uid));
            }
        }
        self.sched.requeue_deferred();
        self.prof_sub(crate::prof::Subsystem::SchedSelect, t);
    }

    /// The original per-cycle scan over every waiting uop, selectable via
    /// [`SchedulerKind::ReferenceScan`] as the equivalence oracle for the
    /// event-driven scheduler.
    fn schedule_execute_scan(&mut self, mut ports: PortBudget) {
        // Oldest-first select with priority for critical uops (§3.5): the
        // ROB's critical section, then its non-critical one, each in
        // program order; the uops still waiting there are the RS.
        let ordered: Vec<Seq> = self.rob.iter().copied().collect();
        for seq in ordered {
            let Some(uop) = self.pool.get(seq.0) else {
                continue;
            };
            if uop.state != UopState::Waiting || !self.srcs_ready(uop) {
                continue;
            }
            if !ports.take(Self::op_port(uop.uop.op)) {
                continue;
            }
            self.execute_one(seq);
        }
    }

    fn execute_one(&mut self, seq: Seq) {
        let (static_uop, pc, pred_taken) = {
            let u = self.pool.get(seq.0).expect("scheduled uop in pool");
            (u.uop, u.pc, u.pred_taken)
        };
        let op = static_uop.op;
        let imm = static_uop.imm;
        self.energy.record(Activity::RsOp, 1);

        let mut result: Option<u64> = None;
        let mut done_at = self.now + Self::op_latency(op);
        match op {
            Op::Nop | Op::Halt | Op::Jump => {}
            Op::MovImm => result = Some(imm as u64),
            Op::Alu(a) => {
                self.energy.record(
                    if a.is_fp() {
                        Activity::FpOp
                    } else {
                        Activity::IntAluOp
                    },
                    1,
                );
                let u = self.pool.get(seq.0).expect("present");
                let x = self.src_val(u, 0);
                let y = if static_uop.src2.is_some() {
                    self.src_val(u, 1)
                } else {
                    imm as u64
                };
                result = Some(a.apply(x, y));
            }
            Op::Branch(cond) => {
                self.energy.record(Activity::IntAluOp, 1);
                let u = self.pool.get(seq.0).expect("present");
                let x = self.src_val(u, 0);
                let y = if static_uop.src2.is_some() {
                    self.src_val(u, 1)
                } else {
                    imm as u64
                };
                let taken = cond.eval(x, y);
                self.pool.get_mut(seq.0).expect("present").taken = Some(taken);
                if taken != pred_taken {
                    let redirect = if taken {
                        static_uop.target.expect("branch has target")
                    } else {
                        pc.next()
                    };
                    self.raise_flush(Flush {
                        target: seq,
                        redirect,
                        kind: FlushKind::Mispredict { actual: taken },
                    });
                }
            }
            Op::Load => {
                self.energy.record(Activity::LsqOp, 1);
                let u = self.pool.get(seq.0).expect("present");
                let base = if static_uop.mem.base.is_some() {
                    self.src_val(u, 0)
                } else {
                    0
                };
                let index = if static_uop.mem.index.is_some() {
                    self.src_val(u, 1)
                } else {
                    0
                };
                let addr = static_uop.mem.effective(base, index);
                // Memory-dependence prediction: a load that has violated
                // before waits for older store addresses to resolve.
                // Critical-stream loads are exempt — running ahead of
                // unresolved non-critical stores is the mechanism (§3.5),
                // and its mis-speculations have their own recovery.
                let is_critical = self.pool.get(seq.0).is_some_and(|u| u.critical);
                if !is_critical
                    && self.mdp[pc.index() & 0xFF] >= 2
                    && self.lsq.older_store_addr_unknown(seq)
                {
                    return;
                }
                match self.lsq.forward(seq, addr) {
                    ForwardResult::Stall => {
                        // Matching older store's data not ready: retry later.
                        self.pool.get_mut(seq.0).expect("present").mem_addr = Some(addr);
                        self.lsq.set_load_state(seq, addr, false);
                        return;
                    }
                    ForwardResult::Forward(v) => {
                        let u = self.pool.get_mut(seq.0).expect("present");
                        u.mem_addr = Some(addr);
                        u.forwarded = true;
                        result = Some(v);
                        done_at = self.now + self.cfg.mem.l1_latency;
                        self.lsq.set_load_state(seq, addr, true);
                    }
                    ForwardResult::Miss => {
                        match self.mem_access(addr, AccessKind::Load, self.now, false) {
                            AccessResult::Rejected(_) => return, // MSHRs full: retry
                            AccessResult::Done(out) => {
                                let v = self.mem_image.load(addr);
                                let llc_miss = out.level == HitLevel::Dram;
                                let u = self.pool.get_mut(seq.0).expect("present");
                                u.mem_addr = Some(addr);
                                u.llc_miss = llc_miss;
                                result = Some(v);
                                done_at = out.ready_at;
                                self.lsq.set_load_state(seq, addr, true);
                                // Timeliness: a critical-stream load just
                                // initiated an LLC miss; the lead-time clock
                                // starts here and stops when the regular
                                // stream consumes (or a flush kills) it.
                                if is_critical && llc_miss {
                                    if let Some(d) = self.diag.as_mut() {
                                        d.note_miss_initiated(seq.0, self.now);
                                    }
                                }
                            }
                        }
                    }
                }
            }
            Op::Store => {
                self.energy.record(Activity::LsqOp, 1);
                let u = self.pool.get(seq.0).expect("present");
                let base = if static_uop.mem.base.is_some() {
                    self.src_val(u, 0)
                } else {
                    0
                };
                let index = if static_uop.mem.index.is_some() {
                    self.src_val(u, 1)
                } else {
                    0
                };
                let data = self.src_val(u, 2);
                let addr = static_uop.mem.effective(base, index);
                {
                    let u = self.pool.get_mut(seq.0).expect("present");
                    u.mem_addr = Some(addr);
                }
                result = Some(data);
                self.lsq.set_store_addr(seq, addr);
                self.lsq.set_store_data(seq, data);
                if let Some(violating) = self.lsq.check_violation(seq, addr) {
                    self.stats.memory_violations += 1;
                    let redirect = self
                        .pool
                        .get(violating.0)
                        .map(|u| u.pc)
                        .expect("violating load in pool");
                    // Train the memory-dependence predictor.
                    let slot = &mut self.mdp[redirect.index() & 0xFF];
                    *slot = (*slot + 1).min(3);
                    self.raise_flush(Flush {
                        target: Seq(violating.0 - 1),
                        redirect,
                        kind: FlushKind::MemOrder,
                    });
                }
            }
        }

        if let Some(t) = &mut self.pipe_trace {
            if let Some(r) = t.row(seq, pc) {
                r.execute = Some(self.now);
                r.complete = Some(done_at);
            }
        }
        let (uid, critical) = {
            let u = self.pool.get_mut(seq.0).expect("present");
            if result.is_some() {
                u.result = result;
            }
            u.state = UopState::Executing { done_at };
            (u.uid, u.critical)
        };
        self.completions
            .push(std::cmp::Reverse((done_at, seq.0, uid)));
        self.rs.remove(critical);
    }

    fn raise_flush(&mut self, f: Flush) {
        let replace = match &self.pending_flush {
            None => true,
            Some(existing) => f.target < existing.target,
        };
        if replace {
            self.pending_flush = Some(f);
        }
    }

    // ------------------------------------------------------------------
    // Rename / dispatch.
    // ------------------------------------------------------------------

    fn rename_dispatch(&mut self) {
        let mut budget = self.cfg.rename_width;
        self.rename_critical(&mut budget);
        while budget > 0 && self.pending_flush.is_none() {
            if !self.rename_regular_one() {
                break;
            }
            budget -= 1;
        }
    }

    /// Renames critical-stream uops through the critical RAT (§3.4). Runs
    /// before regular rename ("The Issue logic always picks uops from the
    /// critical Rename stage if it is not empty", §3.5).
    fn rename_critical(&mut self, budget: &mut usize) {
        if !self.is_cdf_mode() || self.crit_buffer.is_empty() {
            return;
        }
        if !self.crat_ready {
            // Copy the RAT only after every pre-CDF uop has renamed (§3.4).
            if self.reg_renamed_upto + 1 >= self.cdf_entry_seq {
                self.crat.copy_maps_from(&self.rat);
                self.crat_ready = true;
                self.energy.record(Activity::CriticalRatOp, 1);
            } else {
                return;
            }
        }
        while *budget > 0 {
            let Some((ready, fu)) = self.crit_buffer.front() else {
                break;
            };
            if *ready > self.now {
                break;
            }
            let uop = fu.uop;
            let crit_seq = fu.seq;
            let cmq_full = {
                let cdf = self.cdf.as_ref().expect("CDF mode has an engine");
                cdf.cmq.len() >= cdf.cfg.cmq
            };
            if cmq_full {
                break;
            }
            let rob_blocked = !self.rob.has_space(true)
                || !self.rs.has_space(true)
                || !self.pool.can_insert(crit_seq.0);
            let lq_blocked = uop.op.is_load() && !self.lsq.lq().has_space(true);
            let sq_blocked = uop.op.is_store() && !self.lsq.sq().has_space(true);
            if rob_blocked
                || lq_blocked
                || sq_blocked
                || (uop.dst.is_some() && !self.prf.can_alloc(true))
            {
                // §3.5: a critical-section structural stall votes to grow
                // the critical partition of the blocking structure.
                self.partition_feedback(rob_blocked, lq_blocked, sq_blocked, true);
                self.note_rename_blocked();
                break;
            }
            let (_, fu) = self.crit_buffer.pop_front().expect("checked");
            let seq = fu.seq;
            self.dispatch_uop(fu, true);
            self.crit_renamed_upto = seq.0;
            self.stats.critical_uops_issued += 1;
            *budget -= 1;
        }
    }

    /// Renames one regular-stream uop: CMQ replay for critical duplicates,
    /// normal rename otherwise. Returns whether a rename slot was consumed.
    fn rename_regular_one(&mut self) -> bool {
        let Some(front) = self.decode.front_ready(self.now) else {
            return false;
        };
        let seq = front.seq;
        let front_pc = front.pc;
        let front_srcs = front.uop.srcs();
        let is_dup = front.critical_dup;
        let uop = front.uop;

        // --- CMQ replay path (§3.4) ---
        let cmq_head = self.cdf.as_ref().and_then(|c| c.cmq.front().copied());
        if let Some(head) = cmq_head {
            if head.seq == seq {
                // Poison check: a replayed critical uop reading a poisoned
                // register executed incorrectly (Fig. 11).
                if front_srcs.iter().any(|r| self.rat.poisoned(r)) {
                    self.stats.dependence_violations += 1;
                    self.raise_flush(Flush {
                        target: Seq(seq.0 - 1),
                        redirect: front_pc,
                        kind: FlushKind::Poison,
                    });
                    return false;
                }
                self.decode.pop();
                self.cdf.as_mut().expect("engine").cmq.pop_front();
                self.energy.record(Activity::CmqOp, 1);
                self.energy.record(Activity::Rename, 1);
                // Accuracy: the program-order stream consumed this critical
                // uop's mapping — the one terminal outcome besides a flush.
                if head.chain != 0 {
                    if let Some(d) = self.diag.as_mut() {
                        d.note_consumed(head.chain, seq.0, self.now);
                    }
                }
                if let (Some(areg), Some(pdst)) = (head.areg, head.pdst) {
                    let prev = self.rat.set(areg, pdst);
                    let prev_poison = self.rat.set_poison(areg, false);
                    self.rlog.push(RenameLogEntry {
                        seq,
                        kind: RatKind::Regular,
                        areg: Some(areg),
                        prev_preg: prev,
                        prev_poison,
                        allocated: None,
                    });
                    // Ownership of displaced registers follows *program
                    // order* (the regular RAT): the critical uop frees, at
                    // retire, the register its replay displaced here — not
                    // the one its critical rename displaced, which may have
                    // been freed already by an interleaved non-critical
                    // writer.
                    if let Some(u) = self.pool.get_mut(seq.0) {
                        u.prev_pdst = Some(prev);
                    }
                }
                self.reg_renamed_upto = seq.0;
                return true;
            }
            if head.seq < seq {
                // Desync (trace changed between the two streams): recover
                // conservatively as a dependence violation at the CMQ head.
                self.stats.dependence_violations += 1;
                let redirect = self.pool.get(head.seq.0).map(|u| u.pc).unwrap_or(front_pc);
                self.raise_flush(Flush {
                    target: Seq(head.seq.0 - 1),
                    redirect,
                    kind: FlushKind::Poison,
                });
                return false;
            }
        }

        // --- Duplicate awaiting its CMQ entry? ---
        if is_dup {
            let could_come = self.crit_seq_cursor <= seq.0
                || self
                    .crit_pending
                    .front()
                    .map(|f| f.seq <= seq)
                    .unwrap_or(false)
                || self
                    .crit_buffer
                    .front()
                    .map(|(_, f)| f.seq <= seq)
                    .unwrap_or(false);
            let crit_alive = self.crit_fetch_active
                || !self.crit_pending.is_empty()
                || !self.crit_buffer.is_empty();
            if crit_alive && could_come && self.crit_renamed_upto < seq.0 {
                return false; // wait for the critical stream to rename it
            }
            // The critical stream passed this uop by (stale flag): it is the
            // sole copy — rename normally below.
        }

        // --- Normal rename ---
        let rob_blocked =
            !self.rob.has_space(false) || !self.rs.has_space(false) || !self.pool.can_insert(seq.0);
        let lq_blocked = uop.op.is_load() && !self.lsq.lq().has_space(false);
        let sq_blocked = uop.op.is_store() && !self.lsq.sq().has_space(false);
        if rob_blocked
            || lq_blocked
            || sq_blocked
            || (uop.dst.is_some() && !self.prf.can_alloc(false))
        {
            self.partition_feedback(rob_blocked, lq_blocked, sq_blocked, false);
            self.note_rename_blocked();
            return false;
        }
        let fu = self.decode.pop().expect("front checked");
        self.dispatch_uop(fu, false);
        self.reg_renamed_upto = seq.0;
        true
    }

    /// Renames and dispatches one uop into the backend (shared by both
    /// streams; resources must have been checked).
    fn dispatch_uop(&mut self, fu: FetchedUop, critical: bool) {
        let seq = fu.seq;
        let uop = fu.uop;
        self.dispatched_this_cycle = true;
        self.energy.record(Activity::Rename, 1);
        if critical {
            self.energy.record(Activity::CriticalRatOp, 1);
        }
        let mut d = DynUop::new(
            seq,
            fu.pc,
            uop,
            if critical {
                Stream::Critical
            } else {
                Stream::Regular
            },
        );
        d.uid = self.next_uid;
        self.next_uid += 1;
        d.fetched_in_cdf = fu.fetched_in_cdf;
        d.chain = fu.chain;
        d.pred = fu.pred;
        d.pred_taken = fu.pred_taken;

        {
            let rat = if critical { &self.crat } else { &self.rat };
            match uop.op {
                Op::Load => {
                    d.psrcs[0] = uop.mem.base.map(|r| rat.get(r));
                    d.psrcs[1] = uop.mem.index.map(|r| rat.get(r));
                }
                Op::Store => {
                    d.psrcs[0] = uop.mem.base.map(|r| rat.get(r));
                    d.psrcs[1] = uop.mem.index.map(|r| rat.get(r));
                    d.psrcs[2] = uop.src1.map(|r| rat.get(r));
                }
                Op::Alu(_) | Op::Branch(_) => {
                    d.psrcs[0] = uop.src1.map(|r| rat.get(r));
                    d.psrcs[1] = uop.src2.map(|r| rat.get(r));
                }
                Op::Nop | Op::MovImm | Op::Jump | Op::Halt => {}
            }
        }

        if let Some(dst) = uop.dst {
            let pdst = self.prf.alloc(critical).expect("space checked by caller");
            let (prev, prev_poison) = if critical {
                (self.crat.set(dst, pdst), false)
            } else {
                let prev = self.rat.set(dst, pdst);
                // Non-critical uops renamed while critical uops are in
                // flight poison their destinations (§3.6).
                let poison_now = fu.fetched_in_cdf && !critical;
                let prev_poison = self.rat.set_poison(dst, poison_now);
                (prev, prev_poison)
            };
            d.pdst = Some(pdst);
            // Critical uops take their freeable previous mapping from the
            // CMQ replay (program order), not from the critical RAT.
            d.prev_pdst = if critical { None } else { Some(prev) };
            self.rlog.push(RenameLogEntry {
                seq,
                kind: if critical {
                    RatKind::Critical
                } else {
                    RatKind::Regular
                },
                areg: Some(dst),
                prev_preg: prev,
                prev_poison,
                allocated: Some((pdst, critical)),
            });
        }

        assert!(
            !self.pool.contains_key(seq.0),
            "double dispatch of {seq}: existing {:?} vs new (critical={critical}, pc={:?}, \
             reg_renamed_upto {}, crit_renamed_upto {}, crit_cursor {}, cdf_entry {}, end {:?})",
            self.pool.get(seq.0).map(|u| (u.pc, u.critical)),
            fu.pc,
            self.reg_renamed_upto,
            self.crit_renamed_upto,
            self.crit_seq_cursor,
            self.cdf_entry_seq,
            self.cdf_end_seq,
        );
        if let Some(t) = &mut self.pipe_trace {
            if let Some(r) = t.row(seq, fu.pc) {
                r.dispatch = Some(self.now);
                r.critical = critical;
            }
        }
        self.rob.push(seq, critical);
        self.energy.record(Activity::RobWrite, 1);
        self.rs.insert(critical);
        if self.event_sched {
            // Wakeup registration: one waiter per *distinct* not-ready
            // source register (duplicates deduped so the token is enqueued
            // at most once), or straight to the ready queue when every
            // source is already ready. Each registration is consumed by
            // exactly one wake, and only the wake that completes the last
            // outstanding source enqueues — so the ready queues never hold
            // a live token twice.
            let token = (seq.0, d.uid);
            let mut pending = false;
            for i in 0..d.psrcs.len() {
                let Some(p) = d.psrcs[i] else { continue };
                if self.prf.is_ready(p) || d.psrcs[..i].contains(&Some(p)) {
                    continue;
                }
                self.sched.add_waiter(p, token);
                pending = true;
            }
            if !pending {
                self.sched
                    .enqueue_ready(critical, Self::op_port(uop.op), token);
            }
        }
        match uop.op {
            Op::Load => {
                self.lsq.push_load(seq, critical);
                self.energy.record(Activity::LsqOp, 1);
            }
            Op::Store => {
                self.lsq.push_store(seq, critical);
                self.energy.record(Activity::LsqOp, 1);
            }
            _ => {}
        }
        self.pool.insert(seq.0, d);

        if critical {
            let cdf = self.cdf.as_mut().expect("critical dispatch implies CDF");
            cdf.cmq.push_back(CmqEntry {
                seq,
                areg: uop.dst,
                pdst: self.pool.get(seq.0).and_then(|u| u.pdst),
                chain: fu.chain,
            });
            self.energy.record(Activity::CmqOp, 1);
        }
    }

    /// Set when any rename was blocked by a full backend structure this
    /// cycle (cleared in `post_cycle`); combined with a memory-waiting ROB
    /// head this is the full-window-stall condition.
    fn note_rename_blocked(&mut self) {
        self.rename_blocked = true;
    }

    /// §3.5 dynamic partitioning: one stall-cycle vote per structure whose
    /// section blocked a rename this cycle; a threshold-crossing imbalance
    /// moves capacity toward the starved side.
    fn partition_feedback(&mut self, rob: bool, lq: bool, sq: bool, critical: bool) {
        let dynamic = self
            .cfg
            .cdf_config()
            .map(|c| c.dynamic_partitioning)
            .unwrap_or(false);
        if !self.is_cdf_mode() || !dynamic {
            return;
        }
        if rob {
            if let Some(r) = self.pc_rob.on_stall_cycle(critical) {
                self.rob.resize(r, self.pc_rob.step());
            }
        }
        if lq {
            if let Some(r) = self.pc_lq.on_stall_cycle(critical) {
                self.lsq.resize_lq(r, self.pc_lq.step());
            }
        }
        if sq {
            if let Some(r) = self.pc_sq.on_stall_cycle(critical) {
                self.lsq.resize_sq(r, self.pc_sq.step());
            }
        }
    }

    // ------------------------------------------------------------------
    // Fetch: critical stream (§3.3).
    // ------------------------------------------------------------------

    fn fetch_critical(&mut self) {
        if !self.is_cdf_mode() || !self.cdf_fetch_mode {
            return;
        }
        let crit_buffer_cap = self.cfg.cdf_config().map(|c| c.crit_buffer).unwrap_or(32);
        let mut budget = self.cfg.fetch_width;
        while budget > 0 {
            if self.crit_buffer.len() >= crit_buffer_cap {
                break;
            }
            if self.crit_pending.is_empty() {
                if !self.crit_fetch_active {
                    break;
                }
                // Runaway guard: do not run more than one Fill Buffer's worth
                // of instructions ahead of the regular stream.
                if self.crit_seq_cursor > self.next_seq + 8192 {
                    break;
                }
                let dbq_full = {
                    let cdf = self.cdf.as_ref().expect("engine");
                    cdf.dbq.len() >= cdf.cfg.dbq
                };
                if dbq_full {
                    break;
                }
                let trace = {
                    let cdf = self.cdf.as_mut().expect("engine");
                    cdf.activity.uop_cache_ops += 1;
                    cdf.traces.lookup(self.crit_fetch_pc).copied()
                };
                self.energy.record(Activity::CriticalUopCacheOp, 1);
                let Some(trace) = trace else {
                    // Exit condition (a): miss in the Critical Uop Cache.
                    if let Some(d) = self.diag.as_mut() {
                        d.note_cuc_miss();
                    }
                    self.crit_fetch_active = false;
                    self.cdf_end_seq = Some(self.crit_seq_cursor);
                    break;
                };
                if let Some(d) = self.diag.as_mut() {
                    d.note_cuc_hit(trace.chain, trace.crit_count() as u64, self.now);
                }
                let base = self.crit_seq_cursor;
                let bstart = trace.block_start;
                for off in trace.crit_offsets() {
                    let upc = Pc::new((bstart.index() + off as usize) as u32);
                    self.crit_pending.push_back(FetchedUop {
                        seq: Seq(base + off as u64),
                        pc: upc,
                        uop: *self.program.uop(upc),
                        stream: Stream::Critical,
                        pred: None,
                        pred_taken: false,
                        fetched_in_cdf: true,
                        critical_dup: false,
                        chain: trace.chain,
                    });
                }
                // Compute the next fetch address from the block's terminator
                // (predicting the block-ending branch, Fig. 7).
                let last_pc = Pc::new((bstart.index() + trace.block_len as usize - 1) as u32);
                let last = *self.program.uop(last_pc);
                let last_seq = Seq(base + trace.block_len as u64 - 1);
                let mut next_pc = Pc::new((bstart.index() + trace.block_len as usize) as u32);
                match last.op {
                    Op::Branch(_) => {
                        let pred = self.predictor.predict(self.byte_addr(last_pc));
                        self.energy.record(Activity::BpredOp, 1);
                        let taken = pred.taken;
                        let np = if taken {
                            last.target.expect("branch has target")
                        } else {
                            last_pc.next()
                        };
                        if trace.is_critical(trace.block_len - 1) {
                            if let Some(p) =
                                self.crit_pending.iter_mut().find(|f| f.seq == last_seq)
                            {
                                p.pred = Some(pred.clone());
                                p.pred_taken = taken;
                            }
                        }
                        let cdf = self.cdf.as_mut().expect("engine");
                        cdf.dbq.push_back(DbqEntry {
                            seq: last_seq,
                            taken,
                            next_pc: np,
                            pred,
                        });
                        self.energy.record(Activity::DbqOp, 1);
                        next_pc = np;
                    }
                    Op::Jump => next_pc = last.target.expect("jump has target"),
                    Op::Halt => {
                        self.crit_fetch_active = false;
                        self.cdf_end_seq = Some(base + trace.block_len as u64);
                    }
                    _ => {}
                }
                self.crit_seq_cursor = base + trace.block_len as u64;
                self.crit_fetch_pc = next_pc;
            }
            while budget > 0 && self.crit_buffer.len() < crit_buffer_cap {
                let Some(fu) = self.crit_pending.pop_front() else {
                    break;
                };
                if let Some(t) = &mut self.pipe_trace {
                    if let Some(r) = t.row(fu.seq, fu.pc) {
                        r.fetch = Some(self.now);
                        r.critical = true;
                    }
                }
                // The Critical Uop Cache is a 1-cycle structure.
                self.crit_buffer.push_back((self.now + 1, fu));
                self.stats.fetched_critical += 1;
                self.energy.record(Activity::Fetch, 1);
                budget -= 1;
            }
        }
    }

    // ------------------------------------------------------------------
    // Fetch: regular stream.
    // ------------------------------------------------------------------

    fn enter_cdf(&mut self, pc: Pc) {
        self.cdf_fetch_mode = true;
        self.cdf_entry_seq = self.next_seq;
        self.cdf_end_seq = None;
        self.crit_fetch_active = true;
        self.crit_fetch_pc = pc;
        self.crit_seq_cursor = self.next_seq;
        self.crat_ready = false;
        self.crit_pending.clear();
        self.crit_buffer.clear();
        self.rat.clear_all_poison();
        self.stats.cdf_entries += 1;
    }

    fn fetch_regular(&mut self) {
        if self.now < self.fetch_stalled_until || self.fetch_blocked {
            return;
        }
        let mut budget = self.cfg.fetch_width;
        while budget > 0 && self.decode.has_space() {
            // Leave CDF fetch mode once past the CDF region.
            if self.cdf_fetch_mode {
                if let Some(end) = self.cdf_end_seq {
                    if self.next_seq >= end {
                        self.cdf_fetch_mode = false;
                    }
                }
            }
            let pc = self.fetch_pc;
            let Some(&uop) = self.program.get(pc) else {
                // Wrong-path control flow left the program: wait for a flush.
                self.fetch_blocked = true;
                break;
            };

            // CDF entry: a Critical Uop Cache hit at a block start (§3.3).
            if self.is_cdf_mode()
                && !self.cdf_fetch_mode
                && !self.crit_fetch_active
                && self.crit_buffer.is_empty()
                && self.crit_pending.is_empty()
                && self.cdf.as_ref().map(|c| c.cmq.is_empty()).unwrap_or(false)
                && self.cdf.as_ref().map(|c| c.has_traces()).unwrap_or(false)
                && self.program.block_starting_at(pc).is_some()
            {
                let hit = {
                    let cdf = self.cdf.as_mut().expect("engine");
                    cdf.activity.uop_cache_ops += 1;
                    // Entering is only useful on a trace with critical uops;
                    // empty traces exist purely to carry control flow and
                    // timestamps through non-critical blocks.
                    cdf.traces
                        .lookup(pc)
                        .map(|t| t.crit_mask != 0)
                        .unwrap_or(false)
                };
                self.energy.record(Activity::CriticalUopCacheOp, 1);
                if hit {
                    self.enter_cdf(pc);
                    break; // mode switch consumes the rest of the cycle
                }
            }

            // I-cache.
            let line = self.byte_addr(pc) / 64;
            if Some(line) != self.last_fetch_line {
                match self.mem_access(self.byte_addr(pc), AccessKind::InstFetch, self.now, false) {
                    AccessResult::Rejected(_) => break,
                    AccessResult::Done(out) => {
                        self.last_fetch_line = Some(line);
                        if out.ready_at > self.now + self.cfg.mem.l1_latency {
                            self.fetch_stalled_until = out.ready_at;
                            break;
                        }
                    }
                }
            }

            let seq = Seq(self.next_seq);
            let mut fu = FetchedUop {
                seq,
                pc,
                uop,
                stream: Stream::Regular,
                pred: None,
                pred_taken: false,
                fetched_in_cdf: self.cdf_fetch_mode,
                critical_dup: false,
                chain: 0,
            };
            if self.cdf_fetch_mode {
                if let Some(cdf) = &self.cdf {
                    let bb = self.program.block(self.program.block_of(pc));
                    if let Some(trace) = cdf.traces.peek(bb.start) {
                        let off = (pc.index() - bb.start.index()) as u32;
                        fu.critical_dup = trace.is_critical(off);
                    }
                }
            }

            let mut redirect = Some(pc.next());
            let mut stop_after = false;
            match uop.op {
                Op::Branch(_) => {
                    if self.cdf_fetch_mode {
                        // Predictions come from the Delayed Branch Queue so
                        // the regular stream follows the critical stream's
                        // control-flow path (§3.3).
                        let head = {
                            let cdf = self.cdf.as_mut().expect("engine");
                            match cdf.dbq.front() {
                                Some(h) if h.seq == seq => cdf.dbq.pop_front(),
                                _ => None,
                            }
                        };
                        let Some(head) = head else {
                            break; // critical fetch hasn't predicted it yet
                        };
                        self.energy.record(Activity::DbqOp, 1);
                        fu.pred_taken = head.taken;
                        if !fu.critical_dup {
                            fu.pred = Some(head.pred);
                        }
                        redirect = Some(head.next_pc);
                        stop_after = head.taken;
                    } else {
                        let pred = self.predictor.predict(self.byte_addr(pc));
                        self.energy.record(Activity::BpredOp, 1);
                        fu.pred_taken = pred.taken;
                        fu.pred = Some(pred);
                        if fu.pred_taken {
                            let target = uop.target.expect("branch has target");
                            if self.btb.lookup(self.byte_addr(pc)).is_none() {
                                // BTB miss: one-cycle resteer bubble.
                                self.btb
                                    .insert(self.byte_addr(pc), self.byte_addr(target), false);
                                self.fetch_stalled_until = self.now + 1;
                            }
                            redirect = Some(target);
                            stop_after = true;
                        }
                    }
                }
                Op::Jump => {
                    redirect = Some(uop.target.expect("jump has target"));
                    stop_after = true;
                }
                Op::Halt => {
                    redirect = None;
                }
                _ => {}
            }

            if let Some(t) = &mut self.pipe_trace {
                if !fu.critical_dup {
                    if let Some(r) = t.row(seq, pc) {
                        r.fetch = Some(self.now);
                    }
                }
            }
            self.decode.push(self.now, fu);
            self.energy.record(Activity::Fetch, 1);
            self.energy.record(Activity::Decode, 1);
            self.stats.fetched_regular += 1;
            self.next_seq += 1;
            budget -= 1;
            match redirect {
                Some(npc) => self.fetch_pc = npc,
                None => {
                    self.fetch_blocked = true;
                    break;
                }
            }
            if stop_after || self.now < self.fetch_stalled_until {
                break;
            }
        }
    }

    // ------------------------------------------------------------------
    // Flush.
    // ------------------------------------------------------------------

    fn apply_flush(&mut self) {
        let f = self.pending_flush.take().expect("checked by caller");
        let target = f.target;
        if matches!(f.kind, FlushKind::Mispredict { .. }) {
            self.stats.mispredicts += 1;
        }
        self.flush_recovery_until = self.now + self.cfg.redirect_penalty;
        if let Some(tel) = &mut self.telemetry {
            let kind = match &f.kind {
                FlushKind::Mispredict { .. } => "mispredict",
                FlushKind::MemOrder => "memory_order",
                FlushKind::Poison => "poison",
            };
            tel.note_flush(self.now, kind, target.0);
        }

        // Remove young uops from every structure, tracking the oldest
        // discarded prediction for history repair.
        let mut oldest_pred: Option<(Seq, Prediction)> = None;
        let note = |seq: Seq, pred: &Option<Prediction>, oldest: &mut Option<(Seq, Prediction)>| {
            if let Some(p) = pred {
                if oldest.as_ref().map(|(s, _)| seq < *s).unwrap_or(true) {
                    *oldest = Some((seq, p.clone()));
                }
            }
        };
        self.rob.flush_after(target, |seq| {
            if let Some(u) = self.pool.remove(seq.0) {
                if u.state == UopState::Waiting {
                    self.rs.remove(u.critical);
                }
                note(u.seq, &u.pred, &mut oldest_pred);
            }
        });
        self.lsq.flush_after(target);
        self.decode.flush_after(target, |fu| {
            note(fu.seq, &fu.pred, &mut oldest_pred);
        });
        for fu in &self.crit_pending {
            if fu.seq > target {
                note(fu.seq, &fu.pred, &mut oldest_pred);
            }
        }
        for (_, fu) in &self.crit_buffer {
            if fu.seq > target {
                note(fu.seq, &fu.pred, &mut oldest_pred);
            }
        }
        // Provenance accuracy: fetched critical uops removed by this flush
        // meet their terminal outcome here. The uop whose poisoned source
        // raised the flush (the flush targets its predecessor) counts as
        // poisoned; every other casualty — in the critical fetch queues or
        // still awaiting CMQ replay — counts as squashed.
        if self.diag.is_some() {
            let poisoned_seq = matches!(f.kind, FlushKind::Poison).then(|| target.0 + 1);
            let note_removed =
                |d: &mut crate::diag::CdfDiagnostics, chain: u64, seq: u64, now: u64| {
                    if chain == 0 {
                        return;
                    }
                    if Some(seq) == poisoned_seq {
                        d.note_poisoned(chain, seq, now);
                    } else {
                        d.note_squashed(chain, seq, now);
                    }
                };
            let now = self.now;
            if let Some(d) = self.diag.as_mut() {
                for fu in &self.crit_pending {
                    if fu.seq > target {
                        note_removed(d, fu.chain, fu.seq.0, now);
                    }
                }
                for (_, fu) in &self.crit_buffer {
                    if fu.seq > target {
                        note_removed(d, fu.chain, fu.seq.0, now);
                    }
                }
                if let Some(cdf) = &self.cdf {
                    for e in &cdf.cmq {
                        if e.seq > target {
                            note_removed(d, e.chain, e.seq.0, now);
                        }
                    }
                }
            }
        }
        self.crit_pending.retain(|u| u.seq <= target);
        self.crit_buffer.retain(|(_, u)| u.seq <= target);
        if let Some(cdf) = &mut self.cdf {
            for e in &cdf.dbq {
                if e.seq > target {
                    note(e.seq, &Some(e.pred.clone()), &mut oldest_pred);
                }
            }
            cdf.dbq.retain(|e| e.seq <= target);
            cdf.cmq.retain(|e| e.seq <= target);
        }

        if let Some(t) = &mut self.pipe_trace {
            t.note_flush(target);
        }

        // Unwind the rename log (both RATs + free list).
        self.rlog.unwind(target, |e| {
            let rat = match e.kind {
                RatKind::Regular => &mut self.rat,
                RatKind::Critical => &mut self.crat,
            };
            if let Some(areg) = e.areg {
                rat.set(areg, e.prev_preg);
                rat.set_poison(areg, e.prev_poison);
            }
            if let Some((p, _)) = e.allocated {
                self.prf.dealloc(p);
            }
        });

        // Predictor history repair.
        match &f.kind {
            FlushKind::Mispredict { actual } => {
                let br = self
                    .pool
                    .get(target.0)
                    .expect("mispredicted branch survives its own flush");
                if let Some(pred) = &br.pred {
                    self.predictor.recover(pred, *actual);
                }
            }
            _ => {
                if let Some((_, pred)) = &oldest_pred {
                    self.predictor.rewind(pred);
                }
            }
        }

        // CDF mode transitions (§3.6).
        if self.is_cdf_mode() {
            if target.0 < self.cdf_entry_seq {
                // Everything CDF was flushed: hard exit.
                self.cdf_fetch_mode = false;
                self.cdf_end_seq = None;
                self.crit_fetch_active = false;
                self.crat_ready = false;
                self.rat.clear_all_poison();
            } else if self.cdf_fetch_mode {
                let branch_in_cdf = matches!(f.kind, FlushKind::Mispredict { .. })
                    && self
                        .pool
                        .get(target.0)
                        .map(|u| u.fetched_in_cdf)
                        .unwrap_or(false);
                if branch_in_cdf {
                    // Recovering to a CDF-fetched branch does not end CDF
                    // mode: restart critical fetch on the corrected path.
                    self.crit_fetch_active = true;
                    self.crit_fetch_pc = f.redirect;
                    self.crit_seq_cursor = target.0 + 1;
                    self.cdf_end_seq = None;
                } else {
                    // Truncate the CDF region; the regular stream drains it.
                    self.crit_fetch_active = false;
                    let end = self.cdf_end_seq.unwrap_or(u64::MAX).min(target.0 + 1);
                    self.cdf_end_seq = Some(end);
                }
            }
        }

        // Fetch redirect — but only if the regular stream actually fetched
        // past the flush point. When the flushed uop came from the critical
        // stream running *ahead* of regular fetch (target ≥ next_seq), the
        // regular stream's fetched path is entirely older than the flush
        // point and stays valid: leave its fetch state untouched and fix the
        // unconsumed Delayed Branch Queue prediction instead. This is the
        // paper's early-branch-resolution benefit — a mispredicted critical
        // branch costs no regular-stream refetch at all (§2.2/§3.6).
        if target.0 < self.next_seq {
            self.fetch_pc = f.redirect;
            self.next_seq = target.0 + 1;
            self.fetch_stalled_until = self.now + self.cfg.redirect_penalty;
            self.last_fetch_line = None;
            self.fetch_blocked = false;
        } else if let FlushKind::Mispredict { actual } = &f.kind {
            // Timeliness: the critical stream resolved this branch before
            // the regular stream even fetched it — the early-resolution
            // distance is how far ahead (in sequence numbers) it ran.
            if let Some(d) = self.diag.as_mut() {
                d.note_branch_resolved_early(target.0 + 1 - self.next_seq);
            }
            if let Some(cdf) = &mut self.cdf {
                if let Some(e) = cdf.dbq.iter_mut().find(|e| e.seq == target) {
                    e.taken = *actual;
                    e.next_pc = f.redirect;
                }
            }
        }
        self.reg_renamed_upto = self.reg_renamed_upto.min(target.0);
        self.crit_renamed_upto = self.crit_renamed_upto.min(target.0);
    }

    // ------------------------------------------------------------------
    // Per-cycle bookkeeping: CDF engine, partitions, stalls, PRE, stats.
    // ------------------------------------------------------------------

    fn post_cycle(&mut self, retired_before: u64) {
        if let Some(cdf) = &mut self.cdf {
            cdf.tick(self.now, self.diag.as_mut());
        }

        // Memory-dependence predictor aging: rare (e.g. wrong-path) aliases
        // must not permanently serialize a load behind all older stores —
        // real store-set predictors clear periodically for the same reason.
        if self.now.is_multiple_of(65_536) {
            for e in &mut self.mdp {
                *e >>= 1;
            }
        }

        // Full CDF exit: region drained, replays done.
        if self.is_cdf_mode() {
            if self.cdf_fetch_mode {
                if let Some(end) = self.cdf_end_seq {
                    if self.next_seq >= end {
                        self.cdf_fetch_mode = false;
                    }
                }
            }
            let drained = !self.cdf_fetch_mode
                && !self.crit_fetch_active
                && self.crit_pending.is_empty()
                && self.crit_buffer.is_empty()
                && self.cdf.as_ref().map(|c| c.cmq.is_empty()).unwrap_or(true);
            if drained && self.cdf_end_seq.is_some() {
                self.cdf_end_seq = None;
                self.rat.clear_all_poison();
                self.pc_rob.reset();
                self.pc_lq.reset();
                self.pc_sq.reset();
            }
        }

        // Partition sizing.
        if self.is_cdf_mode() {
            let cdf_cfg = self.cfg.cdf_config().cloned().unwrap_or_default();
            let engaged = self.cdf_fetch_mode
                || self.rob.section_len(true) > 0
                || !self.crit_buffer.is_empty();
            if engaged {
                // Seed the initial skew once per engagement; afterwards the
                // stall-counter controllers own the split (§3.5). Re-growing
                // toward the initial fraction every cycle would fight the
                // controllers and starve the non-critical stream.
                let rob_target =
                    (self.rob.total_cap() as f64 * cdf_cfg.initial_critical_frac) as usize;
                if !self.partition_seeded {
                    if self.rob.crit_cap() < rob_target {
                        self.rob.grow_critical(cdf_cfg.rob_step);
                    }
                    let lq_target =
                        (self.lsq.lq().total_cap() as f64 * cdf_cfg.initial_critical_frac) as usize;
                    if self.lsq.lq().crit_cap() < lq_target {
                        self.lsq.resize_lq(Resize::GrowCritical, cdf_cfg.lsq_step);
                    }
                    let sq_target =
                        (self.lsq.sq().total_cap() as f64 * cdf_cfg.initial_critical_frac) as usize;
                    if self.lsq.sq().crit_cap() < sq_target {
                        self.lsq.resize_sq(Resize::GrowCritical, cdf_cfg.lsq_step);
                    }
                    if self.rob.crit_cap() >= rob_target {
                        self.partition_seeded = true;
                    }
                }
            } else {
                self.partition_seeded = false;
                // "The size of the critical section ... is gradually
                // decreased till the pending critical instructions retire."
                self.rob.grow_noncritical(cdf_cfg.rob_step);
                self.lsq
                    .resize_lq(Resize::GrowNonCritical, cdf_cfg.lsq_step);
                self.lsq
                    .resize_sq(Resize::GrowNonCritical, cdf_cfg.lsq_step);
            }
            // RS/PRF critical limits track the ROB split (§3.5).
            let frac = self.rob.crit_cap() as f64 / self.rob.total_cap() as f64;
            let rs_limit = ((self.rs.capacity() as f64 * frac) as usize)
                .min(self.rs.capacity().saturating_sub(32));
            self.rs.set_critical_limit(rs_limit.max(1));
        }

        // Full-window stall detection (+ Fig. 1 sampling, partition feedback,
        // PRE trigger).
        let head = self.pool.get(self.commit_seq);
        let head_mem_wait = head
            .map(|u| u.uop.op.is_load() && !u.is_done())
            .unwrap_or(false);
        let head_pc = head.map(|u| u.pc);
        // Full-window stall: the window cannot accept new work (a rename was
        // blocked by a full ROB/RS/LQ/SQ section this cycle) while the
        // oldest instruction is a load waiting on memory.
        let stall = head_mem_wait && self.rename_blocked;
        self.rename_blocked = false;
        if stall {
            self.stats.full_window_stall_cycles += 1;
            let episode_start = !self.in_stall_episode;
            if episode_start {
                self.stats.full_window_stalls += 1;
                self.in_stall_episode = true;
                self.on_stall_begin(head_pc.expect("stalled head exists"));
            }
            if self.stats.full_window_stall_cycles % 16 == 1 {
                self.sample_rob_mix();
            }
        } else {
            self.in_stall_episode = false;
            if self.runahead.is_active() {
                self.runahead.exit();
            }
        }

        // PRE runahead stepping during the stall.
        if matches!(self.cfg.mode, CoreMode::Pre(_)) && self.in_stall_episode {
            self.runahead_step();
        }

        // MLP sampling (Fig. 14).
        let t = self.prof_sub_start(crate::prof::Subsystem::MemPort);
        let out = self.memsys.outstanding_demand_misses(self.now) as u64;
        self.prof_sub(crate::prof::Subsystem::MemPort, t);
        if out > 0 {
            self.stats.mlp_cycles += 1;
            self.stats.mlp_sum += out;
        }
        if self.cdf_fetch_mode {
            self.stats.cdf_mode_cycles += 1;
        }

        // Telemetry (observation only: never touches CoreStats or any
        // simulated state, so enabled and disabled runs are bit-identical).
        let dispatched = self.dispatched_this_cycle;
        self.dispatched_this_cycle = false;
        if self.telemetry.is_some() {
            use crate::telemetry::{CycleBucket, OccupancySample};
            let bucket = if self.stats.retired > retired_before {
                CycleBucket::Retiring
            } else if self.now <= self.flush_recovery_until {
                CycleBucket::FlushRecovery
            } else if stall {
                CycleBucket::FullWindowStall
            } else if self.cdf_fetch_mode {
                CycleBucket::CdfMode
            } else if self.rob.len() == 0
                || (!dispatched
                    && self.decode.front_ready(self.now).is_none()
                    && self.crit_buffer.is_empty())
            {
                CycleBucket::FrontendStarved
            } else {
                CycleBucket::BackendBound
            };
            let occ = OccupancySample {
                rob: self.rob.len() as u64,
                lq: self.lsq.lq().len() as u64,
                sq: self.lsq.sq().len() as u64,
                rs: self.rs.len() as u64,
                mshr: out,
            };
            let (now, cdf_active, stall_active) =
                (self.now, self.cdf_fetch_mode, self.in_stall_episode);
            let stats = &self.stats;
            if let Some(tel) = self.telemetry.as_mut() {
                tel.on_cycle(bucket, occ);
                tel.track_episodes(now, cdf_active, stall_active);
                if tel.interval_due(now) {
                    tel.sample_interval(now, stats);
                }
            }
        }
        if let Some(d) = self.diag.as_mut() {
            if d.interval_due(self.now) {
                d.sample_interval(self.now);
            }
        }
    }

    fn on_stall_begin(&mut self, head_pc: Pc) {
        if let CoreMode::Pre(_) = &self.cfg.mode {
            // PRE marks loads critical when they cause full-window stalls.
            if let Some(cdf) = &mut self.cdf {
                cdf.cct_loads.update(head_pc, true);
                cdf.activity.cct_ops += 1;
            }
            // Enter runahead if a chain exists for the stalling load's block.
            let block = self.program.block(self.program.block_of(head_pc)).start;
            let has_trace = self
                .cdf
                .as_ref()
                .map(|c| c.traces.probe(block))
                .unwrap_or(false);
            if has_trace && !self.runahead.is_active() && self.commit_seq != self.last_runahead_head
            {
                self.last_runahead_head = self.commit_seq;
                let mut seed = [None; NUM_ARCH_REGS];
                for r in ArchReg::all() {
                    let p = self.rat.get(r);
                    if self.prf.is_ready(p) {
                        seed[r.index()] = Some(self.prf.read(p));
                    }
                }
                self.runahead.enter(block, seed);
            }
        }
    }

    fn runahead_step(&mut self) {
        let max = match &self.cfg.mode {
            CoreMode::Pre(p) => p.max_runahead_uops,
            _ => return,
        };
        let mut budget = self.cfg.fetch_width;
        while budget > 0 && self.runahead.is_active() {
            if self.runahead.issued >= max {
                self.runahead.exit();
                break;
            }
            if self.runahead.queue.is_empty() {
                let Some(bpc) = self.runahead.fetch_pc else {
                    self.runahead.exit();
                    break;
                };
                let trace = {
                    let cdf = self.cdf.as_mut().expect("PRE has an engine");
                    cdf.activity.uop_cache_ops += 1;
                    cdf.traces.lookup(bpc).copied()
                };
                self.energy.record(Activity::CriticalUopCacheOp, 1);
                // A trace fetch consumes a runahead slot whether or not the
                // block contains critical uops — empty traces exist to carry
                // control flow, and runahead must not spin through a loop of
                // them for free.
                budget -= 1;
                self.runahead.issued += 1;
                let Some(trace) = trace else {
                    if let Some(d) = self.diag.as_mut() {
                        d.note_cuc_miss();
                    }
                    self.runahead.fetch_pc = None;
                    continue;
                };
                // PRE's runahead uops are fetched from the CUC but their
                // results are always discarded (never architecturally
                // consumed) — provenance accounting shows that as accuracy 0,
                // which is exactly the contrast with CDF's replay.
                if let Some(d) = self.diag.as_mut() {
                    d.note_cuc_hit(trace.chain, trace.crit_count() as u64, self.now);
                }
                for off in trace.crit_offsets() {
                    self.runahead
                        .queue
                        .push_back(Pc::new((trace.block_start.index() + off as usize) as u32));
                }
                // Steer to the next block with a read-only predictor peek.
                let last_pc =
                    Pc::new((trace.block_start.index() + trace.block_len as usize - 1) as u32);
                let last = *self.program.uop(last_pc);
                self.runahead.fetch_pc = match last.op {
                    Op::Branch(_) => {
                        if self.predictor.peek(self.byte_addr(last_pc)) {
                            last.target
                        } else {
                            Some(last_pc.next())
                        }
                    }
                    Op::Jump => last.target,
                    Op::Halt => None,
                    _ => Some(last_pc.next()),
                };
            } else {
                let upc = self.runahead.queue.pop_front().expect("checked");
                let uop = *self.program.uop(upc);
                let now = self.now;
                let memsys = &mut self.memsys;
                let img = &self.mem_image;
                let prof = &mut self.prof;
                self.runahead.eval(&uop, |addr| {
                    // Runahead loads prefetch into the LLC without occupying
                    // the demand L1D MSHRs: the prefetch benefit plus the
                    // extra DRAM traffic the paper charges PRE.
                    let sub = crate::prof::Subsystem::MemPort;
                    let t0 = cdf_mem::prof::HeapProf::start(prof.is_some(), sub.timer(), now);
                    memsys.runahead_prefetch(addr, now);
                    if let Some(p) = prof.as_mut() {
                        p.end_sub(sub, t0);
                    }
                    Some(img.load(addr))
                });
                self.energy.record(Activity::Rename, 1);
                self.energy.record(Activity::IntAluOp, 1);
                self.runahead.issued += 1;
                budget -= 1;
            }
        }
    }

    /// Samples the criticality mix of the current ROB contents (Fig. 1). In
    /// CDF mode the issued-stream flag is authoritative; otherwise the
    /// engine's Mask Cache classifies.
    fn sample_rob_mix(&mut self) {
        let Some(cdf) = &self.cdf else { return };
        let mut critical = 0u64;
        let mut non_critical = 0u64;
        for seq in self.rob.iter() {
            let Some(u) = self.pool.get(seq.0) else {
                continue;
            };
            let is_crit = if u.critical {
                true
            } else {
                let bb = self.program.block(self.program.block_of(u.pc));
                let off = (u.pc.index() - bb.start.index()) as u8;
                cdf.masks
                    .get(bb.start)
                    .map(|m| off < 64 && m & (1 << off) != 0)
                    .unwrap_or(false)
            };
            if is_crit {
                critical += 1;
            } else {
                non_critical += 1;
            }
        }
        self.stats.rob_mix.samples += 1;
        self.stats.rob_mix.critical += critical;
        self.stats.rob_mix.non_critical += non_critical;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdf_isa::{ArchReg::*, ProgramBuilder};

    fn run_program(b: ProgramBuilder, cfg: CoreConfig, max: u64) -> (CoreStats, ArchState) {
        let program = b.build().expect("assembles");
        let mut core = Core::new(&program, MemoryImage::new(), cfg);
        let stats = core.run(max);
        (stats, core.arch_state())
    }

    #[test]
    fn straight_line_arithmetic() {
        let mut b = ProgramBuilder::new();
        b.movi(R1, 5);
        b.movi(R2, 7);
        b.add(R3, R1, R2);
        b.mul(R4, R3, R3);
        b.halt();
        let (stats, st) = run_program(b, CoreConfig::default(), 1000);
        assert!(stats.halted);
        assert_eq!(st.reg(R3), 12);
        assert_eq!(st.reg(R4), 144);
        assert_eq!(stats.retired, 5);
    }

    #[test]
    fn run_bounded_stops_at_cycle_budget() {
        let mut b = ProgramBuilder::new();
        b.movi(R1, 1_000_000);
        let top = b.label("top");
        b.bind(top).unwrap();
        b.addi(R2, R2, 3);
        b.addi(R1, R1, -1);
        b.brnz(R1, top);
        b.halt();
        let program = b.build().expect("assembles");
        let mut core = Core::new(&program, MemoryImage::new(), CoreConfig::default());
        let stats = core.run_bounded(u64::MAX, 500);
        assert!(!stats.halted, "budget expires long before the loop ends");
        assert!(
            stats.cycles >= 500 && stats.cycles < 600,
            "cycles {}",
            stats.cycles
        );
        // Resuming with an unbounded budget finishes the program exactly as
        // an unbounded run would.
        let resumed = core.run(u64::MAX);
        assert!(resumed.halted);
        assert_eq!(core.arch_state().reg(R2), 3_000_000);
    }

    #[test]
    fn loop_with_predictable_branch() {
        let mut b = ProgramBuilder::new();
        b.movi(R1, 2000);
        let top = b.label("top");
        b.bind(top).unwrap();
        b.addi(R2, R2, 3);
        b.addi(R1, R1, -1);
        b.brnz(R1, top);
        b.halt();
        let (stats, st) = run_program(b, CoreConfig::default(), 100_000);
        assert!(stats.halted);
        assert_eq!(st.reg(R2), 6000);
        assert!(stats.ipc() > 2.0, "ipc {}", stats.ipc());
        assert!(
            stats.mispredicts <= 5,
            "loop exit only: {}",
            stats.mispredicts
        );
    }

    #[test]
    fn store_load_forwarding_and_memory() {
        let mut b = ProgramBuilder::new();
        b.movi(R1, 0x1000);
        b.movi(R2, 42);
        b.store(R2, R1, 0);
        b.load(R3, R1, 0); // must forward 42
        b.addi(R3, R3, 1);
        b.store(R3, R1, 8);
        b.halt();
        let (stats, st) = run_program(b, CoreConfig::default(), 1000);
        assert!(stats.halted);
        assert_eq!(st.mem().load(0x1000), 42);
        assert_eq!(st.mem().load(0x1008), 43);
    }

    #[test]
    fn hard_branch_recovers_correctly() {
        // Branch on a value loaded from memory: the predictor cannot know the
        // first outcome; recovery must restore architectural state.
        let mut b = ProgramBuilder::new();
        let skip = b.label("skip");
        b.movi(R1, 0x2000);
        b.load(R2, R1, 0); // 0 from untouched memory
        b.brz(R2, skip);
        b.movi(R3, 111); // wrong path if predicted not-taken
        b.bind(skip).unwrap();
        b.movi(R4, 222);
        b.halt();
        let (stats, st) = run_program(b, CoreConfig::default(), 1000);
        assert!(stats.halted);
        assert_eq!(st.reg(R3), 0, "skipped path must not commit");
        assert_eq!(st.reg(R4), 222);
    }

    #[test]
    fn memory_ordering_violation_recovers() {
        // A load that depends on a store through memory with the store's
        // address arriving late (after a long dependency chain).
        let mut b = ProgramBuilder::new();
        b.movi(R1, 0x3000);
        b.movi(R2, 99);
        // Long chain delaying the store's address.
        b.movi(R5, 0x3000);
        for _ in 0..6 {
            b.alu(cdf_isa::AluOp::Mul, R5, R5, R6); // R6=0 → R5 becomes 0...
        }
        b.add(R5, R5, R1); // ... then R5 = R1
        b.store(R2, R5, 0); // store to 0x3000, address late
        b.load(R3, R1, 0); // same address: likely speculates past the store
        b.add(R4, R3, R3);
        b.halt();
        let (stats, st) = run_program(b, CoreConfig::default(), 10_000);
        assert!(stats.halted);
        assert_eq!(st.reg(R3), 99, "load must observe the store");
        assert_eq!(st.reg(R4), 198);
    }

    #[test]
    fn matches_functional_executor_on_a_kernel() {
        let mut b = ProgramBuilder::new();
        b.movi(R1, 40); // iterations
        b.movi(R2, 0x4000); // array base
        b.movi(R3, 0); // acc
        let top = b.label("top");
        b.bind(top).unwrap();
        b.load(R4, R2, 0);
        b.add(R3, R3, R4);
        b.addi(R3, R3, 7);
        b.store(R3, R2, 0);
        b.addi(R2, R2, 8);
        b.addi(R1, R1, -1);
        b.brnz(R1, top);
        b.halt();
        let program = b.build().unwrap();

        let mut exec = cdf_isa::Executor::new(&program, MemoryImage::new());
        exec.run(100_000).unwrap();

        let mut core = Core::new(&program, MemoryImage::new(), CoreConfig::default());
        let stats = core.run(100_000);
        assert!(stats.halted);
        let st = core.arch_state();
        assert_eq!(st.regs(), exec.state().regs());
        for i in 0..40u64 {
            let a = 0x4000 + i * 8;
            assert_eq!(st.mem().load(a), exec.state().mem().load(a), "addr {a:#x}");
        }
    }

    #[test]
    fn unpredictable_branches_cost_cycles() {
        // Data-dependent branch pattern from memory: compare IPC against the
        // same loop with an always-taken pattern.
        let build = |vals: &[u64]| {
            let mut mem = MemoryImage::new();
            mem.store_words(0x8000, vals);
            let mut b = ProgramBuilder::new();
            b.movi(R1, vals.len() as i64);
            b.movi(R2, 0x8000);
            let top = b.label("top");
            let skip = b.label("skip");
            b.bind(top).unwrap();
            b.load(R3, R2, 0);
            b.brz(R3, skip);
            b.addi(R4, R4, 1);
            b.bind(skip).unwrap();
            b.addi(R2, R2, 8);
            b.addi(R1, R1, -1);
            b.brnz(R1, top);
            b.halt();
            (b.build().unwrap(), mem)
        };
        let n = 400;
        let biased: Vec<u64> = vec![1; n];
        let mut x = 7u64;
        let random: Vec<u64> = (0..n)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                (x >> 33) & 1
            })
            .collect();
        let (p1, m1) = build(&biased);
        let mut c1 = Core::new(&p1, m1, CoreConfig::default());
        let s1 = c1.run(100_000);
        let (p2, m2) = build(&random);
        let mut c2 = Core::new(&p2, m2, CoreConfig::default());
        let s2 = c2.run(100_000);
        assert!(
            s2.branch_mpki() > s1.branch_mpki() + 10.0,
            "random {} vs biased {}",
            s2.branch_mpki(),
            s1.branch_mpki()
        );
        assert!(s2.ipc() < s1.ipc());
    }

    /// Event-driven select against the reference scan, counted instead of
    /// timed, on a window full of waiting uops: a hashed load that misses
    /// the LLC, then a 60-deep add chain on its value, looped. The scan
    /// walks every RS entry on every cycle; select pops only queued tokens.
    /// The scan's count is the RS occupancy entering each cycle's select.
    /// Select's is the tokens queued when each cycle begins plus the uops
    /// it issues, which covers the woken tokens it pops in the same cycle.
    #[test]
    fn select_pops_a_fraction_of_the_rs_entries_the_scan_walks() {
        let mut b = ProgramBuilder::new();
        b.movi(R1, 1 << 20);
        b.movi(R12, 0x9E37_79B9);
        b.movi(R9, (1 << 20) - 1);
        let top = b.label("top");
        b.bind(top).unwrap();
        b.mul(R10, R1, R12);
        b.alu(cdf_isa::AluOp::And, R10, R10, R9);
        b.load_abs(R5, R10, 8, 0x1000_0000);
        for _ in 0..60 {
            b.alu(cdf_isa::AluOp::Add, R6, R6, R5);
        }
        b.addi(R1, R1, -1);
        b.brnz(R1, top);
        b.halt();
        let program = b.build().expect("assembles");
        let mut core = Core::new(&program, MemoryImage::new(), CoreConfig::default());
        assert!(core.event_sched, "the default core selects event-driven");
        let (mut scanned, mut popped) = (0u64, 0u64);
        while core.stats.retired < 30_000 {
            let issued = core.energy.count(Activity::RsOp);
            scanned += core.rs.len() as u64;
            popped += core.sched.ready_len() as u64;
            core.step();
            popped += core.energy.count(Activity::RsOp) - issued;
        }
        assert!(
            scanned >= 3 * popped,
            "scan walks {scanned} RS entries, select pops {popped} tokens over {} cycles",
            core.now
        );
    }
}
