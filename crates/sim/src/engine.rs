//! The cycle-level execution engine.
//!
//! Each SM keeps up to `max_resident_warps` warps from a handful of
//! resident CTAs and issues up to `issue_width` warp instructions per
//! cycle, round-robin among ready warps (a GTO-less but
//! latency-tolerance-faithful scheduler). Warps block on loads; stores
//! retire through the write buffer.
//!
//! CTAs are partitioned contiguously across GPMs (distributed, locality-
//! aware thread-block scheduling per MCM-GPU), then handed to SMs within
//! a module on demand.
//!
//! # The event-driven hot path
//!
//! The paper's §V scaling study reruns this engine across 1–32 GPMs ×
//! 3 bandwidths × topologies, and the bandwidth-bound workloads that
//! drive Figures 2 and 6 spend most of their cycles with every warp
//! stalled on memory. Two clock-advance strategies are implemented,
//! selectable per [`GpuSim`] via [`EngineMode`]:
//!
//! * [`EngineMode::Naive`] — the reference loop: every SM is scanned on
//!   every visited cycle; when no warp anywhere can issue, the clock
//!   jumps to the minimum `WarpPool::next_ready` wake-up, charging
//!   the skipped cycles as memory-wait (stall) time.
//! * [`EngineMode::EventDriven`] (the default) — per-SM wake times: an
//!   SM whose earliest ready warp lies in the future (and which cannot
//!   accept a CTA) *sleeps*, is skipped entirely — no warp scan, no
//!   scheduler sort — and is charged its idle/stall cycles lazily when
//!   it next wakes. Memory and NoC wake-ups need no separate queue scan
//!   because every queue-drain time is already reflected in some warp's
//!   `ready_at`/`outstanding` timestamps when the access is issued.
//!
//! Both strategies visit the *same* cycle sequence, issue the *same*
//! memory accesses in the *same* order, and accumulate the *same*
//! [`EventCounts`] — bit-for-bit. [`EngineMode::Shadow`] enforces this:
//! it runs both loops on cloned machine state and asserts the results
//! (and the memory-side counters) are identical. The equivalence
//! argument is written out in DESIGN.md §12; the `event_equivalence`
//! proptests and the repo-level golden test pin it in CI.
//!
//! One simulation runs on one thread. The §V study is thousands of
//! independent simulations, and the sweep executor already runs those
//! side by side on every core; sharding the GPMs of a single simulation
//! across threads was tried and retired (DESIGN.md §17).

use crate::bits::BitWords;
use crate::config::GpuConfig;
use crate::memory::MemorySystem;
use crate::results::{KernelResult, WorkloadResult};
use common::{CtaId, GpmId, SmId, WarpId};
use isa::{EventCounts, KernelProgram, LaunchSpec, PredecodedStream, WarpInstr, WARP_SIZE};
use std::sync::Arc;

/// Sentinel for "no warp slot" in the intrusive GTO list and the greedy
/// pointer.
const NONE: u32 = u32::MAX;

/// CTA-to-module partition under a scheduling policy.
#[derive(Debug, Clone, Copy)]
struct CtaPartition {
    schedule: crate::config::CtaSchedule,
    ctas: usize,
    num_gpms: usize,
    per_gpm: usize,
}

impl CtaPartition {
    fn new(schedule: crate::config::CtaSchedule, ctas: usize, num_gpms: usize) -> Self {
        CtaPartition {
            schedule,
            ctas,
            num_gpms,
            per_gpm: ctas.div_ceil(num_gpms),
        }
    }

    /// The module CTA `cta` runs on.
    fn gpm_of(&self, cta: usize) -> usize {
        match self.schedule {
            crate::config::CtaSchedule::Contiguous => (cta / self.per_gpm).min(self.num_gpms - 1),
            crate::config::CtaSchedule::RoundRobin => cta % self.num_gpms,
        }
    }

    /// The `k`-th CTA assigned to module `gpm`, if any remain.
    fn nth_for(&self, gpm: usize, k: usize) -> Option<usize> {
        let cta = match self.schedule {
            crate::config::CtaSchedule::Contiguous => {
                let cta = gpm * self.per_gpm + k;
                if cta >= ((gpm + 1) * self.per_gpm).min(self.ctas) {
                    return None;
                }
                cta
            }
            crate::config::CtaSchedule::RoundRobin => gpm + k * self.num_gpms,
        };
        (cta < self.ctas).then_some(cta)
    }
}

/// All warp and resident-CTA runtime state for every SM, as GPU-global
/// struct-of-arrays columns.
///
/// A warp slot is addressed by `g = flat * stride + s`, where `flat` is
/// the SM's flat index, `stride` is the per-SM slot capacity
/// (`max_ctas_per_sm * warps_per_cta` — an SM can never hold more live
/// warps than that, so slots never grow), and `s` is the SM-local slot
/// id stored in the per-SM `order`/`free`/GTO structures. One
/// allocation per column for the whole GPU keeps the per-cycle SM walk
/// inside a handful of contiguous arrays instead of chasing hundreds of
/// per-SM heap objects — the difference between an L2-resident working
/// set and a pointer-chasing miss per touched field.
///
/// The columns carry no notion of liveness or ordering; the side
/// structures do:
///
/// * `order` + `order_len` — per-SM slabs of slot ids in the *physical*
///   order the historical `Vec<WarpRun>` kept them (push on launch,
///   `swap_remove` on retire). Loose round-robin indexes this list, so
///   preserving its exact evolution keeps LRR issue order — which is
///   observable through memory-access ordering — bit-identical to the
///   seed.
/// * `gto_head`/`gto_tail`/`gto_next`/`gto_prev` — an age-ascending
///   intrusive doubly-linked list per SM. Warp ages are unique and
///   monotonic and new warps append at the tail, so walking the list
///   *is* the `sort_by_key(age)` order the GTO scheduler used to
///   compute per cycle; `greedy` (cleared on retire — ages are never
///   reused) stands in for the old `greedy_age` match.
/// * `exhausted` (+ per-SM `exhausted_cnt`) — warp slots whose stream
///   is exhausted (the old `pending == None`): when an SM's count is
///   zero, its whole retire scan is skipped.
/// * `cta_free` (+ per-SM `cta_free_cnt`) — free resident-CTA slots;
///   `first_set_in` over the SM's sub-range is the old find-first-free
///   scan.
///
/// A warp's in-flight loads live in a fixed-capacity inline ring:
/// `mlp_cap` contiguous entries of `out_times` per slot, with the live
/// count in `out_len` — no per-warp heap allocation.
///
/// Slot ids themselves are unobservable: issue order is decided only by
/// `order` and the GTO list, so the free-stack recycling order (which
/// differs between a fresh pool and one reused across kernels) cannot
/// influence results. The `event_equivalence` proptests and
/// [`EngineMode::Shadow`] (whose reference sim always starts from a
/// fresh pool) pin this.
#[derive(Default)]
struct WarpPool {
    total_sms: usize,
    /// Warp slots per SM.
    stride: usize,
    /// Resident-CTA slots per SM.
    cta_stride: usize,
    /// In-flight-load ring capacity per warp slot (≥ 1).
    mlp_cap: usize,

    // ---- Warp columns, global index g = flat * stride + s ----
    /// Pre-decoded instruction stream per warp slot.
    streams: Vec<PredecodedStream>,
    /// The warp's next instruction (the old `pending: Option<WarpInstr>`),
    /// cached inline so the issue scan never touches the decode window.
    pending: Vec<Option<WarpInstr>>,
    /// Cycle the warp can next issue (or finishes draining).
    ready_at: Vec<u64>,
    /// Launch order on this SM (for greedy-then-oldest scheduling).
    age: Vec<u64>,
    /// Resident-CTA slot the warp belongs to.
    cta_of: Vec<u32>,
    /// Age-order intrusive list: next/prev SM-local slot (or [`NONE`]).
    gto_next: Vec<u32>,
    gto_prev: Vec<u32>,
    /// Inline rings: completion times of loads in flight, `mlp_cap`
    /// entries per warp slot (`g * mlp_cap + r`).
    out_times: Vec<u64>,
    /// Live entries in each warp's ring.
    out_len: Vec<u32>,
    /// Warp slots whose stream is exhausted.
    exhausted: BitWords,

    // ---- Per-SM slabs, `stride` entries each at `flat * stride` ----
    /// Live warps in historical `Vec<WarpRun>` physical order.
    order: Vec<u32>,
    /// Reusable warp slots (a stack growing upward).
    free: Vec<u32>,

    // ---- Per-SM scalar columns ----
    order_len: Vec<u32>,
    free_len: Vec<u32>,
    exhausted_cnt: Vec<u32>,
    /// Oldest / youngest live warp slot (or [`NONE`]).
    gto_head: Vec<u32>,
    gto_tail: Vec<u32>,
    /// Slot the GTO policy is currently greedy on (or [`NONE`]).
    greedy: Vec<u32>,
    /// Loose-round-robin start pointer.
    rr: Vec<u32>,
    /// Monotonic warp-launch counter (ages for GTO).
    next_age: Vec<u64>,

    // ---- CTA columns, index flat * cta_stride + c ----
    /// Live warps per resident-CTA slot.
    cta_live: Vec<u32>,
    /// Resident-CTA slots with no live warps.
    cta_free: BitWords,
    cta_free_cnt: Vec<u32>,
}

impl WarpPool {
    /// Prepares the pool for a fresh kernel. A shape change (SM count,
    /// slot capacity, CTA slots, or MLP ring size) rebuilds every
    /// column; otherwise only the per-SM scheduler scalars are rewound
    /// — every kernel retires all its warps and frees all its CTA slots
    /// before its loop exits, so the bulk state is already clean
    /// (debug builds verify this).
    fn reset(&mut self, total_sms: usize, stride: usize, cta_stride: usize, mlp_cap: usize) {
        debug_assert!(mlp_cap >= 1);
        if self.total_sms != total_sms
            || self.stride != stride
            || self.cta_stride != cta_stride
            || self.mlp_cap != mlp_cap
        {
            self.total_sms = total_sms;
            self.stride = stride;
            self.cta_stride = cta_stride;
            self.mlp_cap = mlp_cap;
            let slots = total_sms * stride;
            for pd in &mut self.streams {
                pd.release();
            }
            self.streams.resize_with(slots, PredecodedStream::new);
            self.pending.clear();
            self.pending.resize(slots, None);
            self.ready_at.clear();
            self.ready_at.resize(slots, 0);
            self.age.clear();
            self.age.resize(slots, 0);
            self.cta_of.clear();
            self.cta_of.resize(slots, 0);
            self.gto_next.clear();
            self.gto_next.resize(slots, NONE);
            self.gto_prev.clear();
            self.gto_prev.resize(slots, NONE);
            self.out_times.clear();
            self.out_times.resize(slots * mlp_cap, 0);
            self.out_len.clear();
            self.out_len.resize(slots, 0);
            self.exhausted = BitWords::with_capacity(slots);
            self.order.clear();
            self.order.resize(slots, 0);
            // Free stacks pop from the top: descending ids per SM make
            // allocation hand out 0, 1, 2, … exactly like the
            // historical `Vec` push order on first use.
            self.free.clear();
            self.free.reserve(slots);
            for _ in 0..total_sms {
                self.free.extend((0..stride as u32).rev());
            }
            self.order_len.clear();
            self.order_len.resize(total_sms, 0);
            self.free_len.clear();
            self.free_len.resize(total_sms, stride as u32);
            self.exhausted_cnt.clear();
            self.exhausted_cnt.resize(total_sms, 0);
            self.gto_head.clear();
            self.gto_head.resize(total_sms, NONE);
            self.gto_tail.clear();
            self.gto_tail.resize(total_sms, NONE);
            self.greedy.clear();
            self.greedy.resize(total_sms, NONE);
            self.rr.clear();
            self.rr.resize(total_sms, 0);
            self.next_age.clear();
            self.next_age.resize(total_sms, 0);
            let cta_slots = total_sms * cta_stride;
            self.cta_live.clear();
            self.cta_live.resize(cta_slots, 0);
            self.cta_free = BitWords::with_capacity(cta_slots);
            for b in 0..cta_slots {
                self.cta_free.set(b);
            }
            self.cta_free_cnt.clear();
            self.cta_free_cnt.resize(total_sms, cta_stride as u32);
            return;
        }
        #[cfg(debug_assertions)]
        for flat in 0..total_sms {
            debug_assert_eq!(self.order_len[flat], 0, "pool reused with live warps");
            debug_assert_eq!(self.free_len[flat] as usize, stride);
            debug_assert_eq!(self.exhausted_cnt[flat], 0);
            debug_assert_eq!(self.gto_head[flat], NONE);
            debug_assert_eq!(self.cta_free_cnt[flat] as usize, cta_stride);
        }
        self.rr.fill(0);
        self.next_age.fill(0);
        self.greedy.fill(NONE);
    }

    /// Launches one warp on SM `flat`: adopts its stream into a
    /// (reused) slot, links it at the GTO tail, and appends it to the
    /// physical order. Returns `false` for a degenerate empty stream
    /// (the warp retires instantly, exactly like the old
    /// `pending == None` launch path; the slot is not consumed).
    fn alloc_warp(
        &mut self,
        flat: usize,
        reset: impl FnOnce(&mut PredecodedStream) -> bool,
        cta: u32,
        now: u64,
    ) -> bool {
        let wbase = flat * self.stride;
        let fl = self.free_len[flat] as usize;
        debug_assert!(fl > 0, "warp slot capacity exceeded");
        let s = self.free[wbase + fl - 1];
        let g = wbase + s as usize;
        if !reset(&mut self.streams[g]) {
            return false;
        }
        self.free_len[flat] = (fl - 1) as u32;
        self.pending[g] = self.streams[g].current();
        self.ready_at[g] = now;
        let a = self.next_age[flat];
        self.age[g] = a;
        self.next_age[flat] = a + 1;
        self.cta_of[g] = cta;
        self.out_len[g] = 0;
        let tail = self.gto_tail[flat];
        self.gto_prev[g] = tail;
        self.gto_next[g] = NONE;
        if tail != NONE {
            self.gto_next[wbase + tail as usize] = s;
        } else {
            self.gto_head[flat] = s;
        }
        self.gto_tail[flat] = s;
        let ol = self.order_len[flat] as usize;
        self.order[wbase + ol] = s;
        self.order_len[flat] = (ol + 1) as u32;
        true
    }

    /// Unlinks a retiring warp from the GTO list and returns its slot
    /// to the free stack. The caller removes it from `order`. Only
    /// called on exhausted warps.
    fn retire_slot(&mut self, flat: usize, s: u32) {
        let wbase = flat * self.stride;
        let g = wbase + s as usize;
        let (p, n) = (self.gto_prev[g], self.gto_next[g]);
        if p != NONE {
            self.gto_next[wbase + p as usize] = n;
        } else {
            self.gto_head[flat] = n;
        }
        if n != NONE {
            self.gto_prev[wbase + n as usize] = p;
        } else {
            self.gto_tail[flat] = p;
        }
        if self.greedy[flat] == s {
            // Ages are never reused, so the old `greedy_age` could never
            // match another warp once its owner retired; clearing the
            // slot pointer is the exact equivalent.
            self.greedy[flat] = NONE;
        }
        self.exhausted.unset(g);
        self.exhausted_cnt[flat] -= 1;
        self.streams[g].release();
        self.pending[g] = None;
        let fl = self.free_len[flat] as usize;
        self.free[wbase + fl] = s;
        self.free_len[flat] = (fl + 1) as u32;
    }

    /// First free resident-CTA slot on SM `flat` (SM-local index) — the
    /// old find-first-free scan, now a masked word probe.
    fn cta_first_free(&self, flat: usize) -> Option<usize> {
        let cbase = flat * self.cta_stride;
        self.cta_free
            .first_set_in(cbase, self.cta_stride)
            .map(|b| b - cbase)
    }

    /// Drops ring entries at or before `now` (loads that have landed),
    /// preserving order — the old `outstanding.retain(|&t| t > now)`.
    fn ring_retain(&mut self, g: usize, now: u64) {
        let base = g * self.mlp_cap;
        let len = self.out_len[g] as usize;
        let mut w = 0;
        for r in 0..len {
            let t = self.out_times[base + r];
            if t > now {
                self.out_times[base + w] = t;
                w += 1;
            }
        }
        self.out_len[g] = w as u32;
    }

    fn ring_push(&mut self, g: usize, t: u64) {
        let base = g * self.mlp_cap;
        let len = self.out_len[g] as usize;
        debug_assert!(len < self.mlp_cap, "outstanding ring overflow");
        self.out_times[base + len] = t;
        self.out_len[g] = (len + 1) as u32;
    }

    fn ring_min(&self, g: usize) -> Option<u64> {
        let base = g * self.mlp_cap;
        self.out_times[base..base + self.out_len[g] as usize]
            .iter()
            .copied()
            .min()
    }

    fn ring_max(&self, g: usize) -> Option<u64> {
        let base = g * self.mlp_cap;
        self.out_times[base..base + self.out_len[g] as usize]
            .iter()
            .copied()
            .max()
    }

    /// Post-step, every warp in `order` is live (the retire pass runs
    /// each step), so residency is just non-emptiness.
    fn resident(&self, flat: usize) -> bool {
        self.order_len[flat] > 0
    }

    /// Earliest cycle any of SM `flat`'s live warps becomes ready (or
    /// finishes draining); `u64::MAX` when it has none.
    fn next_ready(&self, flat: usize) -> u64 {
        let wbase = flat * self.stride;
        let n = self.order_len[flat] as usize;
        let mut m = u64::MAX;
        for &s in &self.order[wbase..wbase + n] {
            m = m.min(self.ready_at[wbase + s as usize]);
        }
        m
    }
}

/// How [`GpuSim::run_kernel`] advances the simulated clock.
///
/// All modes produce bit-identical [`KernelResult`]s; they differ only in
/// wall-clock cost. The default is read once per process from the
/// `MMGPU_SIM_ENGINE` environment variable (`event`, `naive`, or
/// `shadow`), falling back to [`EngineMode::EventDriven`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineMode {
    /// Per-SM wake times with fast-forward over sleeping SMs (the
    /// default; fastest single-threaded, especially for memory-bound
    /// multi-GPM runs).
    #[default]
    EventDriven,
    /// The reference per-cycle loop that scans every SM on every visited
    /// cycle (slow; kept as the ground truth the other modes are checked
    /// against).
    Naive,
    /// Runs *both* loops on cloned machine state and asserts their
    /// results and memory-side counters are identical (slowest; for
    /// validation runs and CI equivalence smokes).
    Shadow,
}

/// The concrete cycle loop [`GpuSim::run_kernel_with`] dispatches to —
/// shadow mode resolves to the event loop plus a reference run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LoopKind {
    Naive,
    Event,
}

impl EngineMode {
    /// The process-wide default: `MMGPU_SIM_ENGINE` if set and valid,
    /// otherwise [`EngineMode::EventDriven`]. Read once and cached.
    pub fn from_env() -> EngineMode {
        use std::sync::OnceLock;
        static MODE: OnceLock<EngineMode> = OnceLock::new();
        *MODE.get_or_init(|| match std::env::var("MMGPU_SIM_ENGINE") {
            Ok(v) => match v.as_str() {
                "event" | "event-driven" => EngineMode::EventDriven,
                "naive" => EngineMode::Naive,
                "shadow" => EngineMode::Shadow,
                other => {
                    eprintln!(
                        "sim: ignoring unknown MMGPU_SIM_ENGINE={other:?} \
                         (expected event, naive, or shadow)"
                    );
                    EngineMode::EventDriven
                }
            },
            Err(_) => EngineMode::EventDriven,
        })
    }
}

/// Counters describing how much work the event-driven loop avoided,
/// accumulated across every kernel a [`GpuSim`] has run.
///
/// `visited_cycles * total_sms - sm_steps` is the number of per-SM scans
/// the naive loop would have performed that the event-driven loop
/// skipped; `skipped_cycles` is the number of whole cycles neither loop
/// visits (both fast-forward those, charging them as stall/idle time).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FastForwardStats {
    /// Clock advances of more than one cycle.
    pub jumps: u64,
    /// Cycles skipped by those jumps (never visited by the loop).
    pub skipped_cycles: u64,
    /// Cycles the loop actually visited.
    pub visited_cycles: u64,
    /// Per-SM processing steps actually executed (the naive loop would
    /// have executed `visited_cycles * total_sms`).
    pub sm_steps: u64,
}

/// Counters describing how the data-oriented (SoA) engine core spent
/// its effort, accumulated across every kernel a [`GpuSim`] has run.
/// Exported to the trace layer as `sim.soa.*` counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SoaStats {
    /// Bitmask scans performed (free-CTA-slot probes plus
    /// exhausted-warp checks).
    pub mask_scans: u64,
    /// Retire scans skipped because the exhausted mask was empty.
    pub retire_scans_skipped: u64,
}

/// Per-SM bookkeeping of the event-driven loop, kept apart from
/// [`KernelState`] so [`EventLoopState::visit`] can borrow both mutably
/// at once.
#[derive(Default)]
struct EventLoopState {
    /// Earliest `ready_at` among the SM's live warps; `u64::MAX` when
    /// none. Valid while the SM sleeps because sleeping SMs are exactly
    /// those whose state no cycle can change.
    ready_wake: Vec<u64>,
    /// Free CTA slot && CTA pending — processed at every visited cycle
    /// (the naive loop refills on visited cycles only, so refill times
    /// must not influence which cycles are visited — see DESIGN.md §12).
    refill_eligible: Vec<bool>,
    /// First cycle not yet charged to this SM (lazy idle/stall
    /// accounting for sleeping SMs).
    acct: Vec<u64>,
    /// Resident status while sleeping (constant between processings).
    sleeping_resident: Vec<bool>,
    /// Visited-cycle iteration of the SM's last processing (for
    /// round-robin pointer catch-up: naive advances rr once per
    /// *visited* cycle with warps resident, not per calendar cycle).
    last_iter: Vec<u64>,
    /// SMs that can still make progress: the per-cycle SM walk scans
    /// this mask word by word instead of testing a dead flag per SM.
    live_mask: BitWords,
    /// Count of members in `live_mask`; the kernel is drained when it
    /// reaches zero.
    live: usize,
    /// Visited-cycle counter (drives the rr catch-up above).
    iter: u64,
}

impl EventLoopState {
    /// Re-arms the bookkeeping for a kernel over `total_sms` SMs
    /// starting at cycle `start`. Every SM begins refill-eligible so the
    /// first visited cycle processes all of them, exactly like the
    /// naive loop.
    fn reset(&mut self, total_sms: usize, start: u64) {
        self.ready_wake.clear();
        self.ready_wake.resize(total_sms, u64::MAX);
        self.refill_eligible.clear();
        self.refill_eligible.resize(total_sms, true);
        self.acct.clear();
        self.acct.resize(total_sms, start);
        self.sleeping_resident.clear();
        self.sleeping_resident.resize(total_sms, false);
        self.last_iter.clear();
        self.last_iter.resize(total_sms, 0);
        self.live_mask.clear();
        self.live_mask.grow_to(total_sms);
        for flat in 0..total_sms {
            self.live_mask.set(flat);
        }
        self.live = total_sms;
        self.iter = 0;
    }

    /// Processes one visited cycle: wakes every SM that can make
    /// progress at `now`, applies its lazy sleep accounting, steps it,
    /// and refreshes its wake/refill state. Returns whether any warp
    /// anywhere issued. The walk is ascending-SM-order identical to the
    /// naive loop's `for flat in 0..total_sms` (each mask word is
    /// snapshotted so the body may retire the SM it is processing).
    fn visit(
        &mut self,
        ctx: &KernelCtx<'_>,
        st: &mut KernelState,
        mem: &mut MemorySystem,
        soa: &mut SoaStats,
        sm_steps: &mut u64,
        now: u64,
    ) -> bool {
        self.iter += 1;
        let iter = self.iter;
        let issue_width = ctx.issue_width;
        let iw = issue_width as u64;
        let mut issued_any = false;

        for wi in 0..self.live_mask.word_count() {
            let mut word = self.live_mask.word(wi);
            while word != 0 {
                let flat = wi * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                if !(self.refill_eligible[flat] || self.ready_wake[flat] <= now) {
                    continue; // sleeping
                }

                // Lazy catch-up for the cycles this SM slept through.
                let slept = now - self.acct[flat];
                if slept > 0 {
                    st.counts.idle_sm_cycles += slept;
                    if self.sleeping_resident[flat] {
                        st.counts.stall_cycles += iw * slept;
                    }
                    let missed_iters = iter - 1 - self.last_iter[flat];
                    let n = st.pool.order_len[flat] as usize;
                    if n > 0 && missed_iters > 0 {
                        let r = st.pool.rr[flat] as usize;
                        st.pool.rr[flat] =
                            ((r % n + (missed_iters % n as u64) as usize) % n) as u32;
                    }
                }

                let step = GpuSim::step_sm(ctx, st, mem, soa, flat, now);
                *sm_steps += 1;
                if step.issued > 0 {
                    issued_any = true;
                }
                st.charge_cycle(step.issued, step.resident, issue_width);
                self.acct[flat] = now + 1;
                self.last_iter[flat] = iter;
                self.sleeping_resident[flat] = step.resident;
                self.refill_eligible[flat] = step.cta_pending && step.free_slot;
                if !step.resident && !step.cta_pending {
                    self.live_mask.unset(flat);
                    self.live -= 1;
                    self.ready_wake[flat] = u64::MAX;
                } else {
                    self.ready_wake[flat] = step.wake;
                }
            }
        }
        issued_any
    }

    /// The earliest wake time across all SMs (`u64::MAX` when nothing
    /// is pending) — the fast-forward jump target when no warp issued.
    fn min_wake(&self) -> u64 {
        self.ready_wake.iter().copied().min().unwrap_or(u64::MAX)
    }

    /// Final flush: the naive loop keeps charging drained SMs one idle
    /// cycle per visited cycle until the whole kernel drains; `through`
    /// is one past the final visited cycle.
    fn flush_idle(&self, st: &mut KernelState, through: u64) {
        for &charged in &self.acct {
            if charged < through {
                st.counts.idle_sm_cycles += through - charged;
            }
        }
    }
}

/// Debug build check that fast-forwarding from `now` to `next` jumps
/// over no ready event: every live warp's wake-up lies at or beyond the
/// target. Compiled to nothing in release builds.
#[allow(unused_variables)]
fn debug_assert_no_skip(st: &KernelState, now: u64, next: u64) {
    #[cfg(debug_assertions)]
    if next > now + 1 {
        for flat in 0..st.pool.total_sms {
            let wbase = flat * st.pool.stride;
            let n = st.pool.order_len[flat] as usize;
            for &s in &st.pool.order[wbase..wbase + n] {
                let ready_at = st.pool.ready_at[wbase + s as usize];
                debug_assert!(
                    ready_at <= now || ready_at >= next,
                    "fast-forward from {now} to {next} skips a warp ready at {ready_at}"
                );
            }
        }
    }
}

/// Reusable per-kernel allocations owned by [`GpuSim`]: the warp-state
/// columns and the event-loop bookkeeping vectors. Taken at kernel
/// launch, reset in place, and returned at kernel end, so steady-state
/// workloads allocate nothing per kernel.
#[derive(Default)]
struct EngineScratch {
    pool: WarpPool,
    gpm_issued: Vec<usize>,
    els: EventLoopState,
}

/// Immutable per-kernel parameters shared by every loop implementation.
struct KernelCtx<'a> {
    program: &'a dyn KernelProgram,
    partition: CtaPartition,
    warps_per_cta: usize,
    issue_width: usize,
    sms_per_gpm: usize,
    mlp_per_warp: usize,
    gto: bool,
    /// The kernel's single shared instruction sequence, when every warp
    /// runs the same one ([`KernelProgram::uniform_warp_program`]):
    /// decoded once here, shared by every warp slot, never re-decoded
    /// through the boxed iterators.
    uniform: Option<Arc<[WarpInstr]>>,
}

/// Mutable per-kernel state for the whole GPU: the warp pool, CTAs
/// handed out per GPM, and the kernel's event counts.
struct KernelState {
    pool: WarpPool,
    gpm_issued: Vec<usize>,
    counts: EventCounts,
    done_ctas: u32,
}

impl KernelState {
    /// Accounting for one SM over one visited cycle — the same charges
    /// whether the SM was processed (naive) or slept through it (event-
    /// driven lazy catch-up with `issued == 0`).
    fn charge_cycle(&mut self, issued: usize, resident: bool, issue_width: usize) {
        if issued > 0 {
            self.counts.busy_sm_cycles += 1;
            self.counts.stall_cycles += (issue_width - issued) as u64;
        } else if resident {
            self.counts.idle_sm_cycles += 1;
            self.counts.stall_cycles += issue_width as u64;
        } else {
            self.counts.idle_sm_cycles += 1;
        }
    }
}

/// Outcome of processing one SM at one visited cycle.
struct SmStep {
    /// Instructions issued this cycle (0..=issue_width).
    issued: usize,
    /// Post-step: the SM still holds live warps.
    resident: bool,
    /// Post-step: a CTA remains unassigned for this SM's module.
    cta_pending: bool,
    /// Post-step: the SM has a free resident-CTA slot.
    free_slot: bool,
    /// Post-step: earliest cycle at which a live warp needs service
    /// (`u64::MAX` when none). May be conservatively early — an extra
    /// zero-issue visit charges exactly like the naive loop's — but is
    /// never later than the true next event.
    wake: u64,
}

/// The multi-module GPU simulator.
///
/// State (module-side L2 contents, first-touch page placements, resource
/// queues, the global clock) persists across kernel launches within a
/// workload, with software-coherence flushes at each kernel boundary.
///
/// # Examples
///
/// ```
/// use sim::{GpuConfig, GpuSim};
/// use isa::{GridShape, KernelProgram, MemRef, WarpInstr, WarpInstrStream, Opcode};
/// use common::{CtaId, WarpId};
///
/// struct Saxpy;
/// impl KernelProgram for Saxpy {
///     fn name(&self) -> &str { "saxpy" }
///     fn grid(&self) -> GridShape { GridShape::new(8, 2) }
///     fn warp_instructions(&self, cta: CtaId, warp: WarpId) -> WarpInstrStream {
///         let base = (cta.0 as u64 * 2 + warp.0 as u64) * 256;
///         Box::new([
///             WarpInstr::Mem(MemRef::global_load(base)),
///             WarpInstr::Compute(Opcode::FFma32),
///             WarpInstr::Mem(MemRef::global_store(base + 128)),
///         ].into_iter())
///     }
/// }
///
/// let mut sim = GpuSim::new(&GpuConfig::tiny(1));
/// let result = sim.run_kernel(&Saxpy);
/// assert_eq!(result.ctas, 8);
/// assert!(result.cycles > 0);
/// ```
pub struct GpuSim {
    cfg: GpuConfig,
    mem: MemorySystem,
    now: u64,
    mode: EngineMode,
    ff: FastForwardStats,
    soa: SoaStats,
    scratch: EngineScratch,
}

impl GpuSim {
    /// Creates a simulator for a configuration, using the process-wide
    /// default [`EngineMode`] (see [`EngineMode::from_env`]).
    pub fn new(cfg: &GpuConfig) -> Self {
        GpuSim::with_mode(cfg, EngineMode::from_env())
    }

    /// Creates a simulator with an explicit clock-advance strategy.
    pub fn with_mode(cfg: &GpuConfig, mode: EngineMode) -> Self {
        GpuSim {
            cfg: cfg.clone(),
            mem: MemorySystem::new(cfg),
            now: 0,
            mode,
            ff: FastForwardStats::default(),
            soa: SoaStats::default(),
            scratch: EngineScratch::default(),
        }
    }

    /// The configuration this simulator runs.
    pub fn config(&self) -> &GpuConfig {
        &self.cfg
    }

    /// The memory system (diagnostics: hit rates, page balance).
    pub fn memory(&self) -> &MemorySystem {
        &self.mem
    }

    /// The clock-advance strategy this simulator uses.
    pub fn mode(&self) -> EngineMode {
        self.mode
    }

    /// Fast-forward counters accumulated over every kernel run so far
    /// (all zero under [`EngineMode::Naive`]).
    pub fn fast_forward_stats(&self) -> FastForwardStats {
        self.ff
    }

    /// Data-oriented-core counters accumulated over every kernel run so
    /// far (bitmask scans, skipped retire passes).
    pub fn soa_stats(&self) -> SoaStats {
        self.soa
    }

    /// Runs one kernel to completion and returns its event counts.
    pub fn run_kernel(&mut self, program: &dyn KernelProgram) -> KernelResult {
        match self.mode {
            EngineMode::EventDriven => self.run_kernel_with(program, LoopKind::Event),
            EngineMode::Naive => self.run_kernel_with(program, LoopKind::Naive),
            EngineMode::Shadow => self.run_shadowed(program),
        }
    }

    /// Runs the naive reference on a clone of the machine, then the
    /// event-driven loop on `self` (which stays authoritative), asserting
    /// bit-identical results and memory-side counters.
    fn run_shadowed(&mut self, program: &dyn KernelProgram) -> KernelResult {
        let mut reference = GpuSim {
            cfg: self.cfg.clone(),
            mem: self.mem.clone(),
            now: self.now,
            mode: EngineMode::Naive,
            ff: FastForwardStats::default(),
            soa: SoaStats::default(),
            scratch: EngineScratch::default(),
        };
        let expected = reference.run_kernel_with(program, LoopKind::Naive);
        let got = self.run_kernel_with(program, LoopKind::Event);
        assert_eq!(
            got, expected,
            "shadow mode: event-driven result diverged from the naive reference"
        );
        assert_eq!(
            self.now,
            reference.now,
            "shadow mode: clocks diverged after kernel {:?}",
            program.name()
        );
        assert_eq!(
            self.mem.txns(),
            reference.mem.txns(),
            "shadow mode: memory-side transaction counts diverged"
        );
        assert_eq!(
            self.mem.inter_gpm_hop_bytes(),
            reference.mem.inter_gpm_hop_bytes(),
            "shadow mode: NoC hop-byte counters diverged"
        );
        got
    }

    /// Shared kernel setup/teardown around the selected cycle loop.
    fn run_kernel_with(&mut self, program: &dyn KernelProgram, kind: LoopKind) -> KernelResult {
        let _span = trace::span("sim.kernel");
        let grid = program.grid();
        let num_gpms = self.cfg.num_gpms;
        let sms_per_gpm = self.cfg.gpm.sms;
        let total_sms = self.cfg.total_sms();

        // CTA partition across GPMs (contiguous by default, round-robin
        // under the scheduling ablation).
        let ctas = grid.ctas as usize;
        let warps_per_cta = grid.warps_per_cta as usize;
        let max_ctas_per_sm = (self.cfg.gpm.max_resident_warps / warps_per_cta).max(1);

        let ctx = KernelCtx {
            program,
            partition: CtaPartition::new(self.cfg.cta_schedule, ctas, num_gpms),
            warps_per_cta,
            issue_width: self.cfg.gpm.issue_width as usize,
            sms_per_gpm,
            mlp_per_warp: self.cfg.gpm.mlp_per_warp,
            gto: self.cfg.warp_scheduler == crate::config::WarpScheduler::GreedyThenOldest,
            uniform: program.uniform_warp_program().map(Arc::from),
        };

        // Event accumulation (memory-side counts snapshot for deltas).
        let txns_before = self.mem.txns().clone();
        let hop_before = self.mem.inter_gpm_hop_bytes();
        let e2e_before = self.mem.inter_gpm_bytes();
        let switch_before = self.mem.switch_bytes();

        let start = self.now;
        let ff_before = self.ff;
        let soa_before = self.soa;

        // Reuse the per-kernel allocations owned by the sim: take the
        // warp-state columns out of the scratch pool, reset them in
        // place, and return them at kernel end.
        let mut pool = std::mem::take(&mut self.scratch.pool);
        pool.reset(
            total_sms,
            max_ctas_per_sm * warps_per_cta,
            max_ctas_per_sm,
            ctx.mlp_per_warp.max(1),
        );
        let mut gpm_issued = std::mem::take(&mut self.scratch.gpm_issued);
        gpm_issued.clear();
        gpm_issued.resize(num_gpms, 0);
        let mut st = KernelState {
            pool,
            gpm_issued,
            counts: EventCounts::new(),
            done_ctas: 0,
        };
        let mut now = match kind {
            LoopKind::Naive => self.run_loop_naive(&ctx, &mut st, start),
            LoopKind::Event => self.run_loop_event(&ctx, &mut st, start),
        };
        self.scratch.pool = std::mem::take(&mut st.pool);
        self.scratch.gpm_issued = std::mem::take(&mut st.gpm_issued);
        let (mut counts, done_ctas) = (st.counts, st.done_ctas);

        if kind != LoopKind::Naive {
            let d = self.ff;
            trace::count("sim.ff.jumps", d.jumps - ff_before.jumps);
            trace::count(
                "sim.ff.skipped_cycles",
                d.skipped_cycles - ff_before.skipped_cycles,
            );
            trace::count(
                "sim.ff.visited_cycles",
                d.visited_cycles - ff_before.visited_cycles,
            );
            trace::count("sim.ff.sm_steps", d.sm_steps - ff_before.sm_steps);
            let s = self.soa;
            trace::count("sim.soa.mask_scans", s.mask_scans - soa_before.mask_scans);
            trace::count(
                "sim.soa.retire_scans_skipped",
                s.retire_scans_skipped - soa_before.retire_scans_skipped,
            );
        }

        // Software coherence at the kernel boundary.
        now = self.mem.kernel_boundary(now).max(now);
        self.now = now;

        let cycles = now - start;
        counts.elapsed = common::Cycles::new(cycles) / self.cfg.gpm.clock;

        // Memory-side deltas against the pre-kernel snapshot.
        let mut txns = isa::TxnCounts::new();
        for (t, n) in self.mem.txns().iter() {
            txns.add(t, n - txns_before.get(t));
        }
        let hop_bytes = self.mem.inter_gpm_hop_bytes() - hop_before;
        let e2e_bytes = self.mem.inter_gpm_bytes() - e2e_before;
        let switch_bytes = self.mem.switch_bytes() - switch_before;
        txns.add(
            isa::Transaction::InterGpmHop,
            hop_bytes / isa::Transaction::InterGpmHop.bytes_per_txn(),
        );
        txns.add(
            isa::Transaction::SwitchTraversal,
            switch_bytes / isa::Transaction::SwitchTraversal.bytes_per_txn(),
        );
        counts.txns = txns;
        counts.inter_gpm_bytes = common::Bytes::new(e2e_bytes);
        counts.inter_gpm_hop_bytes = common::Bytes::new(hop_bytes);
        counts.switch_bytes = common::Bytes::new(switch_bytes);

        KernelResult {
            name: program.name().to_string(),
            counts,
            cycles,
            ctas: done_ctas,
        }
    }

    /// One scheduler poll of a warp slot `g` (already known ready) on
    /// SM `flat`: either issues the pending instruction (returns
    /// `true`) or makes the bookkeeping-only transition the historical
    /// poll made — the MLP-limit stall re-arm, or the exhausted-stream
    /// skip (`false`).
    ///
    /// An associated function over split borrows so both scheduler scan
    /// shapes share it without aliasing `KernelState`; memory accesses
    /// go straight into `mem`.
    #[allow(clippy::too_many_arguments)]
    fn poll_issue(
        pool: &mut WarpPool,
        counts: &mut EventCounts,
        mem: &mut MemorySystem,
        ctx: &KernelCtx,
        sm_id: SmId,
        flat: usize,
        g: usize,
        now: u64,
    ) -> bool {
        let Some(instr) = pool.pending[g] else {
            return false;
        };
        // Loads are pipelined per warp up to the MLP limit; a warp at
        // the limit stalls until one of its loads returns.
        if matches!(instr, WarpInstr::Mem(m) if !m.is_store) {
            pool.ring_retain(g, now);
            if pool.out_len[g] as usize >= ctx.mlp_per_warp {
                pool.ready_at[g] = pool.ring_min(g).unwrap_or(now + 1);
                return false;
            }
        }
        match instr {
            WarpInstr::Compute(op) => {
                counts.instrs.add(op, WARP_SIZE as u64);
                pool.ready_at[g] = now + op.latency_cycles() as u64;
            }
            WarpInstr::Mem(mref) => {
                let out = mem.access(sm_id, mref, now);
                if out.blocking && !mref.is_store {
                    pool.ring_push(g, out.completion);
                    pool.ready_at[g] = now + 1;
                } else if out.blocking {
                    // Write-buffer backpressure.
                    pool.ready_at[g] = out.completion;
                } else {
                    pool.ready_at[g] = now + 1;
                }
            }
        }
        pool.streams[g].advance();
        pool.pending[g] = pool.streams[g].current();
        if pool.pending[g].is_none() {
            // Stream exhausted: the warp drains its outstanding loads
            // and retires in a later cleanup pass.
            pool.ready_at[g] = pool.ring_max(g).unwrap_or(now + 1);
            pool.exhausted.set(g);
            pool.exhausted_cnt[flat] += 1;
        }
        true
    }

    /// Processes one SM for one visited cycle: refill at most one CTA,
    /// issue up to `issue_width` instructions, retire drained warps.
    /// Accounting is left to the caller (the two loops charge visited
    /// and slept cycles differently, but through the same rates).
    ///
    /// `flat` is the SM's GPU-wide index; its module and in-module id
    /// follow from `sms_per_gpm`.
    fn step_sm(
        ctx: &KernelCtx,
        st: &mut KernelState,
        mem: &mut MemorySystem,
        soa: &mut SoaStats,
        flat: usize,
        now: u64,
    ) -> SmStep {
        let gpm = flat / ctx.sms_per_gpm;
        let sm_id = SmId::new(
            GpmId::new(gpm as u16),
            (flat - gpm * ctx.sms_per_gpm) as u16,
        );
        let issue_width = ctx.issue_width;
        let pool = &mut st.pool;
        let wbase = flat * pool.stride;

        // Refill at most one CTA per SM per cycle (breadth-first across
        // the module's SMs, like a hardware CTA scheduler; filling one
        // SM's slots greedily would cluster small grids onto SM0).
        // `cta_next` doubles as the post-step `cta_pending` answer: it
        // is re-read only when this step consumed a CTA.
        let mut cta_next = ctx.partition.nth_for(gpm, st.gpm_issued[gpm]);
        if let Some(cta) = cta_next {
            soa.mask_scans += 1;
            if let Some(slot_idx) = pool.cta_first_free(flat) {
                st.gpm_issued[gpm] += 1;
                cta_next = ctx.partition.nth_for(gpm, st.gpm_issued[gpm]);
                let cslot = flat * pool.cta_stride + slot_idx;
                pool.cta_live[cslot] = ctx.warps_per_cta as u32;
                pool.cta_free.unset(cslot);
                pool.cta_free_cnt[flat] -= 1;
                for w in 0..ctx.warps_per_cta {
                    let landed = if let Some(uni) = &ctx.uniform {
                        pool.alloc_warp(flat, |s| s.reset_shared(uni.clone()), slot_idx as u32, now)
                    } else {
                        let stream = ctx
                            .program
                            .warp_instructions(CtaId::new(cta as u32), WarpId::new(w as u32));
                        pool.alloc_warp(flat, |s| s.reset(stream), slot_idx as u32, now)
                    };
                    if !landed {
                        // Degenerate empty warp: retire instantly.
                        pool.cta_live[cslot] -= 1;
                        if pool.cta_live[cslot] == 0 {
                            pool.cta_free.set(cslot);
                            pool.cta_free_cnt[flat] += 1;
                            st.done_ctas += 1;
                        }
                    }
                }
            }
        }

        // Issue up to issue_width instructions, in policy order: loose
        // round robin rotates through the physical order; greedy-then-
        // oldest prefers the warp it issued from last, then walks the
        // age-ordered list — the same sequence the historical
        // `sort_by_key((age != greedy, age))` produced, without the
        // per-cycle sort.
        let n = pool.order_len[flat] as usize;
        let mut issued = 0usize;
        let mut first_issued_slot = NONE;
        // Earliest future service time, folded into the scans this step
        // already performs; `true` forces a full end-of-step rescan on
        // the paths that mutate `ready_at` outside that fold.
        let mut wake = u64::MAX;
        let mut wake_rescan = false;
        if n > 0 {
            let start_rr = {
                // rr is stored already wrapped; it can only exceed the
                // live count when warps retired since the last step.
                let r = pool.rr[flat] as usize;
                if r >= n {
                    r % n
                } else {
                    r
                }
            };
            if !ctx.gto && n <= 64 {
                // Loose-round-robin mask fast path: one branchless pass
                // builds a position-indexed ready mask, then only the
                // (typically zero or one) ready warps are visited — via
                // `trailing_zeros`, in the exact rotated position order
                // the historical poll-every-warp loop used. Warps that
                // are not ready are pure no-op polls in that loop, so
                // never visiting them is unobservable.
                let mut posmask: u64 = 0;
                for p in 0..n {
                    let s = pool.order[wbase + p] as usize;
                    let ra = pool.ready_at[wbase + s];
                    let ready = ra <= now;
                    posmask |= (ready as u64) << p;
                    // Not-ready warps keep their ready_at through the
                    // whole step (only the retire pass re-arms them,
                    // and it triggers a rescan), so fold their wake
                    // time here instead of re-scanning after issue.
                    wake = wake.min(if ready { u64::MAX } else { ra });
                }
                // Split at the rotation point instead of rotating, so
                // bit indices stay raw positions.
                let ge_rr = (u64::MAX >> (64 - n)) << start_rr;
                let mut hi = posmask & ge_rr;
                let mut lo = posmask & !ge_rr;
                while issued < issue_width {
                    let p = if hi != 0 {
                        let p = hi.trailing_zeros() as usize;
                        hi &= hi - 1;
                        p
                    } else if lo != 0 {
                        let p = lo.trailing_zeros() as usize;
                        lo &= lo - 1;
                        p
                    } else {
                        break;
                    };
                    let s = pool.order[wbase + p];
                    let g = wbase + s as usize;
                    if Self::poll_issue(pool, &mut st.counts, mem, ctx, sm_id, flat, g, now) {
                        if first_issued_slot == NONE {
                            first_issued_slot = s;
                        }
                        issued += 1;
                    }
                    // Issued or stalled, the poll leaves ready_at as
                    // this warp's next service time (an exhausted
                    // stream additionally triggers the rescan below).
                    wake = wake.min(pool.ready_at[g]);
                }
                if hi | lo != 0 {
                    // Ready warps left unvisited by the issue-width cap
                    // are issuable again next cycle.
                    wake = wake.min(now + 1);
                }
            } else {
                // Generic poll loop: the greedy-then-oldest list walk
                // (any warp count), or loose round robin across more
                // than 64 resident warps.
                wake_rescan = true;
                let mut rr_idx = start_rr;
                let greedy = pool.greedy[flat];
                let mut cursor = if greedy != NONE {
                    greedy
                } else {
                    pool.gto_head[flat]
                };
                for _k in 0..n {
                    if issued == issue_width {
                        break;
                    }
                    let i = if ctx.gto {
                        let cur = cursor;
                        let mut nx = if cur == greedy {
                            pool.gto_head[flat]
                        } else {
                            pool.gto_next[wbase + cur as usize]
                        };
                        if nx != NONE && nx == greedy {
                            nx = pool.gto_next[wbase + nx as usize];
                        }
                        cursor = nx;
                        cur as usize
                    } else {
                        let i = pool.order[wbase + rr_idx] as usize;
                        rr_idx += 1;
                        if rr_idx == n {
                            rr_idx = 0;
                        }
                        i
                    };
                    let g = wbase + i;
                    if pool.ready_at[g] > now {
                        continue;
                    }
                    if Self::poll_issue(pool, &mut st.counts, mem, ctx, sm_id, flat, g, now) {
                        if first_issued_slot == NONE {
                            first_issued_slot = i as u32;
                        }
                        issued += 1;
                    }
                }
            }
            pool.rr[flat] = if start_rr + 1 == n {
                0
            } else {
                (start_rr + 1) as u32
            };
            if ctx.gto && first_issued_slot != NONE {
                pool.greedy[flat] = first_issued_slot;
            }
        }

        // Retire warps whose stream is exhausted once their last loads
        // have returned (a warp never abandons in-flight memory). The
        // exhausted count makes the no-retirement case — every visited
        // cycle of a compute-bound kernel's steady state — one counter
        // test instead of a scan; removal from `order` keeps the exact
        // `swap_remove` physical reordering.
        soa.mask_scans += 1;
        if pool.exhausted_cnt[flat] > 0 {
            // Retirement and load-drain re-arming move ready_at under
            // the incremental fold's feet; recompute from scratch.
            wake_rescan = true;
            let mut len = pool.order_len[flat] as usize;
            let mut wi = 0;
            while wi < len {
                let s = pool.order[wbase + wi];
                let g = wbase + s as usize;
                if pool.exhausted.get(g) {
                    pool.ring_retain(g, now);
                    if pool.out_len[g] == 0 {
                        let cslot = flat * pool.cta_stride + pool.cta_of[g] as usize;
                        pool.cta_live[cslot] -= 1;
                        if pool.cta_live[cslot] == 0 {
                            pool.cta_free.set(cslot);
                            pool.cta_free_cnt[flat] += 1;
                            st.done_ctas += 1;
                        }
                        pool.retire_slot(flat, s);
                        pool.order[wbase + wi] = pool.order[wbase + len - 1];
                        len -= 1;
                        continue;
                    }
                    // Wake exactly when the last load lands.
                    pool.ready_at[g] = pool.ring_max(g).unwrap_or(now + 1);
                }
                wi += 1;
            }
            pool.order_len[flat] = len as u32;
        } else {
            soa.retire_scans_skipped += 1;
        }

        SmStep {
            issued,
            resident: pool.resident(flat),
            cta_pending: cta_next.is_some(),
            free_slot: pool.cta_free_cnt[flat] > 0,
            wake: if wake_rescan {
                pool.next_ready(flat)
            } else {
                wake
            },
        }
    }

    /// The reference loop: every SM is processed on every visited cycle;
    /// when no warp anywhere issued, the clock jumps to the next wake-up,
    /// charging the skipped cycles as memory-wait (stall) time — the
    /// quantity that drives the paper's constant-energy exposure at
    /// scale. This is the historical seed behavior, kept bit-for-bit.
    fn run_loop_naive(&mut self, ctx: &KernelCtx, st: &mut KernelState, start: u64) -> u64 {
        let total_sms = st.pool.total_sms;
        let issue_width = ctx.issue_width;
        let mut now = start;
        loop {
            let mut issued_any = false;
            let mut all_drained = true;

            for flat in 0..total_sms {
                let step = Self::step_sm(ctx, st, &mut self.mem, &mut self.soa, flat, now);
                if step.issued > 0 {
                    issued_any = true;
                }
                st.charge_cycle(step.issued, step.resident, issue_width);
                if step.resident || step.cta_pending {
                    all_drained = false;
                }
            }

            if all_drained {
                break;
            }

            if issued_any {
                now += 1;
            } else {
                // Nothing issued anywhere: jump to the next wake-up.
                let mut min_ready = u64::MAX;
                for flat in 0..total_sms {
                    min_ready = min_ready.min(st.pool.next_ready(flat));
                }
                let next = if min_ready == u64::MAX {
                    now + 1
                } else {
                    min_ready.max(now + 1)
                };
                let skipped = next - now - 1; // the current cycle is already accounted
                if skipped > 0 {
                    for flat in 0..total_sms {
                        if st.pool.resident(flat) {
                            st.counts.idle_sm_cycles += skipped;
                            st.counts.stall_cycles += issue_width as u64 * skipped;
                        } else {
                            st.counts.idle_sm_cycles += skipped;
                        }
                    }
                }
                now = next;
            }
        }
        now
    }

    /// The event-driven loop. Equivalent to `run_loop_naive`
    /// but it only *processes* SMs that can make progress at the visited
    /// cycle; the rest sleep. Per SM it tracks:
    ///
    /// * `ready_wake` — the earliest `ready_at` among its live warps
    ///   (what `WarpPool::next_ready` computes, maintained
    ///   incrementally). Valid while the SM sleeps because sleeping SMs
    ///   are exactly those whose state no cycle can change.
    /// * `refill_eligible` — a free CTA slot plus a CTA remaining for its
    ///   module. Such an SM is processed at *every visited* cycle (the
    ///   naive loop refills on visited cycles only, so refill times must
    ///   not influence which cycles are visited — see DESIGN.md §12).
    /// * lazy accounting — a sleeping SM's idle/stall charges and its
    ///   round-robin pointer advances are applied in one batch when it
    ///   wakes, at the same rates the naive loop applies per cycle.
    ///
    /// The visited-cycle sequence is therefore identical to the naive
    /// loop's: `now + 1` when any SM issued, else the minimum
    /// `ready_wake` (debug asserts check no ready event is ever jumped
    /// over).
    fn run_loop_event(&mut self, ctx: &KernelCtx, st: &mut KernelState, start: u64) -> u64 {
        let mut now = start;
        let mut els = std::mem::take(&mut self.scratch.els);
        els.reset(st.pool.total_sms, start);

        loop {
            self.ff.visited_cycles += 1;
            let issued_any = els.visit(
                ctx,
                st,
                &mut self.mem,
                &mut self.soa,
                &mut self.ff.sm_steps,
                now,
            );

            if els.live == 0 {
                break;
            }

            // Advance the clock exactly as the naive loop would: one
            // cycle while anything issued, else straight to the earliest
            // warp wake-up (refill-eligible SMs deliberately do not pull
            // the jump target closer — the naive loop skips their refill
            // opportunities on unvisited cycles too).
            let next = if issued_any {
                now + 1
            } else {
                let min_ready = els.min_wake();
                if min_ready == u64::MAX {
                    now + 1
                } else {
                    min_ready.max(now + 1)
                }
            };

            debug_assert_no_skip(st, now, next);

            if next > now + 1 {
                self.ff.jumps += 1;
                self.ff.skipped_cycles += next - now - 1;
            }
            now = next;
        }

        els.flush_idle(st, now + 1);

        // Return the bookkeeping vectors to the scratch pool.
        self.scratch.els = els;
        now
    }

    /// Walks a kernel's trace in CTA order and first-touch-places every
    /// page on the GPM its CTA is partitioned to, without simulating any
    /// timing or energy.
    ///
    /// This models what happens on real systems: data is written by an
    /// in-order initialization phase before the measured kernels run, so
    /// first-touch placement reflects the owning partition rather than
    /// the racy arrival order of a cold simulator start. Pages that are
    /// already placed (by an earlier kernel of the workload) keep their
    /// home.
    pub fn prefault(&mut self, program: &dyn KernelProgram) {
        let _span = trace::span("sim.prefault");
        let grid = program.grid();
        let partition =
            CtaPartition::new(self.cfg.cta_schedule, grid.ctas as usize, self.cfg.num_gpms);
        let regions = program.data_regions();
        if !regions.is_empty() {
            // Address order matches ownership order: place each region's
            // pages on the module whose CTA (under the active schedule)
            // owns that fraction of the address range, mirroring the
            // first touch an in-order init phase would perform.
            let page = self.cfg.page_bytes.count();
            for (base, len) in regions {
                if len == 0 {
                    continue;
                }
                let mut addr = base & !(page - 1);
                while addr < base + len {
                    let offset = addr.saturating_sub(base);
                    let cta = ((offset as u128 * grid.ctas as u128) / len as u128) as usize;
                    let gpm = partition.gpm_of(cta.min(grid.ctas as usize - 1));
                    self.mem.prefault_page(addr, GpmId::new(gpm as u16));
                    addr += page;
                }
            }
            return;
        }

        // Fallback: walk the trace in CTA order.
        for cta in 0..grid.ctas {
            let gpm = GpmId::new(partition.gpm_of(cta as usize) as u16);
            for warp in 0..grid.warps_per_cta {
                for instr in program.warp_instructions(CtaId::new(cta), WarpId::new(warp)) {
                    if let WarpInstr::Mem(mref) = instr {
                        if mref.space == isa::MemSpace::Global {
                            self.mem.prefault_page(mref.addr, gpm);
                        }
                    }
                }
            }
        }
    }

    /// Runs a workload: every launch in order, each [`LaunchSpec`]
    /// repeated its configured number of times. Each program is
    /// pre-faulted (see [`GpuSim::prefault`]) before its first launch.
    pub fn run_workload(&mut self, launches: &[LaunchSpec]) -> WorkloadResult {
        let _span = trace::span("sim.workload");
        let mut result = WorkloadResult::default();
        for launch in launches {
            self.prefault(launch.program.as_ref());
            for _ in 0..launch.invocations {
                result
                    .kernels
                    .push(self.run_kernel(launch.program.as_ref()));
            }
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BwSetting, GpuConfig, Topology};
    use isa::{GridShape, MemRef, Opcode, WarpInstrStream};

    impl GpuSim {
        /// Test helper: prefault, run one kernel, return NUMA hop-bytes.
        fn run_and_hops(mut self, k: &dyn KernelProgram) -> u64 {
            self.prefault(k);
            let r = self.run_kernel(k);
            r.counts.inter_gpm_hop_bytes.count()
        }
    }

    /// A compute-only kernel: `len` FMAs per warp.
    struct ComputeKernel {
        ctas: u32,
        warps: u32,
        len: u32,
    }

    impl KernelProgram for ComputeKernel {
        fn name(&self) -> &str {
            "compute"
        }
        fn grid(&self) -> GridShape {
            GridShape::new(self.ctas, self.warps)
        }
        fn warp_instructions(&self, _cta: CtaId, _warp: WarpId) -> WarpInstrStream {
            Box::new((0..self.len).map(|_| WarpInstr::Compute(Opcode::FFma32)))
        }
    }

    /// A streaming kernel: each warp strides through its own array slice.
    struct StreamKernel {
        ctas: u32,
        warps: u32,
        lines_per_warp: u32,
    }

    impl KernelProgram for StreamKernel {
        fn name(&self) -> &str {
            "stream"
        }
        fn grid(&self) -> GridShape {
            GridShape::new(self.ctas, self.warps)
        }
        fn warp_instructions(&self, cta: CtaId, warp: WarpId) -> WarpInstrStream {
            let wpc = self.warps as u64;
            let stride = self.lines_per_warp as u64 * 128;
            let base = (cta.0 as u64 * wpc + warp.0 as u64) * stride;
            Box::new(
                (0..self.lines_per_warp as u64)
                    .map(move |i| WarpInstr::Mem(MemRef::global_load(base + i * 128))),
            )
        }
    }

    #[test]
    fn compute_kernel_counts_thread_instructions() {
        let mut sim = GpuSim::new(&GpuConfig::tiny(1));
        let k = ComputeKernel {
            ctas: 8,
            warps: 4,
            len: 50,
        };
        let r = sim.run_kernel(&k);
        assert_eq!(r.ctas, 8);
        assert_eq!(
            r.counts.instrs.get(Opcode::FFma32),
            8 * 4 * 50 * WARP_SIZE as u64
        );
        assert!(r.cycles > 50, "latency-bound lower bound");
    }

    #[test]
    fn compute_kernel_scales_with_sm_count() {
        let k = ComputeKernel {
            ctas: 64,
            warps: 8,
            len: 100,
        };
        let mut sim1 = GpuSim::new(&GpuConfig::tiny(1));
        let c1 = sim1.run_kernel(&k).cycles;
        let mut sim4 = GpuSim::new(&GpuConfig::tiny(4));
        let c4 = sim4.run_kernel(&k).cycles;
        let speedup = c1 as f64 / c4 as f64;
        assert!(
            speedup > 2.5,
            "4x SMs should speed up compute ~4x, got {speedup:.2}"
        );
    }

    #[test]
    fn stream_kernel_is_dram_bound() {
        let mut sim = GpuSim::new(&GpuConfig::tiny(1));
        let k = StreamKernel {
            ctas: 16,
            warps: 4,
            lines_per_warp: 64,
        };
        let r = sim.run_kernel(&k);
        // 16*4*64 lines * 128 B at 256 B/cycle = at least 2048 cycles.
        let min_cycles = (16 * 4 * 64 * 128) / 256;
        assert!(
            r.cycles as f64 > 0.8 * min_cycles as f64,
            "cycles {} should approach DRAM bound {}",
            r.cycles,
            min_cycles
        );
        assert!(r.counts.stall_cycles > 0, "memory-bound kernels stall");
        assert!(r.counts.idle_fraction() > 0.0);
    }

    #[test]
    fn elapsed_matches_cycles_at_1ghz() {
        let mut sim = GpuSim::new(&GpuConfig::tiny(1));
        let r = sim.run_kernel(&ComputeKernel {
            ctas: 4,
            warps: 2,
            len: 20,
        });
        assert!((r.counts.elapsed.nanos() - r.cycles as f64).abs() < 1e-6);
    }

    #[test]
    fn workload_runs_repeated_launches() {
        let mut sim = GpuSim::new(&GpuConfig::tiny(1));
        let launches = vec![LaunchSpec::repeated(
            Box::new(ComputeKernel {
                ctas: 2,
                warps: 2,
                len: 10,
            }),
            3,
        )];
        let result = sim.run_workload(&launches);
        assert_eq!(result.launches(), 3);
        assert!(result.total_cycles() > 0);
    }

    #[test]
    fn deterministic_across_runs() {
        let k = StreamKernel {
            ctas: 8,
            warps: 4,
            lines_per_warp: 16,
        };
        let mut a = GpuSim::new(&GpuConfig::tiny(2));
        let mut b = GpuSim::new(&GpuConfig::tiny(2));
        let ra = a.run_kernel(&k);
        let rb = b.run_kernel(&k);
        assert_eq!(ra, rb);
    }

    #[test]
    fn multi_gpm_generates_inter_module_traffic_for_shared_data() {
        // All CTAs read the same shared array: first toucher homes it and
        // everyone else must cross the NoC.
        struct SharedReader;
        impl KernelProgram for SharedReader {
            fn name(&self) -> &str {
                "shared-reader"
            }
            fn grid(&self) -> GridShape {
                GridShape::new(16, 2)
            }
            fn warp_instructions(&self, cta: CtaId, warp: WarpId) -> WarpInstrStream {
                // Each warp reads a distinct line from one shared region
                // (so the region is homed by whoever touches it first) —
                // lines spread over a few pages.
                let idx = (cta.0 as u64 * 2 + warp.0 as u64) * 8;
                Box::new((0..8u64).map(move |i| {
                    WarpInstr::Mem(MemRef::global_load(0x100_0000 + ((idx + i) % 1024) * 128))
                }))
            }
        }
        let mut sim = GpuSim::new(&GpuConfig::tiny(4));
        let r = sim.run_kernel(&SharedReader);
        assert!(
            r.counts.inter_gpm_hop_bytes.count() > 0,
            "shared pages must generate NUMA traffic"
        );
    }

    #[test]
    fn ideal_interconnect_removes_numa_penalty() {
        let k = StreamKernel {
            ctas: 32,
            warps: 4,
            lines_per_warp: 32,
        };
        let ring_cfg = GpuConfig {
            topology: Topology::Ring,
            ..GpuConfig::tiny(4)
        };
        let ideal_cfg = GpuConfig {
            topology: Topology::Ideal,
            ..GpuConfig::tiny(4)
        };
        let mut ring = GpuSim::new(&ring_cfg);
        let mut ideal = GpuSim::new(&ideal_cfg);
        let rr = ring.run_kernel(&k);
        let ri = ideal.run_kernel(&k);
        // First-touch makes this kernel mostly local, so the gap is small,
        // but ideal must never be slower and must carry zero hop bytes.
        assert!(ri.cycles <= rr.cycles);
        assert_eq!(ri.counts.inter_gpm_hop_bytes.count(), 0);
    }

    #[test]
    fn stores_count_but_do_not_block() {
        struct StoreKernel;
        impl KernelProgram for StoreKernel {
            fn name(&self) -> &str {
                "stores"
            }
            fn grid(&self) -> GridShape {
                GridShape::new(2, 2)
            }
            fn warp_instructions(&self, cta: CtaId, warp: WarpId) -> WarpInstrStream {
                let base = (cta.0 as u64 * 2 + warp.0 as u64) * 4096;
                Box::new(
                    (0..16u64).map(move |i| WarpInstr::Mem(MemRef::global_store(base + i * 128))),
                )
            }
        }
        let mut sim = GpuSim::new(&GpuConfig::tiny(1));
        let r = sim.run_kernel(&StoreKernel);
        assert!(r.counts.txns.get(isa::Transaction::L2ToL1) >= 2 * 2 * 16 * 4);
        // Store-only kernels retire fast (no blocking).
        assert!(
            r.cycles < 2000,
            "stores should not serialize, got {}",
            r.cycles
        );
    }

    #[test]
    fn gto_scheduler_executes_identical_work() {
        // Scheduling policy must not change *what* runs — only when. The
        // paper's §II abstraction argument in one test: event counts that
        // feed the energy model are schedule-invariant up to stall/idle
        // timing.
        let k = StreamKernel {
            ctas: 16,
            warps: 4,
            lines_per_warp: 24,
        };
        let mut lrr_sim = GpuSim::new(&GpuConfig::tiny(2));
        let lrr = lrr_sim.run_kernel(&k);
        let gto_cfg = GpuConfig {
            warp_scheduler: crate::config::WarpScheduler::GreedyThenOldest,
            ..GpuConfig::tiny(2)
        };
        let mut gto_sim = GpuSim::new(&gto_cfg);
        let gto = gto_sim.run_kernel(&k);
        assert_eq!(lrr.counts.instrs, gto.counts.instrs);
        assert_eq!(
            lrr.counts.txns.get(isa::Transaction::L1ToReg),
            gto.counts.txns.get(isa::Transaction::L1ToReg)
        );
        assert_eq!(lrr.ctas, gto.ctas);
        // Cycle counts are allowed to differ, but not wildly.
        let ratio = lrr.cycles as f64 / gto.cycles as f64;
        assert!(
            (0.5..2.0).contains(&ratio),
            "LRR {} vs GTO {}",
            lrr.cycles,
            gto.cycles
        );
    }

    #[test]
    fn round_robin_scheduling_still_completes_all_ctas() {
        let k = StreamKernel {
            ctas: 17,
            warps: 3,
            lines_per_warp: 8,
        };
        let cfg = GpuConfig {
            cta_schedule: crate::config::CtaSchedule::RoundRobin,
            ..GpuConfig::tiny(4)
        };
        let mut sim = GpuSim::new(&cfg);
        let r = sim.run_kernel(&k);
        assert_eq!(r.ctas, 17);
        assert_eq!(
            r.counts.txns.get(isa::Transaction::L1ToReg),
            17 * 3 * 8,
            "every load retired"
        );
    }

    #[test]
    fn interleaved_pages_spread_private_data_everywhere() {
        // A private stream under first-touch is local; interleaved pages
        // make most of it remote — the ablation the paper's placement
        // choice avoids.
        let k = StreamKernel {
            ctas: 32,
            warps: 4,
            lines_per_warp: 64,
        };
        let ft = GpuSim::new(&GpuConfig::tiny(4)).run_and_hops(&k);
        let il = GpuSim::new(&GpuConfig {
            page_policy: crate::config::PagePolicy::Interleaved,
            ..GpuConfig::tiny(4)
        })
        .run_and_hops(&k);
        assert!(
            il > ft,
            "interleaving must create more NUMA traffic: {il} vs {ft}"
        );
    }

    #[test]
    fn memory_side_l2_refetches_remote_lines() {
        // Reading the same remote lines twice: module-side caches them,
        // memory-side crosses the NoC both times.
        struct TwoPass;
        impl KernelProgram for TwoPass {
            fn name(&self) -> &str {
                "two-pass"
            }
            fn grid(&self) -> GridShape {
                GridShape::new(4, 2)
            }
            fn warp_instructions(&self, cta: CtaId, warp: WarpId) -> WarpInstrStream {
                let w = cta.0 as u64 * 2 + warp.0 as u64;
                // Everyone reads the same 128 lines twice — more lines
                // than the tiny L1 holds, so the second pass misses L1
                // and lands in an L2: the *local* one under module-side
                // caching, the *home* one (across the NoC) under
                // memory-side.
                Box::new(
                    (0..256u64).map(move |i| {
                        WarpInstr::Mem(MemRef::global_load(((i + w * 7) % 128) * 128))
                    }),
                )
            }
            fn data_regions(&self) -> Vec<(u64, u64)> {
                vec![(0, 128 * 128)]
            }
        }
        let module = GpuSim::new(&GpuConfig::tiny(4)).run_and_hops(&TwoPass);
        let memory = GpuSim::new(&GpuConfig {
            l2_mode: crate::config::L2Mode::MemorySide,
            ..GpuConfig::tiny(4)
        })
        .run_and_hops(&TwoPass);
        assert!(
            memory > module,
            "memory-side must re-cross the NoC: {memory} vs {module}"
        );
    }

    #[test]
    fn more_bandwidth_helps_memory_bound_multi_gpm() {
        // Remote-heavy reader: GPM0 touches everything first, then all
        // GPMs read it. Two kernels in one workload.
        struct Toucher;
        impl KernelProgram for Toucher {
            fn name(&self) -> &str {
                "touch"
            }
            fn grid(&self) -> GridShape {
                GridShape::new(1, 8)
            }
            fn warp_instructions(&self, _cta: CtaId, warp: WarpId) -> WarpInstrStream {
                let base = warp.0 as u64 * 512 * 128;
                Box::new(
                    (0..512u64).map(move |i| WarpInstr::Mem(MemRef::global_load(base + i * 128))),
                )
            }
        }
        struct Reader;
        impl KernelProgram for Reader {
            fn name(&self) -> &str {
                "read"
            }
            fn grid(&self) -> GridShape {
                GridShape::new(32, 4)
            }
            fn warp_instructions(&self, cta: CtaId, warp: WarpId) -> WarpInstrStream {
                let seed = cta.0 as u64 * 4 + warp.0 as u64;
                Box::new((0..64u64).map(move |i| {
                    let line = (seed * 97 + i * 131) % 4096;
                    WarpInstr::Mem(MemRef::global_load(line * 128))
                }))
            }
        }

        let run = |bw: BwSetting| {
            let gpm = crate::config::GpmConfig::tiny();
            let cfg = GpuConfig {
                inter_gpm_bw: bw.inter_gpm_bw(gpm.dram_bw),
                ..GpuConfig::tiny(4)
            };
            let mut sim = GpuSim::new(&cfg);
            sim.run_kernel(&Toucher);
            sim.run_kernel(&Reader).cycles
        };
        let slow = run(BwSetting::X1);
        let fast = run(BwSetting::X4);
        assert!(
            fast < slow,
            "4x inter-GPM bandwidth should speed up remote reads: {fast} vs {slow}"
        );
    }

    #[test]
    fn event_and_naive_loops_agree_on_streams() {
        let k = StreamKernel {
            ctas: 24,
            warps: 4,
            lines_per_warp: 32,
        };
        let cfg = GpuConfig::tiny(4);
        let mut event = GpuSim::with_mode(&cfg, EngineMode::EventDriven);
        let mut naive = GpuSim::with_mode(&cfg, EngineMode::Naive);
        event.prefault(&k);
        naive.prefault(&k);
        assert_eq!(event.run_kernel(&k), naive.run_kernel(&k));
        assert_eq!(event.memory().txns(), naive.memory().txns());
        // The stall-heavy stream must actually exercise fast-forward.
        let ff = event.fast_forward_stats();
        assert!(ff.skipped_cycles > 0, "stream kernels must fast-forward");
        assert!(ff.sm_steps < ff.visited_cycles * cfg.total_sms() as u64);
        assert_eq!(naive.fast_forward_stats(), FastForwardStats::default());
    }

    #[test]
    fn event_and_naive_loops_agree_under_gto() {
        let k = StreamKernel {
            ctas: 16,
            warps: 4,
            lines_per_warp: 24,
        };
        let cfg = GpuConfig {
            warp_scheduler: crate::config::WarpScheduler::GreedyThenOldest,
            ..GpuConfig::tiny(2)
        };
        let mut event = GpuSim::with_mode(&cfg, EngineMode::EventDriven);
        let mut naive = GpuSim::with_mode(&cfg, EngineMode::Naive);
        assert_eq!(event.run_kernel(&k), naive.run_kernel(&k));
    }

    #[test]
    fn shadow_mode_runs_and_matches_event_driven() {
        let k = StreamKernel {
            ctas: 8,
            warps: 4,
            lines_per_warp: 16,
        };
        let cfg = GpuConfig::tiny(2);
        let mut shadow = GpuSim::with_mode(&cfg, EngineMode::Shadow);
        let mut event = GpuSim::with_mode(&cfg, EngineMode::EventDriven);
        // Shadow asserts internally; its visible result equals the
        // event-driven one.
        assert_eq!(shadow.run_kernel(&k), event.run_kernel(&k));
        assert_eq!(shadow.mode(), EngineMode::Shadow);
    }

    #[test]
    fn shadow_mode_holds_across_multi_kernel_workloads() {
        // State persists across launches (L2 contents, pages, clock);
        // shadow must stay bit-equal kernel after kernel.
        let mut sim = GpuSim::with_mode(&GpuConfig::tiny(4), EngineMode::Shadow);
        let launches = vec![
            LaunchSpec::repeated(
                Box::new(StreamKernel {
                    ctas: 16,
                    warps: 4,
                    lines_per_warp: 16,
                }),
                2,
            ),
            LaunchSpec::repeated(
                Box::new(ComputeKernel {
                    ctas: 8,
                    warps: 4,
                    len: 40,
                }),
                1,
            ),
        ];
        let result = sim.run_workload(&launches);
        assert_eq!(result.launches(), 3);
    }

    #[test]
    fn degenerate_grids_agree_across_modes() {
        // Empty-stream warps retire instantly; grids smaller than the
        // GPM count leave whole modules idle. Both paths must agree.
        struct EmptyKernel;
        impl KernelProgram for EmptyKernel {
            fn name(&self) -> &str {
                "empty"
            }
            fn grid(&self) -> GridShape {
                GridShape::new(3, 2)
            }
            fn warp_instructions(&self, _cta: CtaId, _warp: WarpId) -> WarpInstrStream {
                Box::new(std::iter::empty())
            }
        }
        let cfg = GpuConfig::tiny(4);
        let mut event = GpuSim::with_mode(&cfg, EngineMode::EventDriven);
        let mut naive = GpuSim::with_mode(&cfg, EngineMode::Naive);
        let re = event.run_kernel(&EmptyKernel);
        let rn = naive.run_kernel(&EmptyKernel);
        assert_eq!(re, rn);
        assert_eq!(re.ctas, 3);
    }
}
