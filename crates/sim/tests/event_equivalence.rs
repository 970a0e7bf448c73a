//! Property tests: the event-driven loop is bit-equivalent to the naive
//! per-cycle reference over randomized kernels and configurations, and
//! its fast-forward never jumps past a ready event.

use common::{CtaId, WarpId};
use isa::{GridShape, KernelProgram, MemRef, Opcode, WarpInstr, WarpInstrStream};
use proptest::prelude::*;
use sim::{
    CtaSchedule, EngineMode, GpuConfig, GpuSim, L2Mode, PagePolicy, Topology, WarpScheduler,
};

/// A deterministic pseudo-random kernel: every warp's stream is derived
/// from `(seed, cta, warp)` by a splitmix-style generator, mixing
/// compute bursts, private streaming loads, shared-region scatter loads,
/// and stores. Degenerate warps (empty streams) are generated on purpose.
#[derive(Debug, Clone)]
struct FuzzKernel {
    seed: u64,
    ctas: u32,
    warps_per_cta: u32,
    max_instrs: u32,
}

fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl KernelProgram for FuzzKernel {
    fn name(&self) -> &str {
        "fuzz"
    }
    fn grid(&self) -> GridShape {
        GridShape::new(self.ctas, self.warps_per_cta)
    }
    fn warp_instructions(&self, cta: CtaId, warp: WarpId) -> WarpInstrStream {
        let base = mix(self.seed ^ (u64::from(cta.0) << 20) ^ u64::from(warp.0));
        let len = (mix(base) % u64::from(self.max_instrs + 1)) as u32;
        let private = (u64::from(cta.0) * u64::from(self.warps_per_cta) + u64::from(warp.0))
            * u64::from(self.max_instrs)
            * 128;
        Box::new((0..len).map(move |i| {
            let r = mix(base.wrapping_add(u64::from(i)));
            match r % 5 {
                0 => WarpInstr::Compute(Opcode::FFma32),
                1 => WarpInstr::Compute(Opcode::IAdd32),
                2 => WarpInstr::Mem(MemRef::global_load(private + u64::from(i) * 128)),
                // A 512-line region shared by every warp: first-touch
                // races, remote traffic, L2 contention.
                3 => WarpInstr::Mem(MemRef::global_load(0x4000_0000 + (r >> 8) % 512 * 128)),
                _ => WarpInstr::Mem(MemRef::global_store(private + u64::from(i) * 128)),
            }
        }))
    }
}

/// A homogeneous kernel: every warp of every CTA runs the identical
/// pseudo-random sequence (compute plus shared-region loads and stores —
/// addresses must not depend on the warp for the sequence to be
/// uniform). With `hint`, it also advertises that sequence through
/// [`KernelProgram::uniform_warp_program`] so the engine takes the
/// shared pre-decoded path.
#[derive(Debug, Clone)]
struct UniformKernel {
    seed: u64,
    ctas: u32,
    warps_per_cta: u32,
    len: u32,
    hint: bool,
}

impl UniformKernel {
    fn instr(&self, i: u32) -> WarpInstr {
        let r = mix(self.seed.wrapping_add(u64::from(i)));
        match r % 4 {
            0 => WarpInstr::Compute(Opcode::FFma32),
            1 => WarpInstr::Compute(Opcode::IAdd32),
            2 => WarpInstr::Mem(MemRef::global_load(0x4000_0000 + (r >> 8) % 512 * 128)),
            _ => WarpInstr::Mem(MemRef::global_store(0x4000_0000 + (r >> 8) % 512 * 128)),
        }
    }
}

impl KernelProgram for UniformKernel {
    fn name(&self) -> &str {
        "uniform"
    }
    fn grid(&self) -> GridShape {
        GridShape::new(self.ctas, self.warps_per_cta)
    }
    fn warp_instructions(&self, _cta: CtaId, _warp: WarpId) -> WarpInstrStream {
        let k = self.clone();
        Box::new((0..k.len).map(move |i| k.instr(i)))
    }
    fn uniform_warp_program(&self) -> Option<Vec<WarpInstr>> {
        self.hint
            .then(|| (0..self.len).map(|i| self.instr(i)).collect())
    }
}

/// A randomized configuration drawn from the ablation space the figures
/// actually sweep (at tiny scale so each case runs in milliseconds).
fn fuzz_config(r: u64, gpms: usize) -> GpuConfig {
    let mut cfg = GpuConfig::tiny(gpms);
    cfg.cta_schedule = if r & 1 == 0 {
        CtaSchedule::Contiguous
    } else {
        CtaSchedule::RoundRobin
    };
    cfg.warp_scheduler = if r & 2 == 0 {
        WarpScheduler::LooseRoundRobin
    } else {
        WarpScheduler::GreedyThenOldest
    };
    cfg.topology = match (r >> 2) % 3 {
        0 => Topology::Ring,
        1 => Topology::Switch,
        _ => Topology::Ideal,
    };
    cfg.page_policy = if r & 8 == 0 {
        PagePolicy::FirstTouch
    } else {
        PagePolicy::Interleaved
    };
    cfg.l2_mode = if r & 16 == 0 {
        L2Mode::ModuleSide
    } else {
        L2Mode::MemorySide
    };
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The headline equivalence: for random kernels and configurations,
    /// the event-driven loop produces bit-identical kernel results and
    /// memory-side counters to the naive per-cycle loop.
    #[test]
    fn event_loop_matches_naive_loop(
        seed in any::<u64>(),
        cfg_bits in any::<u64>(),
        gpms in 1usize..5,
        ctas in 1u32..24,
        warps in 1u32..5,
        max_instrs in 0u32..40,
    ) {
        let cfg = fuzz_config(cfg_bits, gpms);
        let kernel = FuzzKernel { seed, ctas, warps_per_cta: warps, max_instrs };

        let mut event = GpuSim::with_mode(&cfg, EngineMode::EventDriven);
        let mut naive = GpuSim::with_mode(&cfg, EngineMode::Naive);
        event.prefault(&kernel);
        naive.prefault(&kernel);
        // Two kernels back to back: state (caches, pages, clock) carries
        // across launches and must stay in lockstep too.
        for _ in 0..2 {
            let re = event.run_kernel(&kernel);
            let rn = naive.run_kernel(&kernel);
            prop_assert_eq!(&re, &rn);
        }
        prop_assert_eq!(event.memory().txns(), naive.memory().txns());
        prop_assert_eq!(
            event.memory().inter_gpm_hop_bytes(),
            naive.memory().inter_gpm_hop_bytes()
        );
    }

    /// Resident-warp populations that straddle the scheduler's 64-bit
    /// mask word: with single-warp CTAs and capacity for 65 of them, an
    /// SM ramps through exactly 63, 64 and 65 live warps, crossing the
    /// boundary between the bitmask issue fast path (n ≤ 64) and the
    /// generic poll loop (n > 64) in both directions as warps land and
    /// retire. Both scheduler policies must stay bit-identical to the
    /// naive reference across that crossing.
    #[test]
    fn warp_counts_straddle_the_mask_word_boundary(
        seed in any::<u64>(),
        cfg_bits in any::<u64>(),
        ctas in 63u32..=66,
        max_instrs in 1u32..24,
    ) {
        let mut cfg = fuzz_config(cfg_bits, 1);
        cfg.gpm.sms = 1;
        cfg.gpm.max_resident_warps = 65;
        let kernel = FuzzKernel { seed, ctas, warps_per_cta: 1, max_instrs };

        let mut event = GpuSim::with_mode(&cfg, EngineMode::EventDriven);
        let mut naive = GpuSim::with_mode(&cfg, EngineMode::Naive);
        event.prefault(&kernel);
        naive.prefault(&kernel);
        let re = event.run_kernel(&kernel);
        let rn = naive.run_kernel(&kernel);
        prop_assert_eq!(&re, &rn);
        prop_assert_eq!(event.memory().txns(), naive.memory().txns());
    }

    /// The per-warp outstanding-load ring at its configuration extremes:
    /// `mlp_per_warp` of 1 (every load serializes, the MLP-limit stall
    /// path fires constantly) through values beyond any warp's load
    /// count (the limit never fires). The ring capacity is sized from
    /// this value, so both edges exercise its wraparound and the
    /// stall/wake re-arming identically in both loops.
    #[test]
    fn mlp_limit_extremes_stay_equivalent(
        seed in any::<u64>(),
        cfg_bits in any::<u64>(),
        mlp in prop_oneof![Just(1usize), Just(2usize), Just(16usize), Just(64usize)],
        ctas in 1u32..12,
        max_instrs in 1u32..32,
    ) {
        let mut cfg = fuzz_config(cfg_bits, 2);
        cfg.gpm.mlp_per_warp = mlp;
        let kernel = FuzzKernel { seed, ctas, warps_per_cta: 3, max_instrs };

        let mut event = GpuSim::with_mode(&cfg, EngineMode::EventDriven);
        let mut naive = GpuSim::with_mode(&cfg, EngineMode::Naive);
        event.prefault(&kernel);
        naive.prefault(&kernel);
        let re = event.run_kernel(&kernel);
        let rn = naive.run_kernel(&kernel);
        prop_assert_eq!(&re, &rn);
        prop_assert_eq!(event.memory().txns(), naive.memory().txns());
    }

    /// The `uniform_warp_program` hint must be invisible in results: a
    /// homogeneous kernel simulated through the shared pre-decoded
    /// array gives the same bits as the identical kernel decoded warp
    /// by warp through boxed iterators (both engine loops).
    #[test]
    fn uniform_program_hint_is_unobservable(
        seed in any::<u64>(),
        cfg_bits in any::<u64>(),
        gpms in 1usize..4,
        ctas in 1u32..16,
        warps in 1u32..5,
        len in 0u32..40,
    ) {
        let cfg = fuzz_config(cfg_bits, gpms);
        let hinted = UniformKernel { seed, ctas, warps_per_cta: warps, len, hint: true };
        let plain = UniformKernel { hint: false, ..hinted.clone() };

        for mode in [EngineMode::EventDriven, EngineMode::Naive] {
            let mut with_hint = GpuSim::with_mode(&cfg, mode);
            let mut without = GpuSim::with_mode(&cfg, mode);
            with_hint.prefault(&hinted);
            without.prefault(&plain);
            let rh = with_hint.run_kernel(&hinted);
            let rp = without.run_kernel(&plain);
            prop_assert_eq!(&rh, &rp);
            prop_assert_eq!(with_hint.memory().txns(), without.memory().txns());
        }
    }

    /// Fast-forward must never jump past a cycle where a warp becomes
    /// ready. The loop itself debug-asserts exactly this on every jump
    /// (active in this test build); shadow mode additionally re-runs the
    /// naive reference and asserts bit-equality, so a skipped wake-up
    /// cannot hide. On top, the fast-forward accounting must close:
    /// visited + skipped cycles together tile the kernel's cycle span.
    #[test]
    fn fast_forward_never_skips_a_ready_event(
        seed in any::<u64>(),
        cfg_bits in any::<u64>(),
        ctas in 1u32..16,
        max_instrs in 0u32..32,
    ) {
        let cfg = fuzz_config(cfg_bits, 2);
        let kernel = FuzzKernel { seed, ctas, warps_per_cta: 2, max_instrs };
        let mut sim = GpuSim::with_mode(&cfg, EngineMode::Shadow);
        sim.prefault(&kernel);
        let result = sim.run_kernel(&kernel);
        let ff = sim.fast_forward_stats();
        // Every calendar cycle of the loop is either visited or skipped
        // by a jump; the kernel-boundary flush may extend the clock past
        // the last visited cycle but never shrink it.
        prop_assert!(
            ff.visited_cycles + ff.skipped_cycles <= result.cycles + 1,
            "visited {} + skipped {} overruns {} kernel cycles",
            ff.visited_cycles,
            ff.skipped_cycles,
            result.cycles
        );
        prop_assert!(ff.sm_steps <= ff.visited_cycles * cfg.total_sms() as u64);
    }
}
