//! Golden equivalence: the event-driven fast-forward engine must
//! reproduce the naive per-cycle loop bit-for-bit on real Table II
//! workloads across a seeded configuration matrix — cycles, every
//! per-transaction count, and the GPUJoule energy breakdown derived
//! from them. This is the repo-level guarantee that the performance
//! work of the engine cannot drift any figure.

use mmgpu::gpujoule::EnergyModel;
use mmgpu::sim::{
    BwSetting, CtaSchedule, EngineMode, GpuConfig, GpuSim, L2Mode, PagePolicy, Topology,
    WarpScheduler,
};
use mmgpu::workloads::{by_name, Scale};

/// The seeded matrix: every axis the figures ablate, at tiny scale.
fn config_matrix() -> Vec<(String, GpuConfig)> {
    let mut configs = Vec::new();
    for gpms in [1usize, 2, 4] {
        for topology in [Topology::Ring, Topology::Switch] {
            let mut cfg = GpuConfig::tiny(gpms);
            cfg.topology = topology;
            configs.push((format!("tiny/{gpms}gpm/{topology:?}"), cfg));
        }
    }
    // The scheduler / placement / L2 ablation corners.
    let mut gto = GpuConfig::tiny(2);
    gto.warp_scheduler = WarpScheduler::GreedyThenOldest;
    gto.cta_schedule = CtaSchedule::RoundRobin;
    configs.push(("tiny/2gpm/gto-rr".to_string(), gto));
    let mut memside = GpuConfig::tiny(4);
    memside.l2_mode = L2Mode::MemorySide;
    memside.page_policy = PagePolicy::Interleaved;
    configs.push(("tiny/4gpm/memside-interleaved".to_string(), memside));
    // One paper-scale point with the low-bandwidth on-board setting.
    configs.push((
        "paper/2gpm/x1".to_string(),
        GpuConfig::paper(2, BwSetting::X1, Topology::Ring),
    ));
    configs
}

#[test]
fn fast_forward_matches_naive_loop_on_real_workloads() {
    // One compute-heavy, one memory-heavy, one irregular app.
    for name in ["BPROP", "Stream", "BFS"] {
        let w = by_name(name).unwrap_or_else(|| panic!("workload {name} missing"));
        for (label, cfg) in config_matrix() {
            let launches = w.launches(Scale::Smoke);
            let mut event = GpuSim::with_mode(&cfg, EngineMode::EventDriven);
            let mut naive = GpuSim::with_mode(&cfg, EngineMode::Naive);
            let re = event.run_workload(&launches);
            let rn = naive.run_workload(&launches);

            // Whole-result bit equality (per-kernel cycles, counts, CTAs).
            assert_eq!(re, rn, "{name} on {label}: workload results diverged");

            // The derived quantities the figures are built from.
            let ce = re.total_counts();
            let cn = rn.total_counts();
            assert_eq!(
                ce.txns, cn.txns,
                "{name} on {label}: transaction counts diverged"
            );
            let model = EnergyModel::k40();
            assert_eq!(
                model.estimate(&ce),
                model.estimate(&cn),
                "{name} on {label}: energy breakdowns diverged"
            );

            // Memory-side state stays in lockstep too, not just outputs.
            assert_eq!(
                event.memory().txns(),
                naive.memory().txns(),
                "{name} on {label}: memory-system counters diverged"
            );
        }
    }
}

#[test]
fn shadow_mode_validates_a_full_workload_end_to_end() {
    // Shadow mode runs both loops on cloned machine state per kernel and
    // asserts bit-equality internally; surviving a multi-kernel workload
    // is the strongest self-check the engine has.
    let w = by_name("Stream").unwrap();
    let mut sim = GpuSim::with_mode(&GpuConfig::tiny(4), EngineMode::Shadow);
    let result = sim.run_workload(&w.launches(Scale::Smoke));
    assert!(result.total_cycles() > 0);
    // And fast-forward must actually engage on a bandwidth-bound app.
    assert!(
        sim.fast_forward_stats().skipped_cycles > 0,
        "Stream should trigger fast-forward jumps"
    );
}
