//! Seeded input generators: the full-scale sweep sample, the warm query
//! set, and the what-if script. The program under test only ever sees
//! their output; the same seed always yields the same inputs.
//!
//! Each generator keeps the *amount* of work fixed across seeds and lets
//! the seed choose *which* work, so run-to-run spreads measure the
//! program rather than the draw:
//!
//! * the sweep sample has the same point count per GPM class and the
//!   same total reference cost (within [`COST_TOLERANCE`]) for every
//!   seed;
//! * the warm set always holds the same artifacts, so the payload-size
//!   mix is fixed, and the seed picks the energy multipliers and the
//!   query order;
//! * the what-if script replays a fixed set of simulation-changing
//!   deltas in a seeded order, with seeded energy-only variants and
//!   repeats in fixed 40/30/30 proportions; the simulations the set needs
//!   are the same in any order.

use common::proto::QueryRequest;
use workloads::WorkloadSpec;
use xp::ExpConfig;

/// SplitMix64: a small, fast, well-mixed deterministic generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and an input `stream`, so that independent
    /// inputs drawn from one seed do not share a sequence.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Shuffles `items` in place (Fisher-Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }

    /// `k` distinct indices below `n`, in draw order.
    pub fn distinct(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut all: Vec<usize> = (0..n).collect();
        for i in 0..k.min(n) {
            let j = i + self.below(n - i);
            all.swap(i, j);
        }
        all.truncate(k.min(n));
        all
    }
}

// ---------------------------------------------------------------------------
// sweep-full
// ---------------------------------------------------------------------------

/// The stable name of a simulation point: the workload plus every
/// simulation-relevant config field, the fields the lab's simulation
/// cache keys on. Energy-only knobs are left out, so two configs that
/// share a simulation share a key.
pub fn point_key(workload: &WorkloadSpec, config: &ExpConfig) -> String {
    let s = config.sim_config();
    format!(
        "{}|{}g|{}|{}|lat{}|{}|{}|{}|mlp{}|cmp{}|clk{}|{}",
        workload.name,
        config.gpms,
        config.bw.label(),
        config.topology,
        s.link_latency,
        s.cta_schedule,
        s.page_policy,
        s.l2_mode,
        s.gpm.mlp_per_warp,
        s.link_compression,
        config.clock_scale,
        s.warp_scheduler
    )
}

/// The full-scale sweep population: the union of every registry
/// artifact's sweep plan plus the 1-GPM baseline, crossed with the
/// default suite, one entry per distinct simulation, sorted by key.
pub fn sweep_population() -> Vec<(String, WorkloadSpec, ExpConfig)> {
    let registry = xp::ArtifactRegistry::standard(&xp::RegistryOptions::default());
    let mut configs = vec![ExpConfig::baseline()];
    for artifact in registry.iter() {
        configs.extend(artifact.plan().configs);
    }
    let mut points = std::collections::BTreeMap::new();
    for w in xp::default_suite() {
        for c in &configs {
            points
                .entry(point_key(&w, c))
                .or_insert_with(|| (w.clone(), c.clone()));
        }
    }
    points.into_iter().map(|(k, (w, c))| (k, w, c)).collect()
}

/// GPM-count classes the sweep sample is stratified over: 1, 2-4, 8-16
/// and 32 modules.
pub const GPM_CLASSES: [&str; 4] = ["1", "2-4", "8-16", "32"];

/// The class index of a GPM count.
pub fn gpm_class(gpms: usize) -> usize {
    match gpms {
        0 | 1 => 0,
        2..=4 => 1,
        5..=16 => 2,
        _ => 3,
    }
}

/// Points drawn from each GPM class: 32 in all.
pub const POINTS_PER_CLASS: usize = 8;

/// How far a sample's total reference cost may stray from the
/// population-mean target.
pub const COST_TOLERANCE: f64 = 0.01;

/// Draws the sweep sample: [`POINTS_PER_CLASS`] distinct points from each
/// GPM class whose total reference cost lies within [`COST_TOLERANCE`] of
/// what the class means predict. `classes[i]` and `costs[i]` describe
/// population point `i`. Returns indices ordered heaviest first, so the
/// sweep's tail does not depend on where the seed put its largest point.
pub fn sweep_sample(classes: &[usize], costs: &[f64], seed: u64) -> Vec<usize> {
    let members: Vec<Vec<usize>> = (0..GPM_CLASSES.len())
        .map(|c| (0..classes.len()).filter(|&i| classes[i] == c).collect())
        .collect();
    let target: f64 = members
        .iter()
        .filter(|m| !m.is_empty())
        .map(|m| {
            let mean = m.iter().map(|&i| costs[i]).sum::<f64>() / m.len() as f64;
            mean * POINTS_PER_CLASS.min(m.len()) as f64
        })
        .sum();
    let mut rng = Rng::new(seed, 1);
    let mut best: Option<(f64, Vec<usize>)> = None;
    for _ in 0..100_000 {
        let sample: Vec<usize> = members
            .iter()
            .flat_map(|m| {
                rng.distinct(m.len(), POINTS_PER_CLASS)
                    .into_iter()
                    .map(|j| m[j])
                    .collect::<Vec<_>>()
            })
            .collect();
        let miss = (sample.iter().map(|&i| costs[i]).sum::<f64>() - target).abs() / target;
        if best.as_ref().is_none_or(|(b, _)| miss < *b) {
            best = Some((miss, sample));
        }
        if miss <= COST_TOLERANCE {
            break;
        }
    }
    let mut sample = best.map(|(_, s)| s).unwrap_or_default();
    sample.sort_by(|&a, &b| costs[b].total_cmp(&costs[a]).then(a.cmp(&b)));
    sample
}

/// The `--quick` sample: two points among the eight cheapest.
pub fn quick_sweep_sample(costs: &[f64], seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..costs.len()).collect();
    order.sort_by(|&a, &b| costs[a].total_cmp(&costs[b]).then(a.cmp(&b)));
    order.truncate(8);
    let mut rng = Rng::new(seed, 1);
    rng.distinct(order.len(), 2)
        .into_iter()
        .map(|j| order[j])
        .collect()
}

// ---------------------------------------------------------------------------
// serve-warm and serve-whatif
// ---------------------------------------------------------------------------

/// Artifacts queried plainly (their answers are the smoke artifact
/// files). `fig8` is left out: its sweep alone would double the warm
/// set-up, and `repro-smoke` covers it.
pub const PLAIN_ARTIFACTS: [&str; 6] = ["fig2", "fig6", "fig7", "headline", "table1b", "tables"];

/// Artifacts with a sweep plan, so what-if deltas apply to them, and
/// how many energy-only variants of each the warm set holds.
pub const WHATIF_ARTIFACTS: [(&str, usize); 4] =
    [("fig2", 3), ("fig6", 3), ("fig7", 2), ("headline", 2)];

/// Link-energy multipliers for energy-only variants: they re-price cached
/// simulations without running new ones.
pub const ENERGY_MULTS: [&str; 6] = ["1.5", "2", "2.5", "3", "4", "6"];

/// The simulation-changing deltas every what-if script replays, covering
/// every key the daemon accepts. Each is one of the cheaper deltas of
/// its kind at smoke scale, so a replay takes a few seconds.
pub const SIM_DELTAS: [(&str, &str, &str); 8] = [
    ("headline", "bw", "4x"),
    ("headline", "mlp", "2"),
    ("headline", "link_compression", "2"),
    ("fig6", "gpms", "4"),
    ("headline", "topology", "switch"),
    ("headline", "clock_scale", "0.75"),
    ("fig2", "gpms", "16"),
    ("fig7", "gpms", "2"),
];

/// The `--quick` script's deltas: the two cheapest of [`SIM_DELTAS`].
pub const QUICK_SIM_DELTAS: [(&str, &str, &str); 2] =
    [("headline", "bw", "4x"), ("fig6", "gpms", "4")];

/// One artifact query: an id plus `key=value` config deltas.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    /// Artifact id.
    pub artifact: String,
    /// Config deltas, sorted by key.
    pub sets: Vec<(String, String)>,
}

impl Query {
    /// A query for `artifact` with `sets` (sorted on construction).
    pub fn new(artifact: &str, sets: &[(&str, &str)]) -> Query {
        let mut sets: Vec<(String, String)> = sets
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        sets.sort();
        Query {
            artifact: artifact.to_string(),
            sets,
        }
    }

    /// The same query with one more delta.
    pub fn with(&self, key: &str, value: &str) -> Query {
        let mut q = self.clone();
        q.sets.push((key.to_string(), value.to_string()));
        q.sets.sort();
        q
    }

    /// The golden-table key: `fig6` or `fig6?bw=4x&link_energy_mult=2`.
    pub fn key(&self) -> String {
        let sets: Vec<String> = self.sets.iter().map(|(k, v)| format!("{k}={v}")).collect();
        if sets.is_empty() {
            self.artifact.clone()
        } else {
            format!("{}?{}", self.artifact, sets.join("&"))
        }
    }

    /// The wire request.
    pub fn request(&self) -> QueryRequest {
        self.sets
            .iter()
            .fold(QueryRequest::query(self.artifact.as_str()), |r, (k, v)| {
                r.with_set(k.as_str(), v.as_str())
            })
    }
}

/// Size of the warm set.
pub const WARM_SET_LEN: usize = 16;

/// The 16 queries pre-filled into the warm daemon's store: every plain
/// artifact, plus energy-only variants of each what-if artifact with
/// seeded multipliers.
pub fn warm_set(seed: u64) -> Vec<Query> {
    let mut rng = Rng::new(seed, 2);
    let mut set: Vec<Query> = PLAIN_ARTIFACTS.iter().map(|a| Query::new(a, &[])).collect();
    for (a, variants) in WHATIF_ARTIFACTS {
        for m in rng.distinct(ENERGY_MULTS.len(), variants) {
            set.push(Query::new(a, &[("link_energy_mult", ENERGY_MULTS[m])]));
        }
    }
    set
}

/// The `--quick` warm set: two plain artifacts that need no simulation.
pub fn quick_warm_set() -> Vec<Query> {
    vec![Query::new("tables", &[]), Query::new("table1b", &[])]
}

/// Client `client`'s endless seeded stream of indices into a warm set of
/// `len` queries.
pub fn warm_stream(seed: u64, client: usize, len: usize) -> impl Iterator<Item = usize> {
    let mut rng = Rng::new(seed, 100 + client as u64);
    std::iter::repeat_with(move || rng.below(len))
}

/// What a what-if script entry exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A delta that changes the simulated configuration: new simulations.
    Sim,
    /// A link-energy delta over an earlier `Sim` entry's configuration:
    /// re-prices cached simulations.
    Energy,
    /// An exact repeat of an earlier entry: a store hit.
    Repeat,
}

/// One entry of a what-if script.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// The query sent.
    pub query: Query,
    /// Which path it exercises.
    pub kind: Kind,
}

/// Entries per round: 4 simulation-changing, 3 energy-only, 3 repeats.
const ROUND: (usize, usize, usize) = (4, 3, 3);

/// The what-if script, split between `clients` closed-loop clients.
/// Deltas are dealt out in rounds of ten: four simulation-changing
/// deltas in seeded order, then three energy-only variants of them and
/// three repeats of the round's earlier entries, interleaved by seed.
/// Rounds go to clients in turn, so every dependency of an entry was
/// sent earlier on the same connection.
pub fn whatif_script(seed: u64, clients: usize, quick: bool) -> Vec<Vec<Entry>> {
    let deltas: &[(&str, &str, &str)] = if quick {
        &QUICK_SIM_DELTAS
    } else {
        &SIM_DELTAS
    };
    let mut rng = Rng::new(seed, 3);
    let (n_sim, n_energy, n_repeat) = if quick { (2, 1, 1) } else { ROUND };
    let mut order: Vec<usize> = (0..deltas.len()).collect();
    for round in order.chunks_mut(n_sim) {
        rng.shuffle(round);
    }
    let mut scripts: Vec<Vec<Entry>> = vec![Vec::new(); clients.max(1)];
    for (round, chunk) in order.chunks(n_sim).enumerate() {
        let sims: Vec<Entry> = chunk
            .iter()
            .map(|&i| {
                let (artifact, key, value) = deltas[i];
                Entry {
                    query: Query::new(artifact, &[(key, value)]),
                    kind: Kind::Sim,
                }
            })
            .collect();
        let mut tail: Vec<Entry> = rng
            .distinct(sims.len(), n_energy)
            .into_iter()
            .map(|i| Entry {
                query: sims[i].query.with(
                    "link_energy_mult",
                    ENERGY_MULTS[rng.below(ENERGY_MULTS.len())],
                ),
                kind: Kind::Energy,
            })
            .collect();
        let earlier: Vec<Entry> = sims.iter().chain(tail.iter()).cloned().collect();
        for i in rng.distinct(earlier.len(), n_repeat) {
            tail.push(Entry {
                query: earlier[i].query.clone(),
                kind: Kind::Repeat,
            });
        }
        // Energy entries must follow their Sim entry and repeats their
        // original: all Sim entries go first, so any order of the rest
        // keeps that, except a repeat of an energy entry, which must
        // stay behind it.
        rng.shuffle(&mut tail);
        tail.sort_by_key(|e| match e.kind {
            Kind::Repeat if e.query.sets.len() > 1 => 1,
            _ => 0,
        });
        let n = scripts.len();
        let script = &mut scripts[round % n];
        script.extend(sims);
        script.extend(tail);
    }
    scripts
}

/// Every what-if query any seed's serve workloads can send, for making
/// goldens (plain queries answer with the smoke artifact files).
pub fn whatif_menu() -> Vec<Query> {
    let sims: Vec<Query> = SIM_DELTAS
        .iter()
        .map(|(a, k, v)| Query::new(a, &[(k, v)]))
        .collect();
    let bases = WHATIF_ARTIFACTS
        .iter()
        .map(|(a, _)| Query::new(a, &[]))
        .chain(sims.iter().cloned());
    let mut menu: Vec<Query> = bases
        .flat_map(|base| ENERGY_MULTS.map(|m| base.with("link_energy_mult", m)))
        .collect();
    menu.extend(sims);
    menu
}
