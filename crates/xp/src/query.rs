//! Config-delta queries: the harness side of the `xpd` daemon.
//!
//! This module owns three things:
//!
//! * **The digest code path.** [`config_digest`] (run manifests),
//!   [`artifact_digest`] (`--resume` journal freshness), and
//!   [`query_digest`] (the daemon's store keys) all build on
//!   [`common::digest::Fnv1a`], and `query_digest` *contains*
//!   `artifact_digest`: anything that would invalidate a journaled
//!   result also invalidates every stored answer derived from it.
//! * **Config deltas.** [`apply_sets`] maps `--set key=value` pairs
//!   ("fig6 at 2× inter-GPM bandwidth") onto an [`ExpConfig`].
//! * **[`RegistryEngine`]**, the [`xpd::QueryEngine`] implementation
//!   over the artifact registry and a [`Lab`]: batches of cold queries
//!   union their sweep plans into one executor prime (the same trick
//!   `xp run` plays across artifacts), then evaluate serially against
//!   the warm cache.
//!
//! Payload bytes are produced by [`artifact_file_bytes`] — the exact
//! bytes `xp run --out` writes — so a daemon answer for a plain query
//! is byte-identical to the file a local run would have produced.

use crate::artifact::{geomean_of, mean_of, Artifact, SweepPlan};
use crate::configs::ExpConfig;
use crate::figures::default_suite;
use crate::lab::Lab;
use crate::registry::{ArtifactRegistry, RegistryOptions};
use crate::validation;
use common::digest::Fnv1a;
use common::json::Json;
use common::proto::QueryRequest;
use gpujoule::IntegrationDomain;
use sim::{BwSetting, Topology};
use std::panic::{catch_unwind, AssertUnwindSafe};
use workloads::{Scale, WorkloadSpec};

/// FNV-1a over the Debug form of every planned config: a stable,
/// dependency-free fingerprint of what the sweep covered.
pub fn config_digest(configs: &[ExpConfig]) -> String {
    let mut h = Fnv1a::new();
    for cfg in configs {
        h.update(&format!("{cfg:?}\n"));
    }
    h.hex()
}

/// Per-artifact fingerprint over everything its journaled result depends
/// on: problem scale, validation mode, the artifact's own sweep plan, and
/// the sensor faults `xp run --faults` armed, if any (they move every
/// fitted value). `--resume` only trusts a journal record whose digest
/// still matches. A fault-free digest hashes no fault text, so journal
/// records and `xpd` store keys written without faults stay valid.
pub fn artifact_digest(
    plan: &SweepPlan,
    scale: Scale,
    validation: bool,
    sensor_faults: Option<silicon::SensorFaults>,
) -> String {
    let mut h = Fnv1a::new();
    h.update(&format!("{scale:?}|{validation}|{}\n", plan.needs_fit));
    for cfg in &plan.configs {
        h.update(&format!("{cfg:?}\n"));
    }
    if let Some(faults) = sensor_faults {
        h.update(&format!("{faults:?}\n"));
    }
    h.hex()
}

/// The `xpd` store key for one query: the artifact id, the normalized
/// (key-sorted) config deltas, and the full [`artifact_digest`] of the
/// artifact's plan. Including the id keeps two artifacts with identical
/// plans from colliding in the store; including the artifact digest
/// keeps stored answers exactly as fresh as `--resume` journal records.
pub fn query_digest(
    artifact_id: &str,
    sets: &[(String, String)],
    plan: &SweepPlan,
    scale: Scale,
    validation: bool,
) -> String {
    let mut h = Fnv1a::new();
    h.update(&format!("query|{artifact_id}|"));
    let mut sorted: Vec<&(String, String)> = sets.iter().collect();
    sorted.sort();
    for (k, v) in sorted {
        h.update(&format!("{k}={v}|"));
    }
    // The daemon never arms sensor faults.
    h.update(&artifact_digest(plan, scale, validation, None));
    h.hex()
}

/// The exact bytes `xp run --out` writes for an artifact payload: the
/// pretty rendering plus the driver's own trailing newline. The daemon
/// serves these bytes verbatim, which is what makes warm answers
/// byte-identical to a local run.
pub fn artifact_file_bytes(json: &Json) -> String {
    format!("{}\n", json.render_pretty())
}

/// Largest `--set gpms`: the top of the paper's module-count sweep.
pub const MAX_SET_GPMS: usize = crate::configs::GPM_COUNTS[crate::configs::GPM_COUNTS.len() - 1];

/// Largest `--set mlp`: the widest per-warp load window the engine
/// equivalence proptests cover. The engine sizes a ring of this many
/// entries per warp slot, so the bound also caps what one query can
/// allocate.
pub const MAX_SET_MLP: usize = 64;

/// The `--set` keys [`apply_sets`] understands, for error messages and
/// usage text.
pub const SET_KEYS: &str = "gpms (1-32), bw (1x|2x|4x), topology (ring|switch|ideal), \
     link_energy_mult, link_compression, clock_scale, mlp (1-64)";

/// Applies `key=value` config deltas to one experiment configuration.
/// Setting `bw` also re-derives the paper's default integration domain
/// for that bandwidth (1x is on-board, 2x/4x are on-package), matching
/// [`ExpConfig::paper_default`].
pub fn apply_sets(base: &ExpConfig, sets: &[(String, String)]) -> Result<ExpConfig, String> {
    let mut cfg = base.clone();
    for (key, value) in sets {
        match key.as_str() {
            "gpms" => {
                cfg.gpms = match value.parse::<usize>() {
                    Ok(n) if (1..=MAX_SET_GPMS).contains(&n) => n,
                    _ => {
                        return Err(format!(
                            "set gpms: expected an integer in 1..={MAX_SET_GPMS}, got {value:?}"
                        ))
                    }
                };
            }
            "bw" => {
                cfg.bw = match value.as_str() {
                    "1x" => BwSetting::X1,
                    "2x" => BwSetting::X2,
                    "4x" => BwSetting::X4,
                    _ => return Err(format!("set bw: expected 1x, 2x, or 4x, got {value:?}")),
                };
                cfg.domain = match cfg.bw {
                    BwSetting::X1 => IntegrationDomain::OnBoard,
                    BwSetting::X2 | BwSetting::X4 => IntegrationDomain::OnPackage,
                };
            }
            "topology" => {
                cfg.topology = match value.as_str() {
                    "ring" => Topology::Ring,
                    "switch" => Topology::Switch,
                    "ideal" => Topology::Ideal,
                    _ => {
                        return Err(format!(
                            "set topology: expected ring, switch, or ideal, got {value:?}"
                        ))
                    }
                };
            }
            "link_energy_mult" => {
                cfg.link_energy_mult = match value.parse::<f64>() {
                    Ok(m) if m > 0.0 && m.is_finite() => m,
                    _ => {
                        return Err(format!(
                            "set link_energy_mult: expected a positive number, got {value:?}"
                        ))
                    }
                };
            }
            "link_compression" => {
                cfg.link_compression = match value.parse::<f64>() {
                    Ok(r) if r >= 1.0 && r.is_finite() => r,
                    _ => {
                        return Err(format!(
                            "set link_compression: expected a ratio >= 1, got {value:?}"
                        ))
                    }
                };
            }
            "clock_scale" => {
                cfg.clock_scale = match value.parse::<f64>() {
                    Ok(s) if s > 0.0 && s <= 1.0 => s,
                    _ => {
                        return Err(format!(
                            "set clock_scale: expected a number in (0, 1], got {value:?}"
                        ))
                    }
                };
            }
            "mlp" => {
                cfg.mlp_per_warp = match value.parse::<usize>() {
                    Ok(n) if (1..=MAX_SET_MLP).contains(&n) => Some(n),
                    _ => {
                        return Err(format!(
                            "set mlp: expected an integer in 1..={MAX_SET_MLP}, got {value:?}"
                        ))
                    }
                };
            }
            other => {
                return Err(format!(
                    "set {other}: unknown config key (known keys: {SET_KEYS})"
                ))
            }
        }
    }
    Ok(cfg)
}

/// The what-if sweep for one query: the artifact's planned configs with
/// the deltas applied, deduplicated. Errors when the artifact has no
/// sweep to re-parameterize (static tables, fit-only artifacts).
fn delta_configs(
    artifact: &dyn Artifact,
    sets: &[(String, String)],
) -> Result<Vec<ExpConfig>, String> {
    let plan = artifact.plan();
    if plan.configs.is_empty() {
        return Err(format!(
            "artifact {} has no sweep plan to re-parameterize with --set",
            artifact.id()
        ));
    }
    let mut configs: Vec<ExpConfig> = Vec::new();
    let mut seen: std::collections::HashSet<String> = std::collections::HashSet::new();
    for cfg in &plan.configs {
        let cfg = apply_sets(cfg, sets)?;
        if seen.insert(format!("{cfg:?}")) {
            configs.push(cfg);
        }
    }
    Ok(configs)
}

/// The [`xpd::QueryEngine`] over the artifact registry: digests queries
/// with [`query_digest`] and evaluates cold batches through one shared
/// [`Lab`].
pub struct RegistryEngine {
    registry: ArtifactRegistry,
    lab: Lab,
    suite: Vec<WorkloadSpec>,
    scale: Scale,
    validation: bool,
}

impl RegistryEngine {
    /// An engine at the given problem scale and sweep parallelism. The
    /// lab's stderr progress line is disabled: the daemon's logs must
    /// stay line-atomic, and there is no TTY to watch a progress bar.
    pub fn new(scale: Scale, threads: usize, validation: bool) -> RegistryEngine {
        let mut lab = Lab::with_threads(scale, threads);
        lab.set_progress(false);
        RegistryEngine {
            registry: ArtifactRegistry::standard(&RegistryOptions { validation }),
            lab,
            suite: default_suite(),
            scale,
            validation,
        }
    }

    fn artifact(&self, id: &str) -> Result<&dyn Artifact, String> {
        self.registry
            .get(id)
            .ok_or_else(|| format!("unknown artifact {id:?} (try `xp list`)"))
    }

    /// Renders the what-if payload for delta'd configurations: per
    /// (config × workload) EDPSE / speedup / energy ratio, with the
    /// suite mean and geomean per configuration.
    fn whatif_payload(
        &self,
        artifact: &dyn Artifact,
        sets: &[(String, String)],
        configs: &[ExpConfig],
    ) -> Result<Json, String> {
        let id = artifact.id();
        let mut o = Json::object();
        o.insert("id", id);
        o.insert("title", artifact.title());
        o.insert("kind", "whatif");
        let mut set_json = Json::object();
        let mut sorted: Vec<&(String, String)> = sets.iter().collect();
        sorted.sort();
        for (k, v) in sorted {
            set_json.insert(k.as_str(), v.as_str());
        }
        o.insert("set", set_json);
        o.insert("scale", format!("{:?}", self.scale).as_str());

        let mut rows = Json::array();
        for cfg in configs {
            let point = cfg.to_string();
            let mut edpses = Vec::with_capacity(self.suite.len());
            let mut speedups = Vec::with_capacity(self.suite.len());
            let mut ratios = Vec::with_capacity(self.suite.len());
            let mut per = Json::array();
            for w in &self.suite {
                let edpse = self.lab.edpse(w, cfg);
                let speedup = self.lab.speedup(w, cfg);
                let ratio = self.lab.energy_ratio(w, cfg);
                edpses.push(edpse);
                speedups.push(speedup);
                ratios.push(ratio);
                let mut wj = Json::object();
                wj.insert("workload", w.name);
                wj.insert("edpse_pct", edpse);
                wj.insert("speedup", speedup);
                wj.insert("energy_ratio", ratio);
                per.push(wj);
            }
            let mut cj = Json::object();
            cj.insert("config", point.as_str());
            cj.insert("gpms", cfg.gpms);
            cj.insert("per_workload", per);
            cj.insert(
                "mean_edpse_pct",
                mean_of(id, &point, &edpses).map_err(|e| e.to_string())?,
            );
            cj.insert(
                "geomean_speedup",
                geomean_of(id, &point, &speedups).map_err(|e| e.to_string())?,
            );
            cj.insert(
                "mean_energy_ratio",
                mean_of(id, &point, &ratios).map_err(|e| e.to_string())?,
            );
            rows.push(cj);
        }
        o.insert("configs", rows);
        Ok(o)
    }

    /// Evaluates one request against the (already primed) lab.
    fn evaluate_one(&self, req: &QueryRequest) -> Result<String, String> {
        let artifact = self.artifact(&req.artifact)?;
        let outcome = catch_unwind(AssertUnwindSafe(|| -> Result<Json, String> {
            if req.sets.is_empty() {
                artifact
                    .evaluate(&self.lab, &self.suite)
                    .map(|data| data.json)
                    .map_err(|e| e.to_string())
            } else {
                let configs = delta_configs(artifact, &req.sets)?;
                self.whatif_payload(artifact, &req.sets, &configs)
            }
        }));
        match outcome {
            Ok(result) => result.map(|json| artifact_file_bytes(&json)),
            Err(payload) => Err(format!(
                "artifact {} panicked: {}",
                req.artifact,
                runtime::cache::panic_message(payload.as_ref())
            )),
        }
    }
}

impl xpd::QueryEngine for RegistryEngine {
    fn digest(&self, req: &QueryRequest) -> Result<String, String> {
        let artifact = self.artifact(&req.artifact)?;
        // Validate deltas at digest time so a bad `--set` fails fast,
        // before anything is enqueued.
        if !req.sets.is_empty() {
            delta_configs(artifact, &req.sets)?;
        }
        Ok(query_digest(
            artifact.id(),
            &req.sets,
            &artifact.plan(),
            self.scale,
            self.validation,
        ))
    }

    fn evaluate(&self, reqs: &[QueryRequest]) -> Vec<Result<String, String>> {
        let _span = trace::span("xp.query.batch");
        // Union every request's sweep into one executor prime — the
        // batching win: shared points across queries simulate once.
        let mut needs_fit = false;
        let mut configs: Vec<ExpConfig> = Vec::new();
        let mut seen: std::collections::HashSet<String> = std::collections::HashSet::new();
        for req in reqs {
            let Ok(artifact) = self.artifact(&req.artifact) else {
                continue; // surfaced per-request by evaluate_one
            };
            let plan = artifact.plan();
            needs_fit |= plan.needs_fit;
            let planned = if req.sets.is_empty() {
                plan.configs
            } else {
                delta_configs(artifact, &req.sets).unwrap_or_default()
            };
            for cfg in planned {
                if seen.insert(format!("{cfg:?}")) {
                    configs.push(cfg);
                }
            }
        }
        if needs_fit {
            let _ = validation::fit_model_cached(&self.lab);
        }
        if !configs.is_empty() {
            let mut points = Vec::with_capacity(self.suite.len() * (configs.len() + 1));
            for w in &self.suite {
                points.push((w.clone(), ExpConfig::baseline()));
                for cfg in &configs {
                    points.push((w.clone(), cfg.clone()));
                }
            }
            let _ = self.lab.prime(&points);
        }
        reqs.iter().map(|req| self.evaluate_one(req)).collect()
    }

    fn describe(&self) -> Json {
        let mut o = Json::object();
        let mut ids = Json::array();
        for id in self.registry.ids() {
            ids.push(id);
        }
        o.insert("artifacts", ids);
        o.insert("scale", format!("{:?}", self.scale).as_str());
        o.insert("validation", self.validation);
        o.insert("threads", self.lab.threads());
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpd::QueryEngine as _;

    #[test]
    fn query_digest_separates_artifacts_with_identical_plans() {
        let plan = SweepPlan::sweep(vec![ExpConfig::baseline()]);
        let a = query_digest("fig7", &[], &plan, Scale::Smoke, true);
        let b = query_digest("fig8", &[], &plan, Scale::Smoke, true);
        assert_ne!(a, b, "store keys must be artifact-qualified");
    }

    #[test]
    fn query_digest_normalizes_set_order_and_tracks_values() {
        let plan = SweepPlan::sweep(vec![ExpConfig::baseline()]);
        let ab = vec![
            ("bw".to_string(), "4x".to_string()),
            ("gpms".to_string(), "16".to_string()),
        ];
        let ba: Vec<(String, String)> = ab.iter().rev().cloned().collect();
        assert_eq!(
            query_digest("fig6", &ab, &plan, Scale::Smoke, true),
            query_digest("fig6", &ba, &plan, Scale::Smoke, true)
        );
        let other = vec![("bw".to_string(), "2x".to_string())];
        assert_ne!(
            query_digest("fig6", &ab, &plan, Scale::Smoke, true),
            query_digest("fig6", &other, &plan, Scale::Smoke, true)
        );
        // The artifact digest is embedded: scale changes the key.
        assert_ne!(
            query_digest("fig6", &ab, &plan, Scale::Smoke, true),
            query_digest("fig6", &ab, &plan, Scale::Full, true)
        );
    }

    #[test]
    fn apply_sets_maps_knobs_and_rejects_garbage() {
        let base = ExpConfig::paper_default(4, BwSetting::X2);
        let sets = |pairs: &[(&str, &str)]| -> Vec<(String, String)> {
            pairs
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect()
        };
        let cfg = apply_sets(&base, &sets(&[("gpms", "16"), ("bw", "4x")])).unwrap();
        assert_eq!(cfg.gpms, 16);
        assert_eq!(cfg.bw, BwSetting::X4);
        assert_eq!(cfg.domain, IntegrationDomain::OnPackage);
        // 1x re-derives the on-board pairing.
        let cfg = apply_sets(&base, &sets(&[("bw", "1x")])).unwrap();
        assert_eq!(cfg.domain, IntegrationDomain::OnBoard);
        let cfg = apply_sets(
            &base,
            &sets(&[
                ("topology", "switch"),
                ("link_energy_mult", "2.5"),
                ("link_compression", "1.5"),
                ("clock_scale", "0.8"),
                ("mlp", "8"),
            ]),
        )
        .unwrap();
        assert_eq!(cfg.topology, Topology::Switch);
        assert_eq!(cfg.link_energy_mult, 2.5);
        assert_eq!(cfg.link_compression, 1.5);
        assert_eq!(cfg.clock_scale, 0.8);
        assert_eq!(cfg.mlp_per_warp, Some(8));
        // Both bounds are inclusive and stated in the usage keys.
        let cfg = apply_sets(&base, &sets(&[("gpms", "32"), ("mlp", "64")])).unwrap();
        assert_eq!((cfg.gpms, cfg.mlp_per_warp), (32, Some(64)));
        assert!(SET_KEYS.contains(&format!("gpms (1-{MAX_SET_GPMS})")));
        assert!(SET_KEYS.contains(&format!("mlp (1-{MAX_SET_MLP})")));

        for bad in [
            ("gpms", "0"),
            ("gpms", "four"),
            ("gpms", "33"),
            ("gpms", "18446744073709551615"),
            ("bw", "8x"),
            ("topology", "torus"),
            ("link_energy_mult", "-1"),
            ("link_compression", "0.5"),
            ("clock_scale", "1.5"),
            ("clock_scale", "0"),
            ("mlp", "0"),
            ("mlp", "65"),
            ("frobnicate", "1"),
        ] {
            assert!(
                apply_sets(&base, &sets(&[bad])).is_err(),
                "expected rejection: {bad:?}"
            );
        }
    }

    #[test]
    fn artifact_file_bytes_match_the_run_driver() {
        // `xp run --out` writes format!("{}\n", json.render_pretty());
        // the daemon payload must be those exact bytes.
        let mut j = Json::object();
        j.insert("id", "fig2");
        assert_eq!(artifact_file_bytes(&j), format!("{}\n", j.render_pretty()));
        assert!(artifact_file_bytes(&j).ends_with("}\n\n"));
    }

    #[test]
    fn engine_digests_validate_requests() {
        let engine = RegistryEngine::new(Scale::Smoke, 1, false);
        let err = engine
            .digest(&QueryRequest::query("no_such_artifact"))
            .unwrap_err();
        assert!(err.contains("unknown artifact"));
        let err = engine
            .digest(&QueryRequest::query("fig2").with_set("bw", "9x"))
            .unwrap_err();
        assert!(err.contains("set bw"));
        let d = engine.digest(&QueryRequest::query("fig2")).unwrap();
        assert!(common::digest::is_hex_digest(&d));
        // Stable across engine instances (store keys survive restarts).
        let again = RegistryEngine::new(Scale::Smoke, 1, false);
        assert_eq!(d, again.digest(&QueryRequest::query("fig2")).unwrap());
    }

    #[test]
    fn describe_lists_artifacts() {
        let engine = RegistryEngine::new(Scale::Smoke, 1, false);
        let d = engine.describe();
        let ids = d.get("artifacts").and_then(Json::as_array).unwrap();
        assert!(!ids.is_empty());
        assert_eq!(d.get("scale").and_then(Json::as_str), Some("Smoke"));
    }
}
