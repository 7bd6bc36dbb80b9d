//! The metric tables, sample statistics and the one-line JSON result.
//!
//! The two tables below are the benchmark's schema: `BENCHMARK.json`
//! lists the same end-to-end names, units and directions. Every run
//! prints every metric of its table, so a workload that does not
//! exercise a layer reports that layer's per-layer figures as 0.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by untraced runs: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("unit_s", "s"),
    ("ops_per_hour", "1/h"),
    ("op_p50_ms", "ms"),
    ("op_p95_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("fault_coverage", "fraction"),
    ("wirelength_mm", "mm"),
    ("route_max_util", "fraction"),
    ("setup_wns_ns", "ns"),
    ("ok_frac", "fraction"),
];

/// Per-layer metrics, printed by traced runs: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.stage.validate_ms", "ms"),
    ("core.stage.pre_sta_ms", "ms"),
    ("core.stage.scan_ms", "ms"),
    ("core.stage.atpg_ms", "ms"),
    ("core.stage.layout_ms", "ms"),
    ("core.stage.timing_fix_ms", "ms"),
    ("core.stage.equiv_ms", "ms"),
    ("core.stage.lvs_ms", "ms"),
    ("core.stage.stream_out_ms", "ms"),
    ("core.checkpoint_bytes", "bytes"),
    ("core.checkpoint_encode_ms", "ms"),
    ("core.checkpoint_decode_ms", "ms"),
    ("layout.floorplan_ms", "ms"),
    ("layout.place_ms", "ms"),
    ("layout.cts_ms", "ms"),
    ("layout.route_ms", "ms"),
    ("layout.extract_ms", "ms"),
    ("layout.drc_ms", "ms"),
    ("layout.signoff_sta_ms", "ms"),
    ("layout.route.wirelength_um", "um"),
    ("layout.route.overflowed_edges", "count"),
    ("layout.route.max_utilisation", "fraction"),
    ("layout.route.gcells", "count"),
    ("layout.place.hpwl_um", "um"),
    ("layout.place.improvement", "fraction"),
    ("dft.atpg_random_ms", "ms"),
    ("dft.atpg_podem_ms", "ms"),
    ("dft.atpg.faults", "count"),
    ("dft.atpg.detected", "count"),
    ("dft.atpg.random_detected", "count"),
    ("dft.atpg.podem_detected", "count"),
    ("dft.atpg.aborted", "count"),
    ("dft.atpg.patterns", "count"),
    ("dft.fsim.faults_simulated", "count"),
    ("dft.fsim.gate_evals", "count"),
    ("dft.fsim.early_exits", "count"),
    ("dft.fsim.evals_per_fault", "ratio"),
    ("netlist.compile_ms", "ms"),
    ("netlist.compiles", "count"),
    ("netlist.equiv_random_ms", "ms"),
    ("netlist.equiv_exact_ms", "ms"),
    ("netlist.equiv.sinks_compared", "count"),
    ("netlist.equiv.cones_proven", "count"),
    ("netlist.equiv.vectors_applied", "count"),
    ("netlist.equiv.proven_frac", "fraction"),
    ("sta.incremental_update_ms", "ms"),
    ("sta.incremental_evals", "count"),
    ("sta.full_evals", "count"),
    ("sta.eval_ratio", "ratio"),
    ("eco.spec_ms", "ms"),
    ("eco.netlist_eco_ms", "ms"),
    ("eco.timing_eco_ms", "ms"),
    ("eco.pin_assign_ms", "ms"),
    ("serve.job_ms", "ms"),
    ("serve.direct_job_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.save_checkpoint_ms", "ms"),
    ("serve.ledger_update_ms", "ms"),
    ("serve.stages_executed", "count"),
    ("serve.retries", "count"),
    ("serve.preemptions", "count"),
    ("serve.quarantines", "count"),
    ("host.nproc", "count"),
    ("host.effective_parallelism", "ratio"),
    ("traced_unit_s", "s"),
    ("trace_overhead", "fraction"),
];

/// Median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    percentile(v, 0.5)
}

/// Nearest-rank percentile: the smallest sample with at least a share
/// `q` of the samples at or below it (0 for an empty slice).
pub fn percentile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// Samples and scalar values collected by a workload, keyed by metric
/// name. Samples reduce to their median when the result is printed.
#[derive(Debug, Default)]
pub struct Metrics {
    samples: BTreeMap<String, Vec<f64>>,
    values: BTreeMap<String, f64>,
}

impl Metrics {
    /// Add one sample of `name` (reported as the median of its samples).
    pub fn sample(&mut self, name: &str, value: f64) {
        self.samples
            .entry(name.to_string())
            .or_default()
            .push(value);
    }

    /// Set `name` outright.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Record a closed loop's timing: wall time per unit of work and
    /// latency per operation, both in ms. Throughput counts operations
    /// over the time the units took. A traced run reports its unit time
    /// as `traced_unit_s`, to compare with the untraced `unit_s`.
    pub fn set_timing(&mut self, unit_ms: &[f64], op_ms: &[f64], traced: bool) {
        let measured_s = unit_ms.iter().sum::<f64>() / 1e3;
        let unit_s = median(unit_ms) / 1e3;
        self.set(if traced { "traced_unit_s" } else { "unit_s" }, unit_s);
        self.set(
            "ops_per_hour",
            op_ms.len() as f64 * 3600.0 / measured_s.max(1e-9),
        );
        self.set("op_p50_ms", median(op_ms));
        self.set("op_p95_ms", percentile(op_ms, 0.95));
    }

    /// The value `name` will be reported with, if any was recorded.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .get(name)
            .copied()
            .or_else(|| self.samples.get(name).map(|v| median(v)))
    }
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: flow runs, ECO changes or farm jobs.
    pub attempted: usize,
    /// Operations that errored or failed a check.
    pub failed: usize,
    /// Correctness-check failures that are not operations (fidelity
    /// of the traced decomposition, farm-vs-direct identity, ...).
    pub errors: Vec<String>,
    /// Recorded metrics.
    pub metrics: Metrics,
}

impl Outcome {
    /// Count one operation, failed when `problem` is `Some`.
    pub fn operation(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.failed += 1;
            self.errors.push(p);
        }
    }

    /// Record a correctness check that is not itself an operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    /// The result line: every metric of the table the run prints.
    /// A missing end-to-end metric is a bug in the workload and is
    /// reported as such; a missing per-layer metric is a layer the
    /// workload does not exercise, reported as 0.
    pub fn to_json(&self, traced: bool) -> Result<String, String> {
        let table = if traced { PER_LAYER } else { END_TO_END };
        let mut fields = Vec::with_capacity(table.len());
        for &(name, unit) in table {
            let value = match self.metrics.get(name) {
                Some(v) => v,
                None if traced => 0.0,
                None => return Err(format!("workload did not record {name}")),
            };
            if !value.is_finite() {
                return Err(format!("{name} is not finite: {value}"));
            }
            fields.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        let correct = self.attempted > 0 && self.failed == 0 && self.errors.is_empty();
        Ok(format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=29).map(f64::from).collect();
        assert_eq!(median(&v), 15.0);
        assert_eq!(percentile(&v, 0.9), 27.0);
        assert_eq!(percentile(&v, 0.95), 28.0);
        assert_eq!(median(&[4.0, 1.0]), 1.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn json_has_every_metric_of_its_table() {
        let mut o = Outcome::default();
        for (name, _) in END_TO_END {
            o.metrics.set(name, 1.5);
        }
        o.operation(None);
        let line = o.to_json(false).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        for (name, _) in END_TO_END {
            assert!(line.contains(&format!("\"{name}\": {{\"value\": 1.5")));
        }
        let traced = o.to_json(true).unwrap();
        assert!(traced.contains("\"host.nproc\": {\"value\": 0.0, \"unit\": \"count\"}"));
        o.operation(Some("boom".into()));
        assert!(o.to_json(false).unwrap().starts_with("{\"correct\": false"));
    }

    #[test]
    fn tables_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let workloads = 4;
        assert_eq!(
            json.matches("\"name\":").count(),
            END_TO_END.len() + PER_LAYER.len() + workloads
        );
    }

    #[test]
    fn missing_end_to_end_metric_is_an_error() {
        assert!(Outcome::default().to_json(false).is_err());
    }
}
