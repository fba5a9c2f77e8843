//! Metric collection and output: one `metric` line per value (name,
//! value, unit, sample counts) and, last, the one-line JSON result.

use std::fmt::Write as _;

/// End-to-end metrics: printed by every untraced run, in this order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_ops_s", "ops/s"),
    ("cpu_us_per_op", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: printed by every traced run, in this order. Only
/// layers every workload exercises are listed; the workload-specific
/// layers are printed as `layer` lines by the runs that exercise them.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("server.service_us", "us"),
    ("server.wire_us", "us"),
    ("server.refused", "count"),
    ("core.query_us", "us"),
    ("core.unattributed_us", "us"),
    ("core.plancache.hit_ratio", "fraction"),
    ("core.plancache.evictions", "count"),
    ("core.plancache.invalidations", "count"),
    ("core.plancache.hit_us", "us"),
    ("core.plancache.miss_us", "us"),
    ("rxpath.parse_us", "us"),
    ("automata.optimize_us", "us"),
    ("automata.plan_us", "us"),
    ("hype.eval_us", "us"),
    ("hype.visited_per_answer", "nodes"),
    ("hype.jump_share", "fraction"),
    ("xml.parse_mb_s", "MB/s"),
    ("view.derive_ms", "ms"),
    ("tax.build_ms", "ms"),
];

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Records a metric and prints its line; `note` gives its sample
    /// counts and provenance.
    pub fn add(&mut self, name: &str, value: f64, unit: &str, note: impl AsRef<str>) {
        println!("metric {name} {value:.6} {unit} {}", note.as_ref());
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        });
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The final JSON line over the metrics named in `set`. Fails if one
    /// is missing.
    pub fn json(
        &self,
        set: &[(&str, &str)],
        correct: bool,
        attempted: usize,
        failed: usize,
    ) -> Result<String, String> {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (name, unit)) in set.iter().enumerate() {
            let m = self
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if m.unit != *unit {
                return Err(format!("metric {name} has unit {} not {unit}", m.unit));
            }
            if !m.value.is_finite() {
                return Err(format!("metric {name} is not finite"));
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                m.value
            );
        }
        out.push_str("}}");
        Ok(out)
    }
}
