//! The metrics the benchmark declares, and the result line built from them.
//!
//! The lists here are the single source of the names the command prints;
//! a test checks them against `BENCHMARK.json` at the repository root.

use std::collections::BTreeMap;

/// A declared metric: name, unit and which direction is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decl {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> Decl {
    Decl {
        name,
        unit,
        better: "lower",
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Decl {
    Decl {
        name,
        unit,
        better: "higher",
    }
}

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["slam-rtgs", "slam-map-replicated", "serve-openloop"];

/// End-to-end metrics, reported by every untraced run of every workload.
pub const END_TO_END: &[Decl] = &[
    lower("setup_s", "s"),
    higher("fps", "1/s"),
    lower("frame_p50_ms", "ms"),
    lower("sojourn_p50_ms", "ms"),
    lower("sojourn_tail_ms", "ms"),
    lower("ate_cm", "cm"),
    higher("psnr_db", "dB"),
    lower("peak_map_mb", "MB"),
];

/// Per-layer metrics, reported by every traced run of every workload (a
/// layer the workload does not reach reports 0).
pub const PER_LAYER: &[Decl] = &[
    lower("scene.generate_s", "s"),
    lower("render.track.preprocess_ms", "ms"),
    lower("render.track.sorting_ms", "ms"),
    lower("render.track.render_ms", "ms"),
    lower("render.track.render_bp_ms", "ms"),
    lower("render.track.preprocess_bp_ms", "ms"),
    lower("render.map.preprocess_ms", "ms"),
    lower("render.map.sorting_ms", "ms"),
    lower("render.map.render_ms", "ms"),
    lower("render.map.render_bp_ms", "ms"),
    lower("render.map.preprocess_bp_ms", "ms"),
    lower("render.track.fragments_per_frame", "count"),
    lower("render.track.grad_events_per_frame", "count"),
    lower("slam.track_ms", "ms"),
    lower("slam.map_ms", "ms"),
    lower("slam.step_other_ms", "ms"),
    lower("slam.keyframes", "count"),
    lower("slam.peak_gaussians", "count"),
    higher("core.downsampled_share", "ratio"),
    lower("core.track_pixels_per_frame", "count"),
    lower("core.final_gaussians", "count"),
    lower("snapshot.capture_ms", "ms"),
    lower("snapshot.delta_kb", "kB"),
    lower("snapshot.shards_written_share", "ratio"),
    lower("replicate.encode_send_ms", "ms"),
    lower("replicate.pump_ms", "ms"),
    lower("replicate.follower_apply_ms", "ms"),
    lower("replicate.retransmits", "count"),
    lower("replicate.frames_behind_max", "count"),
    lower("wire_kb_per_frame", "kB"),
    lower("runtime.step_ms", "ms"),
    lower("runtime.queue_wait_ms", "ms"),
    lower("runtime.busy_share", "ratio"),
    lower("runtime.max_inbox_depth", "count"),
    lower("runtime.idle_rounds", "count"),
    lower("runtime.dropped", "count"),
    lower("runtime.degraded", "count"),
    lower("runtime.gen_late_p99_ms", "ms"),
    higher("overload_goodput_fps", "1/s"),
    lower("overload_drop_share", "ratio"),
    higher("trace.overhead_fps", "1/s"),
    lower("trace.overhead_sojourn_p50_ms", "ms"),
];

/// One measured value with its sample count and an optional remark.
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    /// The figure, in the declared unit.
    pub value: f64,
    /// How many samples it summarises.
    pub samples: usize,
    /// Free-text qualifier (e.g. which percentile a tail is).
    pub note: String,
}

/// Measured values by metric name.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<&'static str, Value>);

impl Values {
    /// Sets `name` to `value` over `samples` samples.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        self.set_noted(name, value, samples, String::new());
    }

    /// Sets `name` with a remark.
    pub fn set_noted(&mut self, name: &'static str, value: f64, samples: usize, note: String) {
        self.0.insert(
            name,
            Value {
                value,
                samples,
                note,
            },
        );
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.0.get(name)
    }
}

/// Human-readable lines, one per declared metric, in declaration order.
pub fn table(decls: &[Decl], values: &Values) -> String {
    let mut out = String::new();
    for d in decls {
        if let Some(v) = values.get(d.name) {
            let note = if v.note.is_empty() {
                String::new()
            } else {
                format!(", {}", v.note)
            };
            out.push_str(&format!(
                "  {:<36} {:>14.4} {:<6} (n={}, {} is better{note})\n",
                d.name, v.value, d.unit, v.samples, d.better
            ));
        }
    }
    out
}

/// The result line: exactly the metrics of `decls`, each with its unit.
///
/// # Errors
///
/// Names a metric of `decls` that was not measured, one measured but
/// declared in neither list, or a value that is not finite.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    decls: &[Decl],
    values: &Values,
) -> Result<String, String> {
    if let Some(extra) = values
        .0
        .keys()
        .find(|k| !END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == **k))
    {
        return Err(format!("metric {extra} is not declared"));
    }
    let mut fields = Vec::with_capacity(decls.len());
    for d in decls {
        let v = values
            .get(d.name)
            .ok_or_else(|| format!("metric {} was not measured", d.name))?;
        if !v.value.is_finite() {
            return Err(format!("metric {} is not finite ({})", d.name, v.value));
        }
        fields.push(format!(
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            d.name, v.value, d.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        fields.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `"name"` and `"unit"` entries of one top-level array of
    /// `BENCHMARK.json`, in order. The file is flat enough that a scan for
    /// quoted keys inside the array suffices.
    fn section(json: &str, key: &str) -> Vec<(String, Option<String>)> {
        let start = json
            .find(&format!("\"{key}\""))
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
        let body = &json[start..];
        let body = &body[..body.find(']').expect("array closes")];
        body.split('{')
            .skip(1)
            .map(|entry| {
                (
                    field(entry, "name").expect("entry has a name"),
                    field(entry, "unit"),
                )
            })
            .collect()
    }

    fn field(entry: &str, key: &str) -> Option<String> {
        let at = entry.find(&format!("\"{key}\""))?;
        let rest = &entry[at + key.len() + 2..];
        let open = rest.find('"')? + 1;
        let close = open + rest[open..].find('"')?;
        Some(rest[open..close].to_string())
    }

    fn benchmark_json() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
    }

    fn declared(decls: &[Decl]) -> Vec<(String, Option<String>)> {
        decls
            .iter()
            .map(|d| (d.name.to_string(), Some(d.unit.to_string())))
            .collect()
    }

    #[test]
    fn printed_names_match_benchmark_json() {
        let json = benchmark_json();
        assert_eq!(section(&json, "end_to_end"), declared(END_TO_END));
        assert_eq!(section(&json, "per_layer"), declared(PER_LAYER));
        let workloads: Vec<String> = section(&json, "workloads")
            .into_iter()
            .map(|(name, _)| name)
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn result_line_holds_exactly_the_declared_metrics() {
        let mut values = Values::default();
        for (i, d) in END_TO_END.iter().enumerate() {
            values.set(d.name, i as f64 + 0.5, 1);
        }
        let line = result_json(true, 3, 0, END_TO_END, &values).unwrap();
        let printed: Vec<String> = line
            .split("\"unit\"")
            .filter_map(|chunk| chunk.rsplit_once("\": {\"value\"").map(|(head, _)| head))
            .map(|head| head.rsplit('"').next().unwrap().to_string())
            .collect();
        let names: Vec<&str> = END_TO_END.iter().map(|d| d.name).collect();
        assert_eq!(printed, names);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0,"));

        // Per-layer values measured alongside stay out of an end-to-end line.
        values.set(PER_LAYER[0].name, 1.0, 1);
        assert_eq!(result_json(true, 3, 0, END_TO_END, &values).unwrap(), line);

        values.set("not_declared", 1.0, 1);
        assert!(result_json(true, 3, 0, END_TO_END, &values).is_err());
    }

    #[test]
    fn result_line_rejects_missing_or_non_finite_values() {
        let mut values = Values::default();
        for d in &END_TO_END[1..] {
            values.set(d.name, 1.0, 1);
        }
        assert!(result_json(true, 1, 0, END_TO_END, &values).is_err());
        values.set(END_TO_END[0].name, f64::NAN, 1);
        assert!(result_json(true, 1, 0, END_TO_END, &values).is_err());
    }

    #[test]
    fn names_and_units_fit_the_benchmark_format() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(seen.insert(d.name), "{} declared twice", d.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && d.better == "lower"));
    }
}
