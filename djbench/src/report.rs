//! What `BENCHMARK.json` declares, and the JSON this benchmark prints.
//!
//! The declaration is compiled in and is the only list of metric names,
//! units and bounds: output is produced by walking it, so a declared metric
//! that a run did not measure is an error, never a silent omission.

use std::collections::BTreeMap;

use dj_core::{parse_json, Value};

const DECLARATION: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    /// Share of the earlier median by which a later one may be worse.
    /// End-to-end metrics have one; per-layer metrics do not.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Declared {
    pub run_seconds: f64,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

pub fn declared() -> Declared {
    let v = parse_json(DECLARATION).expect("BENCHMARK.json is JSON");
    let metrics = |key: &str| -> Vec<Metric> {
        v.get_path(key)
            .and_then(Value::as_list)
            .expect("BENCHMARK.json lists its metrics")
            .iter()
            .map(|m| Metric {
                name: str_of(m, "name"),
                unit: str_of(m, "unit"),
                bound: m.get_path("bound").and_then(Value::as_float),
            })
            .collect()
    };
    Declared {
        run_seconds: v
            .get_path("run_seconds")
            .and_then(Value::as_float)
            .expect("BENCHMARK.json has run_seconds"),
        end_to_end: metrics("end_to_end"),
        per_layer: metrics("per_layer"),
    }
}

fn str_of(v: &Value, key: &str) -> String {
    v.get_path(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("BENCHMARK.json entry lacks `{key}`"))
        .to_string()
}

/// A number as JSON. Every value printed was measured, so one that is not
/// finite is a defect of the run, not something to paper over.
pub fn num(value: f64) -> Result<String, String> {
    if value.is_finite() {
        Ok(format!("{value}"))
    } else {
        Err(format!("a metric came out as {value}"))
    }
}

pub fn json_str(s: &str) -> String {
    Value::from(s).to_string()
}

/// `{"name":{"value":v,"unit":"u"},...}` for every metric of `declared`,
/// in declaration order.
pub fn metrics_object(
    declared: &[Metric],
    measured: &BTreeMap<String, f64>,
) -> Result<String, String> {
    let mut fields = Vec::new();
    for m in declared {
        let value = measured
            .get(&m.name)
            .ok_or_else(|| format!("declared metric `{}` was not measured", m.name))?;
        fields.push(format!(
            "{}:{{\"value\":{},\"unit\":{}}}",
            json_str(&m.name),
            num(*value)?,
            json_str(&m.unit)
        ));
    }
    Ok(format!("{{{}}}", fields.join(",")))
}

/// The one line the driver reads: the last line of standard output.
pub fn driver_line(
    declared: &[Metric],
    measured: &BTreeMap<String, f64>,
    attempted: u64,
    failed: u64,
) -> Result<String, String> {
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{failed},\"metrics\":{}}}",
        failed == 0 && attempted > 0,
        attempted.max(1),
        metrics_object(declared, measured)?
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::PROBED_OPS;
    use crate::workloads::WORKLOADS;

    #[test]
    fn declaration_matches_the_code() {
        let d = declared();
        let v = parse_json(DECLARATION).unwrap();
        let workloads = v.get_path("workloads").and_then(Value::as_list).unwrap();
        let declared_names: Vec<String> = workloads.iter().map(|w| str_of(w, "name")).collect();
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(declared_names, names);
        assert!(workloads.iter().all(|w| str_of(w, "why").len() <= 200));
        assert!((1.0..=60.0).contains(&d.run_seconds));
        let e2e: Vec<&str> = d.end_to_end.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(e2e, ["wall_s", "peak_rss_mb", "setup_s"]);
        let setup = d.end_to_end.iter().find(|m| m.name == "setup_s").unwrap();
        for m in &d.end_to_end {
            let bound = m.bound.expect("end-to-end metrics are bounded");
            assert!(bound > 0.0 && bound <= 0.25);
            assert!(
                bound <= setup.bound.unwrap(),
                "setup_s has the largest bound"
            );
        }
        for op in PROBED_OPS {
            for suffix in ["ns_per_sample", "keep_ratio"] {
                let name = format!("op.{op}.{suffix}");
                assert!(d.per_layer.iter().any(|m| m.name == name), "{name}");
            }
        }
        for m in d.end_to_end.iter().chain(&d.per_layer) {
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{m:?}");
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(d.per_layer.iter().all(|m| m.bound.is_none()));
    }

    #[test]
    fn driver_line_reparses_and_names_every_declared_metric() {
        let d = declared();
        let measured: BTreeMap<String, f64> = d
            .end_to_end
            .iter()
            .enumerate()
            .map(|(i, m)| (m.name.clone(), 1.5 + i as f64))
            .collect();
        let line = driver_line(&d.end_to_end, &measured, 4, 0).unwrap();
        let v = parse_json(&line).unwrap();
        assert_eq!(v.get_path("correct").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get_path("attempted").and_then(Value::as_int), Some(4));
        let metrics = v.get_path("metrics").and_then(Value::as_map).unwrap();
        for m in &d.end_to_end {
            let entry = &metrics[&m.name];
            assert!(entry.get_path("value").and_then(Value::as_float).unwrap() > 0.0);
            assert_eq!(
                entry.get_path("unit").and_then(Value::as_str),
                Some(&*m.unit)
            );
        }
        assert_eq!(metrics.len(), d.end_to_end.len());

        let failed = driver_line(&d.end_to_end, &measured, 4, 1).unwrap();
        assert!(failed.starts_with("{\"correct\":false"));
        assert!(driver_line(&d.per_layer, &measured, 1, 0).is_err());
        assert!(num(f64::NAN).is_err());
    }
}
