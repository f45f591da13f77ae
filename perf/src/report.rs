//! What a run prints and writes: the informational header, the metric
//! table, and the result object that is the last line of standard output.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use crate::engine::{Gate, QUERIES};
use crate::kernels::KERNELS;
use crate::layers::{FAMILIES, STAGES};
use crate::workload::RunPlan;

/// One measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

/// The end-to-end metrics, in `BENCHMARK.json` order.
pub const END_TO_END: [&str; 6] = [
    "setup_s",
    "power_ms_p50",
    "power_ms_p75",
    "query_ms_geomean",
    "peak_rss_mb",
    "stored_bytes_ratio",
];

/// The per-layer metrics a traced run reports, in `BENCHMARK.json` order.
pub fn per_layer_names() -> Vec<String> {
    let mut names = vec!["exec.prim_share".to_string(), "exec.glue_ms".to_string()];
    names.extend((1..=QUERIES).map(|q| format!("q{q:02}.ms_p50")));
    names.extend((1..=QUERIES).map(|q| format!("q{q:02}.prim_share")));
    names.extend(FAMILIES.iter().map(|f| format!("{f}_ms")));
    names.extend(["prim.calls", "prim.tuples"].map(String::from));
    for k in KERNELS {
        names.push(format!("kern.{k}.default_ns"));
        names.push(format!("kern.{k}.best_ns"));
    }
    names.extend(
        [
            "policy.choose_observe_ns",
            "adaptive.invoke_overhead_ns",
            "cycles.ticks_now_ns",
            "adaptive.nondefault_call_share",
            "adaptive.ma_factor_geomean",
            "adaptive.heur_factor_geomean",
        ]
        .map(String::from),
    );
    names.extend(STAGES.iter().map(|s| format!("{s}_us")));
    names.extend(
        [
            "frontend.compile_us",
            "exchange.w1_over_w2",
            "exchange.route_ns_per_row",
            "dbgen.rows_per_s",
            "encode.lineitem_ms",
            "decode_ref.lineitem_ms",
            "store.raw_mb",
            "store.enc_mb",
            "trace.overhead_pct",
            "trace.query_dev_pct",
        ]
        .map(String::from),
    );
    names
}

/// Puts `metrics` in the order of `names`; an unmeasured, unexpected,
/// repeated or non-finite metric is an error of the harness.
pub fn in_order<S: AsRef<str>>(names: &[S], metrics: Vec<Metric>) -> Result<Vec<Metric>, String> {
    let mut by_name = BTreeMap::new();
    for m in metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not a finite number", m.name));
        }
        if let Some(dup) = by_name.insert(m.name.clone(), m) {
            return Err(format!("metric {} measured twice", dup.name));
        }
    }
    let ordered = names
        .iter()
        .map(|n| {
            by_name
                .remove(n.as_ref())
                .ok_or_else(|| format!("metric {} was not measured", n.as_ref()))
        })
        .collect::<Result<Vec<_>, _>>()?;
    match by_name.keys().next() {
        Some(extra) => Err(format!("metric {extra} is not in the benchmark's list")),
        None => Ok(ordered),
    }
}

/// Informational header: where and how the run was made. Not metrics.
pub struct Header {
    pub plan: RunPlan,
    pub nproc: usize,
    pub rustc: String,
    pub loc: BTreeMap<String, usize>,
}

impl Header {
    pub fn tick_source() -> &'static str {
        if cfg!(target_arch = "x86_64") {
            "rdtsc"
        } else {
            "instant"
        }
    }

    pub fn profile() -> &'static str {
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }
    }

    fn to_json(&self) -> String {
        let loc: Vec<String> = self
            .loc
            .iter()
            .map(|(name, lines)| format!("\"{name}\": {lines}"))
            .collect();
        format!(
            "{{\"workload\": \"{}\", \"sf\": {}, \"workers\": {}, \"reps\": {}, \"rounds\": {}, \
             \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \"rustc\": \"{}\", \
             \"tick_source\": \"{}\", \"profile\": \"{}\", \"loc\": {{{}}}}}",
            self.plan.w.name,
            self.plan.sf,
            self.plan.w.workers,
            self.plan.reps,
            self.plan.rounds,
            self.plan.seed,
            self.plan.seconds,
            self.plan.trace,
            self.nproc,
            self.rustc.replace(['"', '\\'], ""),
            Self::tick_source(),
            Self::profile(),
            loc.join(", ")
        )
    }

    pub fn print(&self) {
        println!(
            "perf: workload {} (sf {}, {} worker(s), {} pass(es) per round, {} rounds, seed {}, \
             --seconds {}, trace {})",
            self.plan.w.name,
            self.plan.sf,
            self.plan.w.workers,
            self.plan.reps,
            self.plan.rounds,
            self.plan.seed,
            self.plan.seconds,
            self.plan.trace
        );
        println!(
            "host: {} hardware thread(s), {}, ticks from {}, {} build",
            self.nproc,
            self.rustc,
            Self::tick_source(),
            Self::profile()
        );
        let loc: Vec<String> = self
            .loc
            .iter()
            .map(|(name, lines)| format!("{name} {lines}"))
            .collect();
        println!("non-test Rust lines per crate: {}", loc.join(", "));
    }
}

pub fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "rustc unknown".to_string())
}

/// Lines of code in `src`, up to its first `#[cfg(test)]`, that are
/// neither blank nor comments.
pub fn non_test_lines(src: &str) -> usize {
    src.lines()
        .map(str::trim)
        .take_while(|l| *l != "#[cfg(test)]")
        .filter(|l| !l.is_empty() && !l.starts_with("//"))
        .count()
}

/// Non-test Rust lines per crate under `crates/`; empty when the run is
/// not made from the root of the repository.
pub fn loc_per_crate(crates_dir: &Path) -> BTreeMap<String, usize> {
    fn walk(dir: &Path, total: &mut usize) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, total);
            } else if path.extension().is_some_and(|e| e == "rs") {
                if let Ok(src) = std::fs::read_to_string(&path) {
                    *total += non_test_lines(&src);
                }
            }
        }
    }
    let mut loc = BTreeMap::new();
    let Ok(entries) = std::fs::read_dir(crates_dir) else {
        return loc;
    };
    for entry in entries.flatten() {
        let src = entry.path().join("src");
        if src.is_dir() {
            let mut total = 0;
            walk(&src, &mut total);
            loc.insert(entry.file_name().to_string_lossy().into_owned(), total);
        }
    }
    loc
}

/// The result object: `correct`, `attempted`, `failed` and `metrics`.
pub fn result_json(gate: &Gate, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        gate.failed == 0,
        gate.attempted,
        gate.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("}}");
    out
}

/// Header and result as one document, for the results file.
pub fn document_json(header: &Header, result: &str) -> String {
    format!(
        "{{\"schema\": \"perf/v1\", \"header\": {}, \"result\": {result}}}\n",
        header.to_json()
    )
}

pub fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!("{:<44} {:>18.6} {}", m.name, m.value, m.unit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_code_lines_before_the_test_module() {
        let src = "//! doc\n\nfn a() {\n    // why\n    b();\n}\n\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\n";
        assert_eq!(non_test_lines(src), 3);
    }

    #[test]
    fn in_order_rejects_missing_extra_and_non_finite() {
        let m = |n: &str, v: f64| Metric::new(n, v, "ms");
        let ok = in_order(&["a", "b"], vec![m("b", 2.0), m("a", 1.0)]).unwrap();
        assert_eq!(ok[0].name, "a");
        assert!(in_order(&["a", "b"], vec![m("a", 1.0)]).is_err());
        assert!(in_order(&["a"], vec![m("a", 1.0), m("c", 1.0)]).is_err());
        assert!(in_order(&["a"], vec![m("a", 1.0), m("a", 1.0)]).is_err());
        assert!(in_order(&["a"], vec![m("a", f64::NAN)]).is_err());
    }

    #[test]
    fn per_layer_names_are_unique_and_within_the_contract() {
        let names = per_layer_names();
        let unique: std::collections::BTreeSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len());
        assert!(names.len() <= 128);
        for n in names.iter().map(String::as_str).chain(END_TO_END) {
            assert!(n.len() <= 64, "{n}");
            assert!(n.chars().next().unwrap().is_ascii_alphanumeric(), "{n}");
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
    }
}
