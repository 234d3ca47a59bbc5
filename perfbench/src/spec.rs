//! The benchmark's fixed definition: workloads, metrics, units,
//! directions and bounds. `BENCHMARK.json` is generated from this table
//! (`perfbench --manifest`), so the file and the program cannot drift.

/// Seconds one run measures.
pub const RUN_SECONDS: u64 = 30;

/// (name, why) of each benchmarked workload.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "service_bare",
        "HTTP lifecycles on 64 resident demo sessions: HTTP, session build, DTO encoding and the worker pool are a visible share",
    ),
    (
        "corpus_plan",
        "in-process run_cell over 8 scenarios x 3 strategies: the planner hot path alone, bypassing HTTP, DTOs and persistence",
    ),
];

/// One metric: name, unit, whether higher or lower is better, and for
/// end-to-end metrics the share of the parent's median it may worsen by.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub bound: f64,
}

const fn m(name: &'static str, unit: &'static str, higher_is_better: bool, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better,
        bound,
    }
}

const HI: bool = true;
const LO: bool = false;

pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", LO, 0.25),
    m("lifecycles_per_s", "1/s", HI, 0.25),
    m("lifecycle_p50_ms", "ms", LO, 0.25),
    m("lifecycle_p90_ms", "ms", LO, 0.25),
    m("explore_p50_ms", "ms", LO, 0.25),
    m("combos_per_s", "1/s", HI, 0.25),
    m("peak_rss_mb", "MB", LO, 0.15),
];

pub const PER_LAYER: &[Metric] = &[
    m("http.healthz_p50_us", "us", LO, 0.0),
    m("http.overhead_p50_us", "us", LO, 0.0),
    m("service.create_p50_ms", "ms", LO, 0.0),
    m("service.explore_p50_ms", "ms", LO, 0.0),
    m("service.select_p50_ms", "ms", LO, 0.0),
    m("service.history_p50_us", "us", LO, 0.0),
    m("service.close_p50_ms", "ms", LO, 0.0),
    m("service.cycle_mean_ms", "ms", LO, 0.0),
    m("persist.tax_p50_ms", "ms", LO, 0.0),
    m("persist.save_p50_ms", "ms", LO, 0.0),
    m("persist.encode_p50_ms", "ms", LO, 0.0),
    m("persist.snapshot_kb", "kB", LO, 0.0),
    m("persist.restore_ms", "ms", LO, 0.0),
    m("persist.storage_kb_per_mutation", "kB", LO, 0.0),
    m("manager.create_p50_ms", "ms", LO, 0.0),
    m("manager.explore_p50_ms", "ms", LO, 0.0),
    m("manager.select_p50_us", "us", LO, 0.0),
    m("api.encode_p50_us", "us", LO, 0.0),
    m("api.decode_p50_us", "us", LO, 0.0),
    m("eval.pool_overhead_p50_ms", "ms", LO, 0.0),
    m("planner.exhaustive_us_per_combo", "us", LO, 0.0),
    m("planner.beam_us_per_combo", "us", LO, 0.0),
    m("planner.greedy_us_per_combo", "us", LO, 0.0),
    m("planner.prune_rate", "fraction", HI, 0.0),
    m("planner.failed_apply_rate", "fraction", LO, 0.0),
    m("quality.estimate_baseline_us", "us", LO, 0.0),
    m("quality.estimate_us", "us", LO, 0.0),
    m("analysis.analyze_us", "us", LO, 0.0),
    m("etl_model.propagate_us", "us", LO, 0.0),
    m("fcp.registry_us", "us", LO, 0.0),
    m("xlm.write_flow_us", "us", LO, 0.0),
    m("xlm.read_flow_us", "us", LO, 0.0),
    m("datagen.corpus_catalog_ms", "ms", LO, 0.0),
    m("template.from_spec_ms", "ms", LO, 0.0),
    m("template.builder_us", "us", LO, 0.0),
    m("process.cpu_ms_per_lifecycle", "ms", LO, 0.0),
    m("process.ctx_switches_per_lifecycle", "count", LO, 0.0),
    m("trace.overhead_pct", "%", LO, 0.0),
];

/// The metric table for a run mode.
pub fn metrics(trace: bool) -> &'static [Metric] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// `BENCHMARK.json`, exactly as committed at the repository root.
pub fn manifest() -> String {
    let direction = |x: &Metric| {
        if x.higher_is_better {
            "higher"
        } else {
            "lower"
        }
    };
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect();
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|x| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                x.name,
                x.unit,
                direction(x),
                x.bound
            )
        })
        .collect();
    let layer: Vec<String> = PER_LAYER
        .iter()
        .map(|x| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                x.name,
                x.unit,
                direction(x)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \"--manifest-path\", \"perfbench/Cargo.toml\", \"--\"],\n  \"paths\": [\"perfbench\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        e2e.join(",\n"),
        layer.join(",\n")
    )
}
