//! The traced run's layer probes.
//!
//! The same lifecycle is driven at four adjacent public boundaries —
//! the HTTP client against a live server, `PlanningService::handle` on a
//! constructed request (bare and durable), and `SessionManager` — with a
//! span around every call, rotating boundaries per lifecycle so drift
//! hits all of them alike. Layers the benchmark cannot enter from
//! outside are the differences between boundaries: HTTP = client −
//! bare `handle`; persistence = durable − bare `handle`; worker pool =
//! `explore` at the request's `workers` − at `workers: 1`. The layers
//! below the session (quality, analysis, schema propagation, patterns,
//! xLM, data generation, planner) are timed on their own entry points.

use crate::service::{
    self, canon, check_frontier, populate, reference, Conn, Frontier, Running, RESIDENTS,
};
use crate::stats::median;
use crate::trace::Tracer;
use crate::{corpus, out_dir, procfs, Report};
use datagen::{Catalog, DirtProfile};
use etl_model::EtlFlow;
use poiesis::{FromJson, PlanRequest, PlanResponse, SessionManager, ToJson};
use poiesis_server::{PlanningService, Request, Response, SessionTemplate, StateStore};
use serde::json::Value;
use std::collections::BTreeMap;

/// Probe lifecycles per boundary.
const LIFECYCLES: usize = 30;
/// Repetitions of each per-flow layer call.
const REPS: usize = 20;
/// `GET /healthz` round trips per probe lifecycle.
const HEALTHZ: usize = 8;
const OPS: [&str; 5] = ["create", "explore", "select", "history", "close"];

/// What the probes run on: the workload's template and request, its
/// base flows and the template specs it loads.
pub struct Target {
    pub template: SessionTemplate,
    pub request: PlanRequest,
    pub flows: Vec<(EtlFlow, Catalog)>,
    pub specs: Vec<String>,
}

impl Target {
    /// The service workloads' demo template (mirrors `SessionTemplate::demo`).
    pub fn service(template: SessionTemplate, request: PlanRequest) -> Target {
        let rows = service::SPEC
            .rsplit(':')
            .next()
            .and_then(|r| r.parse().ok())
            .unwrap_or(80);
        let (flow, _) = datagen::fig2::purchases_flow();
        let catalog = datagen::fig2::purchases_catalog(rows, &DirtProfile::demo(), 5);
        Target {
            template,
            request,
            flows: vec![(flow, catalog)],
            specs: vec![service::SPEC.to_string()],
        }
    }

    /// The corpus: every scenario's flow at the sweep's row count; the
    /// session-level probes serve the first scenario.
    pub fn corpus(template: SessionTemplate, request: PlanRequest) -> Target {
        let rows = corpus::scale().rows;
        Target {
            template,
            request,
            flows: scenarios::all()
                .iter()
                .map(|s| (s.flow(), s.catalog(rows)))
                .collect(),
            specs: scenarios::names()
                .iter()
                .map(|n| format!("scenario:{n}:{rows}"))
                .collect(),
        }
    }
}

fn request(method: &str, path: &str, body: &str) -> Request {
    Request {
        method: method.to_string(),
        path: path.to_string(),
        headers: Vec::new(),
        body: body.as_bytes().to_vec(),
        keep_alive: true,
    }
}

fn expect(response: Response, status: u16) -> Result<Response, String> {
    if response.status == status {
        Ok(response)
    } else {
        Err(format!("status {}: {}", response.status, response.body))
    }
}

fn session_of(response: &Response) -> Result<u64, String> {
    Value::parse(&response.body)
        .and_then(|v| v.get("session")?.as_usize("session"))
        .map(|id| id as u64)
        .map_err(|e| e.to_string())
}

/// One lifecycle through `PlanningService::handle`, spans named
/// `<prefix>.<op>`.
#[allow(clippy::too_many_arguments)]
fn handle_lifecycle(
    svc: &PlanningService,
    names: &[&'static str; 5],
    root: &'static str,
    lc: u64,
    plan: &str,
    expected: &Frontier,
    req: &PlanRequest,
    tr: &mut Tracer,
    report: &mut Report,
) {
    let root = tr.begin(root, None, lc);
    let (r, _) = tr.time(names[0], root, lc, || {
        svc.handle(&request("POST", "/sessions", plan))
    });
    let Some(id) = report.op("handle_create", expect(r, 201).and_then(|r| session_of(&r))) else {
        tr.end(root);
        return;
    };
    let (r, _) = tr.time(names[1], root, lc, || {
        svc.handle(&request("POST", &format!("/sessions/{id}/explore"), ""))
    });
    if let Some(r) = report.op("handle_explore", expect(r, 200)) {
        match PlanResponse::from_json_str(&r.body) {
            Ok(plan) => check_frontier(report, &plan, req, expected),
            Err(e) => report.check(false, || format!("undecodable explore body: {e}")),
        }
    }
    let (r, _) = tr.time(names[2], root, lc, || {
        svc.handle(&request(
            "POST",
            &format!("/sessions/{id}/select"),
            "{\"rank\":0}",
        ))
    });
    report.op("handle_select", expect(r, 200));
    let (r, _) = tr.time(names[3], root, lc, || {
        svc.handle(&request("GET", &format!("/sessions/{id}/history"), ""))
    });
    report.op("handle_history", expect(r, 200));
    let (r, _) = tr.time(names[4], root, lc, || {
        svc.handle(&request("DELETE", &format!("/sessions/{id}"), ""))
    });
    report.op("handle_close", expect(r, 200));
    tr.end(root);
}

/// Per-lifecycle sums of the named spans.
fn summed(tr: &Tracer, names: &[&str]) -> BTreeMap<u64, f64> {
    let mut out: BTreeMap<u64, f64> = BTreeMap::new();
    for name in names {
        for (lc, secs) in tr.by_lifecycle(name) {
            *out.entry(lc).or_default() += secs;
        }
    }
    out
}

/// Median over lifecycles of `a − b`, for every pair of span names.
fn paired_diff(tr: &Tracer, pairs: &[(&str, &str)]) -> f64 {
    let mut diffs = Vec::new();
    for (a, b) in pairs {
        let (a, b) = (tr.by_lifecycle(a), tr.by_lifecycle(b));
        diffs.extend(a.iter().filter_map(|(lc, x)| b.get(lc).map(|y| x - y)));
    }
    median(&diffs)
}

fn p50(tr: &Tracer, name: &str) -> f64 {
    median(&tr.durations(name))
}

/// Times `f` `reps` times under the span `name`.
fn repeat<T>(
    tr: &mut Tracer,
    name: &'static str,
    lc: u64,
    reps: usize,
    mut f: impl FnMut() -> T,
) -> Option<T> {
    let mut last = None;
    for _ in 0..reps {
        last = Some(tr.time(name, None, lc, &mut f).0);
    }
    last
}

pub fn probe(target: &Target, tr: &mut Tracer, report: &mut Report) {
    let template = &target.template;
    let req = &target.request;
    let plan = req.to_json_string();
    let requests = vec![req.clone()];
    let expected: Frontier = reference(template, &requests, report)
        .pop()
        .unwrap_or_default();

    // boundary 1: a live bare server behind one keep-alive connection
    let Some(server) = report.op("probe_start", Running::start(template.clone())) else {
        return;
    };
    let Some(mut conns) = report
        .op("probe_connect", Conn::connect(server.addr))
        .map(|c| vec![c])
    else {
        return;
    };
    populate(
        &mut conns,
        RESIDENTS,
        &requests,
        std::slice::from_ref(&expected),
        7,
        report,
    );

    // boundary 2: an in-process bare service with the same residents
    let bare = PlanningService::new(template.clone());
    for _ in 0..RESIDENTS {
        let created = expect(bare.handle(&request("POST", "/sessions", &plan)), 201)
            .and_then(|r| session_of(&r));
        if let Some(id) = report.op("handle_create", created) {
            report.op(
                "handle_explore",
                expect(
                    bare.handle(&request("POST", &format!("/sessions/{id}/explore"), "")),
                    200,
                ),
            );
            report.op(
                "handle_select",
                expect(
                    bare.handle(&request(
                        "POST",
                        &format!("/sessions/{id}/select"),
                        "{\"rank\":0}",
                    )),
                    200,
                ),
            );
        }
    }

    // persistence layer on the resident set: encode, save, restore
    let snapshot = bare.manager().snapshot();
    let encoded =
        repeat(tr, "persist.encode", 0, REPS, || snapshot.to_json_string()).unwrap_or_default();
    report.set("persist.snapshot_kb", encoded.len() as f64 / 1e3);
    let save_dir = out_dir().join(format!("probe-save-{}", std::process::id()));
    let state_dir = out_dir().join(format!("probe-state-{}", std::process::id()));
    for dir in [&save_dir, &state_dir] {
        let _ = std::fs::remove_dir_all(dir);
    }
    if let Some(store) = report.op("open_store", StateStore::open(&save_dir)) {
        for _ in 0..REPS {
            let (saved, _) = tr.time("persist.save", None, 0, || {
                store.save(&bare.manager().snapshot())
            });
            report.op("save", saved);
        }
    }
    let seeded = StateStore::open(&state_dir).and_then(|s| s.save(&snapshot));
    report.op("save", seeded);
    let mut durable = None;
    for _ in 0..3 {
        let (restored, _) = tr.time("persist.restore", None, 0, || {
            StateStore::open(&state_dir)
                .map_err(|e| e.to_string())
                .and_then(|store| PlanningService::new(template.clone()).with_store(store))
        });
        durable = report.op("restore", restored);
    }
    let Some(durable) = durable else { return };
    report.check(durable.live_sessions() == RESIDENTS, || {
        format!(
            "restored {} sessions, saved {RESIDENTS}",
            durable.live_sessions()
        )
    });

    // boundary 4: the manager directly (on the bare service's manager)
    let manager: &SessionManager = bare.manager();
    let single = PlanRequest {
        workers: 1,
        ..req.clone()
    };

    let mut written = 0u64;
    for i in 0..LIFECYCLES {
        let lc = i as u64;
        // HTTP client against the live server
        let conn = &mut conns[0];
        for _ in 0..HEALTHZ {
            let (r, _) = tr.time("http.healthz", None, lc, || conn.client.healthz());
            report.op("healthz", r);
        }
        let root = tr.begin("probe.http", None, lc);
        let (r, _) = tr.time("http.create", root, lc, || conn.client.create(Some(req)));
        if let Some(id) = report.op("create", r) {
            let (r, _) = tr.time("http.explore", root, lc, || conn.client.explore(id));
            if let Some(plan) = report.op("explore", r) {
                check_frontier(report, &plan, req, &expected);
            }
            let (r, _) = tr.time("http.select", root, lc, || conn.client.select(id, 0));
            report.op("select", r);
            let (r, _) = tr.time("http.history", root, lc, || conn.client.history(id));
            report.op("history", r);
            let (r, _) = tr.time("http.close", root, lc, || conn.client.close(id));
            report.op("close", r);
        }
        tr.end(root);

        const SERVICE: [&str; 5] = [
            "service.create",
            "service.explore",
            "service.select",
            "service.history",
            "service.close",
        ];
        const DURABLE: [&str; 5] = [
            "durable.create",
            "durable.explore",
            "durable.select",
            "durable.history",
            "durable.close",
        ];
        handle_lifecycle(
            &bare,
            &SERVICE,
            "probe.service",
            lc,
            &plan,
            &expected,
            req,
            tr,
            report,
        );
        let before = procfs::Counters::read();
        handle_lifecycle(
            &durable,
            &DURABLE,
            "probe.durable",
            lc,
            &plan,
            &expected,
            req,
            tr,
            report,
        );
        written += procfs::Counters::read().since(&before).write_bytes;

        // the manager, with the DTO encode/decode of its response
        let root = tr.begin("probe.manager", None, lc);
        let (r, _) = tr.time("manager.create", root, lc, || {
            manager.create_from_request(template.builder(), req)
        });
        if let Some(id) = report.op("manager_create", r) {
            let (r, _) = tr.time("manager.explore", root, lc, || manager.explore(id));
            if let Some(plan) = report.op("manager_explore", r) {
                check_frontier(report, &plan, req, &expected);
                let (text, _) = tr.time("api.encode", root, lc, || plan.to_json_string());
                let (back, _) = tr.time("api.decode", root, lc, || {
                    PlanResponse::from_json_str(&text)
                });
                report.check(back.as_ref().ok() == Some(&plan), || {
                    "PlanResponse JSON round trip differs".into()
                });
            }
            let (r, _) = tr.time("manager.select", root, lc, || manager.select(id, 0));
            report.op("manager_select", r);
            let (r, _) = tr.time("manager.history", root, lc, || manager.history(id));
            report.op("manager_history", r);
            let (r, _) = tr.time("manager.close", root, lc, || manager.close(id));
            report.op("manager_close", r);
        }
        tr.end(root);

        // the same explore on one planner worker
        if let Some(id) = report.op(
            "manager_create",
            manager.create_from_request(template.builder(), &single),
        ) {
            let (r, _) = tr.time("eval.explore_w1", None, lc, || manager.explore(id));
            if let Some(plan) = report.op("manager_explore", r) {
                report.check(canon(&plan) == expected, || {
                    "workers: 1 frontier differs".into()
                });
            }
            report.op("manager_close", manager.close(id));
        }
    }
    drop(conns);
    report.op("shutdown", server.stop());

    let us = 1e6;
    let ms = 1e3;
    report.set("http.healthz_p50_us", p50(tr, "http.healthz") * us);
    let pairs: Vec<(String, String)> = OPS
        .iter()
        .map(|op| (format!("http.{op}"), format!("service.{op}")))
        .collect();
    let pairs: Vec<(&str, &str)> = pairs
        .iter()
        .map(|(a, b)| (a.as_str(), b.as_str()))
        .collect();
    report.set("http.overhead_p50_us", paired_diff(tr, &pairs) * us);
    report.set("service.create_p50_ms", p50(tr, "service.create") * ms);
    report.set("service.explore_p50_ms", p50(tr, "service.explore") * ms);
    report.set("service.select_p50_ms", p50(tr, "service.select") * ms);
    report.set("service.history_p50_us", p50(tr, "service.history") * us);
    report.set("service.close_p50_ms", p50(tr, "service.close") * ms);
    let scrape = bare.handle(&request("GET", "/metrics", "")).body;
    let sample = |name: &str| {
        scrape
            .lines()
            .find(|l| l.starts_with(name) && l[name.len()..].starts_with(' '))
            .and_then(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
            .unwrap_or(f64::NAN)
    };
    report.set(
        "service.cycle_mean_ms",
        sample("poiesis_cycle_duration_seconds_sum")
            / sample("poiesis_cycle_duration_seconds_count")
            * ms,
    );
    let durable_sum = summed(tr, &["durable.create", "durable.select", "durable.close"]);
    let bare_sum = summed(tr, &["service.create", "service.select", "service.close"]);
    let tax: Vec<f64> = durable_sum
        .iter()
        .filter_map(|(lc, d)| bare_sum.get(lc).map(|b| d - b))
        .collect();
    report.set("persist.tax_p50_ms", median(&tax) * ms);
    report.set("persist.save_p50_ms", p50(tr, "persist.save") * ms);
    report.set("persist.encode_p50_ms", p50(tr, "persist.encode") * ms);
    report.set("persist.restore_ms", p50(tr, "persist.restore") * ms);
    report.set(
        "persist.storage_kb_per_mutation",
        written as f64 / 1e3 / (LIFECYCLES * 3) as f64,
    );
    report.set("manager.create_p50_ms", p50(tr, "manager.create") * ms);
    report.set("manager.explore_p50_ms", p50(tr, "manager.explore") * ms);
    report.set("manager.select_p50_us", p50(tr, "manager.select") * us);
    report.set("api.encode_p50_us", p50(tr, "api.encode") * us);
    report.set("api.decode_p50_us", p50(tr, "api.decode") * us);
    report.set(
        "eval.pool_overhead_p50_ms",
        paired_diff(tr, &[("manager.explore", "eval.explore_w1")]) * ms,
    );
    drop(durable);
    for dir in [&save_dir, &state_dir] {
        let _ = std::fs::remove_dir_all(dir);
    }

    flow_layers(target, tr, report);
    corpus::planner_layers(tr, report);
}

/// The layers below the session, per base flow (mean over the target's
/// flows of each call's median).
fn flow_layers(target: &Target, tr: &mut Tracer, report: &mut Report) {
    let mut per: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut note = |tr: &Tracer, name: &'static str, from: usize| {
        let d = tr.durations(name);
        per.entry(name).or_default().push(median(&d[from..]));
    };
    for (i, (flow, catalog)) in target.flows.iter().enumerate() {
        let lc = i as u64;
        let stats = quality::source_stats(catalog);
        let names = [
            "quality.estimate_baseline",
            "quality.estimate",
            "analysis.analyze",
            "etl_model.propagate",
            "fcp.registry",
            "xlm.write_flow",
            "xlm.read_flow",
        ];
        let from: Vec<usize> = names.iter().map(|n| tr.durations(n).len()).collect();
        repeat(tr, "quality.estimate_baseline", lc, REPS, || {
            quality::estimate_baseline(flow, &stats)
        });
        let measured = repeat(tr, "quality.estimate", lc, REPS, || {
            quality::estimate(flow, &stats)
        });
        report.check(measured.is_some_and(|m| m.iter().count() > 0), || {
            "empty measure vector".into()
        });
        let diags = repeat(tr, "analysis.analyze", lc, REPS, || analysis::analyze(flow))
            .unwrap_or_default();
        report.check(!analysis::has_errors(&diags), || {
            format!("base flow {i} has analysis errors")
        });
        let table = repeat(tr, "etl_model.propagate", lc, REPS, || {
            etl_model::propagate_schemas(flow)
        });
        if let Some(table) = table {
            report.op("propagate", table.map_err(|e| e.to_string()));
        }
        repeat(tr, "fcp.registry", lc, REPS, || {
            fcp::PatternRegistry::standard_for_catalog(catalog)
        });
        let text =
            repeat(tr, "xlm.write_flow", lc, REPS, || xlm::write_flow(flow)).unwrap_or_default();
        let back = repeat(tr, "xlm.read_flow", lc, REPS, || xlm::read_flow(&text));
        match back {
            Some(Ok(read)) => report.check(xlm::write_flow(&read) == text, || {
                format!("xLM round trip of flow {i} differs")
            }),
            _ => report.check(false, || format!("xLM text of flow {i} does not read back")),
        }
        for (name, from) in names.iter().zip(from) {
            note(tr, name, from);
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    for (metric, span) in [
        ("quality.estimate_baseline_us", "quality.estimate_baseline"),
        ("quality.estimate_us", "quality.estimate"),
        ("analysis.analyze_us", "analysis.analyze"),
        ("etl_model.propagate_us", "etl_model.propagate"),
        ("fcp.registry_us", "fcp.registry"),
        ("xlm.write_flow_us", "xlm.write_flow"),
        ("xlm.read_flow_us", "xlm.read_flow"),
    ] {
        report.set(metric, mean(&per[span]) * 1e6);
    }

    let mut from_spec = Vec::new();
    for (i, spec) in target.specs.iter().enumerate() {
        let from = tr.durations("template.from_spec").len();
        let made = repeat(tr, "template.from_spec", i as u64, 5, || {
            SessionTemplate::from_spec(spec)
        });
        report.op(
            "template",
            made.unwrap_or_else(|| Err("no repetitions".into())),
        );
        from_spec.push(median(&tr.durations("template.from_spec")[from..]));
    }
    report.set("template.from_spec_ms", mean(&from_spec) * 1e3);
    repeat(tr, "template.builder", 0, REPS, || {
        target.template.builder()
    });
    report.set("template.builder_us", p50(tr, "template.builder") * 1e6);

    let rows = corpus::scale().rows;
    let corpus = scenarios::all();
    repeat(tr, "datagen.corpus_catalog", 0, 5, || {
        corpus.iter().map(|s| s.catalog(rows)).collect::<Vec<_>>()
    });
    report.set(
        "datagen.corpus_catalog_ms",
        p50(tr, "datagen.corpus_catalog") * 1e3,
    );
}

/// Writes the spans and their self times to `perfbench/out/` and prints
/// the self-time table.
pub fn write_trace(workload: &str, seed: u64, tr: &Tracer, report: &mut Report) {
    let overhead = report
        .metrics
        .get("trace.overhead_pct")
        .copied()
        .unwrap_or(f64::NAN);
    let path = out_dir().join(format!("trace-{workload}.json"));
    let text = tr.to_json(&[
        ("workload", format!("\"{workload}\"")),
        ("seed", seed.to_string()),
        ("overhead_pct", format!("{overhead}")),
    ]);
    if let Err(e) = std::fs::write(&path, text) {
        report
            .notes
            .push(format!("could not write {}: {e}", path.display()));
    } else {
        report.notes.push(format!(
            "{} spans written to {}",
            tr.spans.len(),
            path.display()
        ));
    }
    report
        .notes
        .push("span self time (count, total ms, self ms):".into());
    for (name, (n, total, own)) in tr.self_times() {
        report.notes.push(format!(
            "  {name:<28} {n:>6} {:>11.2} {:>11.2}",
            total * 1e3,
            own * 1e3
        ));
    }
    report.notes.push(format!(
        "tracing overhead: {overhead:.2}% of the untraced rate"
    ));
}
