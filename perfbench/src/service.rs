//! `service_bare`: a self-hosted server holding 64 resident demo
//! sessions while `nproc` (at most 2) keep-alive clients run closed-loop
//! create → explore → select → history → close lifecycles.

use crate::stats::{median, Rng, Slices};
use crate::trace::{Split, Tracer};
use crate::{layers, procfs, Report};
use poiesis::{AlternativeSummary, IterationRecord, PlanRequest, PlanResponse, SessionManager};
use poiesis_server::{
    Client, ClientError, PlanningService, Server, ServerConfig, SessionTemplate, ShutdownHandle,
};
use std::collections::BTreeMap;
use std::io;
use std::net::SocketAddr;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// The served template.
pub const SPEC: &str = "demo:80";
/// Sessions created, explored and selected at set-up and kept open.
pub const RESIDENTS: usize = 64;
/// `PlanRequest::budget` of every session.
pub const BUDGET: usize = 200;
/// Distinct requests the lifecycles rotate through.
const POOL: usize = 4;
/// Chunks a measured run's completions are cut into for its rates.
const SLICES: usize = 10;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// A frontier as a sorted set of (name, score bit patterns).
pub type Frontier = Vec<(String, Vec<u64>)>;

/// The lifecycle requests: the default request with the service budget
/// and a seed drawn from `--seed`.
pub fn requests(seed: u64) -> Vec<PlanRequest> {
    let mut rng = Rng::new(seed);
    (0..POOL)
        .map(|_| PlanRequest {
            budget: BUDGET,
            seed: rng.next_u64(),
            ..PlanRequest::default()
        })
        .collect()
}

/// Client threads and connections: `nproc`, at most 2.
pub fn client_threads() -> usize {
    thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

pub fn canon(response: &PlanResponse) -> Frontier {
    let mut f: Frontier = response
        .skyline
        .iter()
        .map(|a| {
            (
                a.name.clone(),
                a.scores.iter().map(|s| s.to_bits()).collect(),
            )
        })
        .collect();
    f.sort();
    f
}

/// `a` Pareto-dominates `b` in maximize-space.
pub fn dominates(a: &[f64], b: &[f64]) -> bool {
    a.iter().zip(b).all(|(x, y)| x >= y) && a.iter().zip(b).any(|(x, y)| x > y)
}

/// Checks a returned frontier against properties the method must have
/// and against the in-process reference explore of the same request.
pub fn check_frontier(
    report: &mut Report,
    response: &PlanResponse,
    request: &PlanRequest,
    expected: &Frontier,
) {
    let sky = &response.skyline;
    report.check(!sky.is_empty(), || "empty skyline".into());
    let signs: Vec<f64> = request
        .objective
        .goals
        .iter()
        .map(|g| if g.direction == "min" { -1.0 } else { 1.0 })
        .collect();
    let shaped =
        response.axes.len() == signs.len() && sky.iter().all(|a| a.scores.len() == signs.len());
    report.check(shaped, || {
        "skyline scores do not match the objective's axes".into()
    });
    if shaped {
        let oriented: Vec<Vec<f64>> = sky
            .iter()
            .map(|a| a.scores.iter().zip(&signs).map(|(s, d)| s * d).collect())
            .collect();
        let dominated = oriented.iter().enumerate().any(|(i, a)| {
            oriented
                .iter()
                .enumerate()
                .any(|(j, b)| i != j && dominates(b, a))
        });
        report.check(!dominated, || {
            "a skyline member is dominated by another".into()
        });
    }
    let ordered = sky.iter().enumerate().all(|(i, a)| a.rank == i)
        && sky.windows(2).all(|w| w[0].objective >= w[1].objective);
    report.check(ordered, || "objective values increase with rank".into());
    let accounted = response.alternatives
        + response.rejected_by_constraints
        + response.failed_applications
        + response.failed_evaluations
        + response.statically_rejected
        + response.bound_pruned;
    report.check(accounted == response.enumerated, || {
        format!(
            "{accounted} combinations accounted for, {} enumerated",
            response.enumerated
        )
    });
    report.check(canon(response) == *expected, || {
        "skyline differs from the in-process explore of the same request".into()
    });
}

/// Checks a selection record against the frontier member it selected.
pub fn check_record(
    report: &mut Report,
    record: &IterationRecord,
    chosen: &AlternativeSummary,
    cycle: usize,
) {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let ok = record.cycle == cycle
        && record.selected == chosen.name
        && bits(&record.scores) == bits(&chosen.scores);
    report.check(ok, || {
        format!("selection record {record:?} does not match {}", chosen.name)
    });
}

/// The reference frontier of each request: an in-process
/// `SessionManager` explore over the same template.
pub fn reference(
    template: &SessionTemplate,
    requests: &[PlanRequest],
    report: &mut Report,
) -> Vec<Frontier> {
    let manager = SessionManager::new();
    requests
        .iter()
        .map(|r| {
            let response = manager
                .create_from_request(template.builder(), r)
                .and_then(|id| manager.explore(id));
            report
                .op("reference_explore", response)
                .map_or_else(Vec::new, |r| canon(&r))
        })
        .collect()
}

/// One keep-alive connection plus what was sent on it, by the route
/// names of `poiesis_http_requests_total`.
pub struct Conn {
    pub client: Client,
    pub sent: BTreeMap<&'static str, u64>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> Result<Conn, ClientError> {
        Ok(Conn {
            client: Client::connect(addr)?,
            sent: BTreeMap::new(),
        })
    }

    fn send(&mut self, route: &'static str) -> &mut Client {
        *self.sent.entry(route).or_default() += 1;
        &mut self.client
    }
}

/// A running server.
pub struct Running {
    pub addr: SocketAddr,
    handle: ShutdownHandle,
    join: JoinHandle<io::Result<usize>>,
}

impl Running {
    pub fn start(template: SessionTemplate) -> Result<Running, String> {
        let service = PlanningService::new(template);
        let server = Server::bind("127.0.0.1:0", service, ServerConfig::default())
            .map_err(|e| e.to_string())?;
        let (addr, handle, join) = server.spawn().map_err(|e| e.to_string())?;
        Ok(Running { addr, handle, join })
    }

    /// Shuts down and waits for the accept loop and every worker. Drop
    /// the connections first: a worker serves a keep-alive connection
    /// until its peer hangs up.
    pub fn stop(self) -> Result<(), String> {
        self.handle.shutdown();
        match self.join.join() {
            Ok(Ok(_)) => Ok(()),
            Ok(Err(e)) => Err(e.to_string()),
            Err(_) => Err("accept loop panicked".into()),
        }
    }
}

/// The populated service with its connections.
struct Instance {
    server: Running,
    conns: Vec<Conn>,
    template: SessionTemplate,
    requests: Vec<PlanRequest>,
    expected: Vec<Frontier>,
    residents: Vec<(u64, IterationRecord)>,
}

impl Instance {
    fn stop(self, report: &mut Report) {
        drop(self.conns);
        let stopped = self.server.stop();
        report.op("shutdown", stopped);
    }
}

fn connect_all(addr: SocketAddr, report: &mut Report) -> Option<Vec<Conn>> {
    (0..client_threads())
        .map(|_| report.op("connect", Conn::connect(addr)))
        .collect()
}

/// Creates, explores and selects `count` sessions spread over `conns`,
/// returning each handle with its acknowledged selection.
pub fn populate(
    conns: &mut [Conn],
    count: usize,
    requests: &[PlanRequest],
    expected: &[Frontier],
    seed: u64,
    report: &mut Report,
) -> Vec<(u64, IterationRecord)> {
    let threads = conns.len();
    let results: Vec<(Report, Vec<(u64, IterationRecord)>)> = thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(t, conn)| {
                scope.spawn(move || {
                    let mut local = Report::default();
                    let mut made = Vec::new();
                    for i in (t..count).step_by(threads) {
                        let mut rng = Rng::new(seed ^ 0x5e1e_c700 ^ i as u64);
                        let k = i % requests.len();
                        let Some(id) = local.op(
                            "create",
                            conn.send("session_create").create(Some(&requests[k])),
                        ) else {
                            continue;
                        };
                        let Some(response) = local.op("explore", conn.send("explore").explore(id))
                        else {
                            continue;
                        };
                        check_frontier(&mut local, &response, &requests[k], &expected[k]);
                        if response.skyline.is_empty() {
                            continue;
                        }
                        let chosen = &response.skyline[rng.below(response.skyline.len())];
                        let Some(record) =
                            local.op("select", conn.send("select").select(id, chosen.rank))
                        else {
                            continue;
                        };
                        check_record(&mut local, &record, chosen, 1);
                        made.push((id, record));
                    }
                    (local, made)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("populate thread"))
            .collect()
    });
    let mut residents = Vec::new();
    for (local, made) in results {
        report.merge(local);
        residents.extend(made);
    }
    residents.sort_by_key(|(id, _)| *id);
    residents
}

/// Template, reference explores, server bind and resident sessions.
fn setup(seed: u64, report: &mut Report) -> Option<Instance> {
    let template = report.op("template", SessionTemplate::from_spec(SPEC))?;
    let requests = requests(seed);
    let expected = reference(&template, &requests, report);
    let server = report.op("start", Running::start(template.clone()))?;
    let mut conns = connect_all(server.addr, report)?;
    let residents = populate(&mut conns, RESIDENTS, &requests, &expected, seed, report);
    Some(Instance {
        server,
        conns,
        template,
        requests,
        expected,
        residents,
    })
}

/// Every resident's history equals its acknowledged selection.
fn check_residents(inst: &mut Instance, report: &mut Report, when: &str) {
    let conn = &mut inst.conns[0];
    for (id, record) in &inst.residents {
        if let Some(history) = report.op("history", conn.send("history").history(*id)) {
            report.check(history == vec![record.clone()], || {
                format!("resident {id} history {when} is {history:?}, acknowledged {record:?}")
            });
        }
    }
}

/// What one closed-loop load phase measured.
struct Load {
    wall: f64,
    /// Lifecycle completions and explored combinations, for the rates.
    slices: Slices,
}

impl Load {
    fn new(start: Instant) -> Load {
        Load {
            wall: 0.0,
            slices: Slices::new(start, SLICES),
        }
    }
}

/// Runs lifecycles on every connection until `seconds` have passed;
/// each thread finishes the lifecycle it is in.
fn load(
    inst: &mut Instance,
    seed: u64,
    seconds: f64,
    tracer: &mut Tracer,
    traced: bool,
    report: &mut Report,
) -> Load {
    let threads = inst.conns.len();
    let requests = &inst.requests;
    let expected = &inst.expected;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let epoch = tracer.epoch();
    let results: Vec<(Report, Load, Tracer)> = thread::scope(|scope| {
        let handles: Vec<_> = inst
            .conns
            .iter_mut()
            .enumerate()
            .map(|(t, conn)| {
                scope.spawn(move || {
                    let mut local = Report::default();
                    let mut out = Load::new(start);
                    let mut tr = Tracer::new(epoch, traced);
                    let mut rng = Rng::new(seed.wrapping_mul(0x9E37_79B9) ^ (t as u64 + 1));
                    let mut j = 0usize;
                    while Instant::now() < deadline {
                        let lc = ((t as u64) << 32) | j as u64;
                        let k = (j * threads + t) % requests.len();
                        let root = tr.begin("lifecycle", None, lc);
                        let begun = Instant::now();
                        let done = lifecycle(
                            conn,
                            &mut tr,
                            root,
                            lc,
                            &requests[k],
                            &expected[k],
                            &mut rng,
                            &mut local,
                            &mut out,
                        );
                        tr.end(root);
                        if done {
                            out.slices.unit(begun.elapsed().as_secs_f64());
                        }
                        j += 1;
                    }
                    (local, out, tr)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut total = Load::new(start);
    total.wall = start.elapsed().as_secs_f64();
    for (local, out, tr) in results {
        report.merge(local);
        total.slices.merge(&out.slices);
        tracer.absorb(tr);
    }
    total
}

/// One create → explore → select → history → close lifecycle; `true`
/// when every step succeeded.
#[allow(clippy::too_many_arguments)]
fn lifecycle(
    conn: &mut Conn,
    tr: &mut Tracer,
    root: Option<usize>,
    lc: u64,
    request: &PlanRequest,
    expected: &Frontier,
    rng: &mut Rng,
    report: &mut Report,
    out: &mut Load,
) -> bool {
    let (r, _) = tr.time("client.create", root, lc, || {
        conn.send("session_create").create(Some(request))
    });
    let Some(id) = report.op("create", r) else {
        return false;
    };
    let (r, secs) = tr.time("client.explore", root, lc, || {
        conn.send("explore").explore(id)
    });
    let Some(response) = report.op("explore", r) else {
        return false;
    };
    out.slices.work(response.enumerated as f64, secs);
    check_frontier(report, &response, request, expected);
    if response.skyline.is_empty() {
        return false;
    }
    let chosen = &response.skyline[rng.below(response.skyline.len())];
    let (r, _) = tr.time("client.select", root, lc, || {
        conn.send("select").select(id, chosen.rank)
    });
    let Some(record) = report.op("select", r) else {
        return false;
    };
    check_record(report, &record, chosen, 1);
    let (r, _) = tr.time("client.history", root, lc, || {
        conn.send("history").history(id)
    });
    let Some(history) = report.op("history", r) else {
        return false;
    };
    report.check(history == vec![record.clone()], || {
        format!("session {id} history {history:?} != [{record:?}]")
    });
    let (r, _) = tr.time("client.close", root, lc, || conn.send("close").close(id));
    if report.op("close", r).is_none() {
        return false;
    }
    true
}

/// Reconciles the server's own counters with what was sent: requests per
/// route, no snapshot writes without a state directory, explores per
/// cycle observation; and the live-session count.
fn check_server(inst: &mut Instance, report: &mut Report) {
    check_residents(inst, report, "at the end");
    let live = report.op("healthz", inst.conns[0].send("healthz").healthz());
    report.check(live == Some(RESIDENTS), || {
        format!("{live:?} live sessions, expected {RESIDENTS}")
    });
    let Some(text) = report.op("metrics", inst.conns[0].client.metrics()) else {
        return;
    };
    let mut sent: BTreeMap<&str, u64> = BTreeMap::new();
    for conn in &inst.conns {
        for (route, n) in &conn.sent {
            *sent.entry(route).or_default() += n;
        }
    }
    let mut served: BTreeMap<String, u64> = BTreeMap::new();
    let mut non_success = 0u64;
    let value = |name: &str| -> f64 {
        text.lines()
            .find(|l| l.starts_with(name) && l[name.len()..].starts_with(' '))
            .and_then(|l| l.rsplit(' ').next()?.parse().ok())
            .unwrap_or(f64::NAN)
    };
    for line in text
        .lines()
        .filter(|l| l.starts_with("poiesis_http_requests_total{"))
    {
        let route = line
            .split("route=\"")
            .nth(1)
            .and_then(|s| s.split('"').next())
            .unwrap_or("");
        let status = line
            .split("status=\"")
            .nth(1)
            .and_then(|s| s.split('"').next())
            .unwrap_or("");
        let n: u64 = line
            .rsplit(' ')
            .next()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        *served.entry(route.to_string()).or_default() += n;
        if status != "200" && status != "201" {
            non_success += n;
        }
    }
    let sent: BTreeMap<String, u64> = sent.into_iter().map(|(k, v)| (k.to_string(), v)).collect();
    report.check(served == sent, || {
        format!("server counted requests {served:?}, sent {sent:?}")
    });
    report.check(non_success == 0, || {
        format!("{non_success} requests answered with an error status")
    });
    let writes = value("poiesis_snapshot_writes_total");
    let errors = value("poiesis_snapshot_errors_total");
    report.check(writes == 0.0 && errors == 0.0, || {
        format!("{writes} snapshot writes ({errors} errors) without a state directory")
    });
    let explores = sent.get("explore").copied().unwrap_or(0);
    let cycles = value("poiesis_cycle_duration_seconds_count");
    report.check(cycles == explores as f64, || {
        format!("{cycles} cycles observed, {explores} explores sent")
    });
    let retries: u64 = inst.conns.iter().map(|c| c.client.retries()).sum();
    report.notes.push(format!("client 503 retries: {retries}"));
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Report {
    let mut report = Report::default();
    let reps = if traced { 1 } else { SETUP_REPS };
    let mut setup_secs = Vec::new();
    let mut inst: Option<Instance> = None;
    for _ in 0..reps {
        if let Some(previous) = inst.take() {
            previous.stop(&mut report);
        }
        let begun = Instant::now();
        inst = setup(seed, &mut report);
        setup_secs.push(begun.elapsed().as_secs_f64());
    }
    let Some(mut inst) = inst else {
        report.check(false, || "set-up failed".into());
        return report;
    };
    report.set("setup_s", median(&setup_secs));
    check_residents(&mut inst, &mut report, "after set-up");

    let mut tracer = Tracer::new(Instant::now(), traced);
    if traced {
        let split = Split::run(seconds * 0.6, |secs, traced, k| {
            let l = load(&mut inst, seed ^ k, secs, &mut tracer, traced, &mut report);
            (l.slices.units(), l.wall)
        });
        split.record(&mut report);
        let target = layers::Target::service(inst.template.clone(), inst.requests[0].clone());
        layers::probe(&target, &mut tracer, &mut report);
    } else {
        let measured = load(&mut inst, seed, seconds, &mut tracer, false, &mut report);
        let slices = &measured.slices;
        let lifecycles = slices.units();
        report.set("lifecycles_per_s", slices.unit_rate());
        report.set("lifecycle_p50_ms", slices.unit_quantile(0.5) * 1e3);
        report.set("lifecycle_p90_ms", slices.unit_quantile(0.9) * 1e3);
        report.set("explore_p50_ms", slices.busy_quantile(0.5) * 1e3);
        report.set("combos_per_s", slices.work_rate());
        report
            .notes
            .push(format!("{lifecycles} lifecycles in {SLICES} chunks"));
    }
    check_server(&mut inst, &mut report);
    report.set("peak_rss_mb", procfs::peak_rss_mb());
    inst.stop(&mut report);
    if traced {
        layers::write_trace("service_bare", seed, &tracer, &mut report);
    }
    report
}
