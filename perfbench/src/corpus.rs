//! `corpus_plan`: `scenarios::sweep::run_cell` over all 8 scenarios ×
//! {exhaustive, beam:32, greedy} in-process, grid passes repeated until
//! the run's time is up. No HTTP, DTO, persistence or
//! worker pool: the planner hot path alone.

use crate::service::dominates;
use crate::stats::{median, Rng, Slices};
use crate::trace::{Split, Tracer};
use crate::{layers, procfs, service, Report};
use fcp::DeploymentPolicy;
use poiesis::{Direction, PlanRequest, Planner, PlannerConfig, SearchStrategyKind};
use poiesis_server::SessionTemplate;
use scenarios::sweep::{run_cell, strategies, SweepScale, PLANNER_SEED};
use scenarios::Scenario;
use std::collections::BTreeMap;
use std::thread;
use std::time::{Duration, Instant};

/// Chunks a measured run's completions are cut into for its rates.
const SLICES: usize = 10;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// The committed-trajectory sweep scale (96 rows, budget 4000).
pub fn scale() -> SweepScale {
    SweepScale::full()
}

struct Cell {
    scenario: Scenario,
    strategy: SearchStrategyKind,
}

impl Cell {
    fn label(&self) -> String {
        format!("{}/{}", self.scenario.name, self.strategy)
    }
}

/// The grid in catalog order, or shuffled by `seed`.
fn grid(seed: Option<u64>) -> Vec<Cell> {
    let mut cells: Vec<Cell> = scenarios::all()
        .into_iter()
        .flat_map(|s| {
            strategies().into_iter().map(move |strategy| Cell {
                scenario: s.clone(),
                strategy,
            })
        })
        .collect();
    if let Some(seed) = seed {
        Rng::new(seed).shuffle(&mut cells);
    }
    cells
}

/// Generates a cell's catalog and re-plans it keeping every alternative
/// (the configuration of `run_cell` with `retain_dominated: true`),
/// adding the seconds spent in those program calls to `secs`. With
/// `check`, it then checks that the frontier is exactly the non-dominated
/// subset of what was retained and that every enumerated combination is
/// accounted for once, and returns the frontier's sorted names.
fn reference(cell: &Cell, check: bool, secs: &mut f64, report: &mut Report) -> Option<Vec<String>> {
    let s = &cell.scenario;
    let config = PlannerConfig {
        policy: DeploymentPolicy {
            top_k_points_per_pattern: usize::MAX,
            min_fitness: 0.0,
            ..DeploymentPolicy::exhaustive(s.depth)
        },
        strategy: cell.strategy,
        workers: 1,
        max_alternatives: scale().budget,
        retain_dominated: true,
        objective: s.objective(),
        seed: PLANNER_SEED,
        ..PlannerConfig::default()
    };
    let begun = Instant::now();
    let catalog = s.catalog(scale().rows);
    let registry = fcp::PatternRegistry::standard_for_catalog(&catalog);
    let planned = Planner::new(s.flow(), catalog, registry, config).plan();
    *secs += begun.elapsed().as_secs_f64();
    let outcome = report.op("reference_plan", planned)?;
    if !check {
        return None;
    }
    let signs: Vec<f64> = s
        .objective()
        .goals()
        .iter()
        .map(|g| {
            if g.direction == Direction::Minimize {
                -1.0
            } else {
                1.0
            }
        })
        .collect();
    let points: Vec<Vec<f64>> = outcome
        .alternatives
        .iter()
        .map(|a| a.scores.iter().zip(&signs).map(|(x, d)| x * d).collect())
        .collect();
    let mut non_dominated: Vec<usize> = (0..points.len())
        .filter(|&i| !points.iter().any(|p| dominates(p, &points[i])))
        .collect();
    non_dominated.sort_unstable();
    let mut skyline = outcome.skyline.clone();
    skyline.sort_unstable();
    report.check(skyline == non_dominated, || {
        format!(
            "{}: frontier has {} members, the non-dominated subset of {} alternatives has {}",
            cell.label(),
            skyline.len(),
            points.len(),
            non_dominated.len()
        )
    });
    let accounted = outcome.alternatives.len()
        + outcome.rejected_by_constraints
        + outcome.failed_applications
        + outcome.failed_evaluations
        + outcome.statically_rejected
        + outcome.bound_pruned;
    report.check(accounted == outcome.stats.enumerated, || {
        format!(
            "{}: {accounted} combinations accounted for, {} enumerated",
            cell.label(),
            outcome.stats.enumerated
        )
    });
    let mut names: Vec<String> = skyline
        .iter()
        .map(|&i| outcome.alternatives[i].name.clone())
        .collect();
    names.sort();
    Some(names)
}

/// The seed-ordered grid with each cell's reference frontier.
type Grid = (Vec<Cell>, Vec<Option<Vec<String>>>);

/// One set-up: the retain-all reference plan of every cell, in catalog
/// order whatever the seed so that its time and memory do not depend on
/// it. Returns the seconds spent in the program's catalog generation and
/// planning, and with `check` the reference frontier of each cell of the
/// seed-ordered grid, whose checks stay out of the timed seconds.
fn setup(seed: u64, check: bool, report: &mut Report) -> (f64, Option<Grid>) {
    let mut secs = 0.0;
    let by_label: BTreeMap<String, Option<Vec<String>>> = grid(None)
        .iter()
        .map(|c| (c.label(), reference(c, check, &mut secs, report)))
        .collect();
    if !check {
        return (secs, None);
    }
    let cells = grid(Some(seed));
    let references = cells.iter().map(|c| by_label[&c.label()].clone()).collect();
    (secs, Some((cells, references)))
}

struct Load {
    wall: f64,
    /// Cell completions and enumerated combinations, for the rates.
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

/// Whole grid passes on `nproc` (at most 2) threads until `seconds` have
/// passed, each thread starting its passes at a different cell. Using
/// every core keeps the figures from depending on which core a single
/// thread lands on. Every cell's frontier digest must repeat across
/// passes and threads, and on a thread's first pass its names must equal
/// the retain-all reference frontier.
fn load(
    cells: &[Cell],
    references: &[Option<Vec<String>>],
    seconds: f64,
    tracer: &mut Tracer,
    traced: bool,
    report: &mut Report,
) -> Load {
    let threads = service::client_threads();
    let epoch = tracer.epoch();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    type Done = (Report, Load, Tracer, BTreeMap<usize, String>);
    let results: Vec<Done> = thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    let scale = scale();
                    let mut local = Report::default();
                    let mut out = Load::new(start);
                    let mut tr = Tracer::new(epoch, traced);
                    let mut digests: BTreeMap<usize, String> = BTreeMap::new();
                    let mut pass = 0u64;
                    while pass == 0 || Instant::now() < deadline {
                        for k in 0..cells.len() {
                            let i = (k + t * cells.len() / threads) % cells.len();
                            let cell = &cells[i];
                            let lc = ((t as u64) << 48) | (pass << 16) | i as u64;
                            let (run, secs) = tr.time("corpus.run_cell", None, lc, || {
                                run_cell(&cell.scenario, cell.strategy, &scale)
                            });
                            local.op("plan_cell", Ok::<_, String>(()));
                            out.slices.unit(secs);
                            out.slices
                                .work(run.outcome.stats.enumerated as f64, run.secs);
                            match digests.get(&i) {
                                Some(first) => local.check(*first == run.digest, || {
                                    format!(
                                        "{}: frontier digest {} on pass {pass}, {first} on pass 0",
                                        cell.label(),
                                        run.digest
                                    )
                                }),
                                None => {
                                    let mut names: Vec<String> = run
                                        .outcome
                                        .skyline_names()
                                        .iter()
                                        .map(|n| n.to_string())
                                        .collect();
                                    names.sort();
                                    local.check(references[i].as_ref() == Some(&names), || {
                                        format!(
                                            "{}: frontier differs from the retain-all reference",
                                            cell.label()
                                        )
                                    });
                                    digests.insert(i, run.digest);
                                }
                            }
                        }
                        pass += 1;
                    }
                    (local, out, tr, digests)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("planning thread"))
            .collect()
    });
    let mut total = Load::new(start);
    total.wall = start.elapsed().as_secs_f64();
    let mut first_digests: Option<BTreeMap<usize, String>> = None;
    for (local, out, tr, digests) in results {
        report.merge(local);
        total.slices.merge(&out.slices);
        tracer.absorb(tr);
        match &first_digests {
            Some(first) => report.check(*first == digests, || {
                "frontier digests differ between planning threads".into()
            }),
            None => first_digests = Some(digests),
        }
    }
    total
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Report {
    let mut report = Report::default();
    let reps = if traced { 1 } else { SETUP_REPS };
    let mut setup_secs = Vec::new();
    let mut made = None;
    for rep in 0..reps {
        let (secs, checked) = setup(seed, rep == 0, &mut report);
        setup_secs.push(secs);
        made = made.or(checked);
    }
    let (cells, references) = made.expect("the first set-up checks");
    report.set("setup_s", median(&setup_secs));
    let mut tr = Tracer::new(Instant::now(), traced);
    if traced {
        let split = Split::run(seconds * 0.6, |secs, traced, _| {
            let l = load(&cells, &references, secs, &mut tr, traced, &mut report);
            (l.slices.units(), l.wall)
        });
        split.record(&mut report);
        let first = scenarios::names()[0];
        match SessionTemplate::from_scenario(first, scale().rows) {
            Ok(template) => {
                let request = PlanRequest {
                    budget: crate::service::BUDGET,
                    ..PlanRequest::default()
                };
                layers::probe(
                    &layers::Target::corpus(template, request),
                    &mut tr,
                    &mut report,
                );
            }
            Err(e) => report.check(false, || e),
        }
        layers::write_trace("corpus_plan", seed, &tr, &mut report);
    } else {
        let measured = load(&cells, &references, seconds, &mut tr, false, &mut report);
        let slices = &measured.slices;
        report.set("lifecycles_per_s", slices.unit_rate());
        report.set("lifecycle_p50_ms", slices.unit_quantile(0.5) * 1e3);
        report.set("lifecycle_p90_ms", slices.unit_quantile(0.9) * 1e3);
        report.set("explore_p50_ms", slices.busy_quantile(0.5) * 1e3);
        report.set("combos_per_s", slices.work_rate());
        report.notes.push(format!(
            "{} cells in whole passes of {} on each thread",
            slices.units(),
            cells.len()
        ));
    }
    report.set("peak_rss_mb", procfs::peak_rss_mb());
    report
}

/// The planner layer on one catalog-order grid pass: µs per enumerated
/// combination for each strategy, and the pruned / failed-application
/// shares of enumerated combinations.
pub fn planner_layers(tr: &mut Tracer, report: &mut Report) {
    let scale = scale();
    let mut per: BTreeMap<&str, (f64, usize)> = BTreeMap::new();
    let (mut enumerated, mut pruned, mut failed) = (0usize, 0usize, 0usize);
    for (i, cell) in grid(None).iter().enumerate() {
        let name = match cell.strategy {
            SearchStrategyKind::Exhaustive => "planner.exhaustive",
            SearchStrategyKind::Beam { .. } => "planner.beam",
            SearchStrategyKind::GreedyHillClimb => "planner.greedy",
        };
        let (run, _) = tr.time(name, None, i as u64, || {
            run_cell(&cell.scenario, cell.strategy, &scale)
        });
        report.op("plan_cell", Ok::<_, String>(()));
        let o = &run.outcome;
        let e = per.entry(name).or_default();
        e.0 += run.secs;
        e.1 += o.stats.enumerated;
        enumerated += o.stats.enumerated;
        pruned += o.bound_pruned;
        failed += o.failed_applications;
    }
    for (metric, span) in [
        ("planner.exhaustive_us_per_combo", "planner.exhaustive"),
        ("planner.beam_us_per_combo", "planner.beam"),
        ("planner.greedy_us_per_combo", "planner.greedy"),
    ] {
        let (secs, n) = per.get(span).copied().unwrap_or_default();
        report.set(metric, secs * 1e6 / n as f64);
    }
    report.set("planner.prune_rate", pruned as f64 / enumerated as f64);
    report.set(
        "planner.failed_apply_rate",
        failed as f64 / enumerated as f64,
    );
}
