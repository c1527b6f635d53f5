//! `sim-book` and `sim-aao`: whole `pq_sim::run` simulations.
//!
//! * `sim-book`: a 1000-query overlapping book on 250 items (a pool of
//!   about 1000 distinct pairs), shared evaluation, wheel scheduler,
//!   PlanetLab-like delays, 4000 ticks, Dual-DAB μ = 100 so recomputes
//!   are rare (about 110 a path): after set-up, the shared scatter,
//!   checks, fidelity sampling and the scheduler carry the run.
//! * `sim-aao`: AAO-T (period 90 ticks, μ = 5) over 25 paper PPQs on 100
//!   items, 4000 ticks: nearly all time is cold joint GP solves on the
//!   sparse KKT path.
//!
//! Timed runs are plain `pq_sim::run` calls, with no subscriber, scaled
//! to reference speed by marks taken on their CPU (see `sampler`). Set-up
//! is timed as a run of the same configuration cut to its set-up (see
//! [`setup_config`]). The simulator has no per-refresh call, so refresh
//! latencies come from a separate latency run whose subscriber takes
//! only the `sim.refresh` events: the time between two refreshes handled
//! in the same tick is the coordinator's time for the first one.

use std::collections::BTreeMap;

use polyquery::obs::{now_ns, EventKind, Obs, Snapshot};
use polyquery::sim::{
    run, run_observed, DelayConfig, EvalMode, Scheduler, SimConfig, SimMetrics, SimStrategy,
};
use polyquery::workload::{WorkloadConfig, WorkloadGen};
use polyquery::{AssignmentStrategy, PqHeuristic, Trace, TraceSet};

use crate::common::{
    fill, median, naive_replay, path_seed, peak_rss_mb, per_path_rate, quantile, shared_replay,
    solver_layers, sorted, Args, Book, Budget, Collected, Collector, Report, Spans, BOOK_SEED,
    FANOUT, MIN_ROUNDS,
};
use crate::sampler::{timed, timed_around, Timed};

#[derive(Clone, Copy, PartialEq)]
pub enum Kind {
    Book,
    Aao,
}

const N_TICKS: usize = 4000;
/// Set-up is sampled until there are at least this many samples and at
/// least [`SETUP_TOTAL_S`] seconds of them: one joint solve (~50 ms) on
/// `sim-aao`, 1000 cold solves (~0.8 s) on `sim-book`.
const MIN_SETUPS: usize = 2;
const SETUP_TOTAL_S: f64 = 1.0;
/// Latency samples a run pools at least, so that p99 has 150 beyond it:
/// one cycle of latency runs gives about 150 000 on `sim-book`, 11 000
/// on `sim-aao`.
const MIN_LATENCY_SAMPLES: usize = 15_000;
/// Refreshes after a speed mark that find the caches the calibration
/// kernel left cold.
const COLD_REFRESHES: usize = 8;

fn config(kind: Kind, seed: u64, n_ticks: usize) -> SimConfig {
    let n_items = match kind {
        Kind::Book => 250,
        Kind::Aao => 100,
    };
    let traces = crate::common::universe(n_items, n_ticks, seed);
    let init = traces.initial_values();
    let mut gen = WorkloadGen::with_config(
        WorkloadConfig {
            n_items,
            ..WorkloadConfig::default()
        },
        BOOK_SEED,
    );
    let (queries, strategy, mu) = match kind {
        Kind::Book => {
            // Legs are 6..=7 (mean 6.5): an overlap leaving 1000 distinct
            // pairs for 1000 queries.
            let (n, pool) = (1000, 1000.0);
            let overlap = 1.0 - pool / (n as f64 * 6.5);
            let mu = 100.0;
            let strategy = SimStrategy::PerQuery {
                strategy: AssignmentStrategy::DualDab { mu },
                heuristic: PqHeuristic::DifferentSum,
            };
            (gen.overlapping_book(n, overlap, &init), strategy, mu)
        }
        Kind::Aao => {
            let mu = 5.0;
            let strategy = SimStrategy::AaoPeriodic {
                period_ticks: 90,
                mu,
            };
            (gen.portfolio_queries(25, &init), strategy, mu)
        }
    };
    let mut cfg = SimConfig::new(traces, queries);
    cfg.strategy = strategy;
    cfg.mu_cost = mu;
    cfg.delays = DelayConfig::planetlab_like();
    cfg.scheduler = Scheduler::Wheel;
    cfg.eval = EvalMode::Shared {
        rebase_every: EvalMode::DEFAULT_REBASE_EVERY,
    };
    cfg.gp = match kind {
        // The solver options the repository's experiment harnesses use
        // for simulation-embedded solves.
        Kind::Book => polyquery::gp::SolverOptions {
            tolerance: 1e-5,
            t0: 10.0,
            mu: 30.0,
            ..polyquery::gp::SolverOptions::default()
        },
        // Under the harness options some periodic joint solves of this
        // book stop at `Gp(IterationLimit)` (2 of 12 seeds); the default
        // options solve every one (see README.md).
        Kind::Aao => polyquery::gp::SolverOptions::default(),
    };
    cfg.threads = FANOUT;
    cfg.seed = seed;
    cfg
}

/// `cfg` cut to its set-up: every trace becomes the two ticks
/// `[x0, x0 + r]`, where `r` is the rate the configured estimator reads
/// from the full trace. The estimator reads a trace shorter than its
/// sampling interval from its endpoints, so `pq_sim::run` of the cut
/// configuration installs the same book at the same values and rates as
/// `cfg`, then replays a single tick.
fn setup_config(cfg: &SimConfig) -> SimConfig {
    let rates = cfg.rate_estimator.estimate_all(&cfg.traces);
    let traces = cfg
        .traces
        .traces()
        .iter()
        .zip(&rates)
        .map(|(t, &r)| Trace::from_values(vec![t.initial(), t.initial() + r]))
        .collect();
    let mut cut = cfg.clone();
    cut.traces = TraceSet::new(traces);
    cut
}

/// `pq_sim::run` with no subscriber.
fn plain_run(cfg: &SimConfig) -> Timed<SimMetrics> {
    timed(|| run(cfg).expect("simulation of the generated workload"))
}

struct Observed {
    metrics: SimMetrics,
    snapshot: Snapshot,
    events: Collected,
}

/// A run whose subscriber collects the `sim.refresh` events. The traced
/// run (`gp_events`) also collects the solver's events, and takes no
/// speed marks during the run.
fn observed_run(cfg: &SimConfig, gp_events: bool) -> Timed<Observed> {
    let collector = Collector::new(true, gp_events);
    let obs = Obs::with_subscriber(collector.clone());
    let time = if gp_events { timed_around } else { timed };
    time(|| {
        let metrics = run_observed(cfg, &obs).expect("simulation of the generated workload");
        Observed {
            metrics,
            snapshot: obs.snapshot(),
            events: collector.take(),
        }
    })
}

/// What observing one refresh costs a latency run: the `sim.refresh`
/// event the engine builds for an enabled subscriber, built and
/// delivered to a fresh collector 100 000 times in a row. Returns ns per
/// event at reference speed.
fn emission_ns() -> f64 {
    const N: usize = 100_000;
    let collector = Collector::new(true, false);
    let obs = Obs::with_subscriber(collector.clone());
    let run = timed(|| {
        for k in 0..N {
            obs.emit_with("sim.refresh", EventKind::Count, |e| {
                e.with("item", k % 250)
                    .with("value", k as f64)
                    .with("t", k as f64 / 7.0)
            });
        }
    });
    std::hint::black_box(collector.take());
    run.secs * 1e9 / N as f64
}

/// Simulated time to the tick whose delivery loop handles it.
fn tick_of(t: f64) -> i64 {
    (t - 1e-9).ceil() as i64
}

/// Per refresh handled before another in the same tick: the time to the
/// next one less `emit_ns`, the cost of observing a refresh, in us at
/// reference speed. The gap a speed mark falls in and the gaps of the
/// [`COLD_REFRESHES`] refreshes after it are no samples.
fn refresh_gaps_us(run: &Timed<Observed>, emit_ns: f64) -> Vec<f64> {
    let mut marks = run.marks.starts().peekable();
    let mut cold = 0;
    let mut gaps = Vec::new();
    for w in run.out.events.refreshes.windows(2) {
        while marks.next_if(|&start| start < w[1].0).is_some() {
            cold = COLD_REFRESHES + 1;
        }
        if cold > 0 {
            cold -= 1;
        } else if tick_of(w[0].1) == tick_of(w[1].1) {
            gaps.push((run.marks.scale(w[0].0, w[1].0) - emit_ns).max(0.0) / 1e3);
        }
    }
    gaps
}

/// Metrics with the wall-clock solver time cleared, for comparisons.
fn counts(m: &SimMetrics) -> SimMetrics {
    SimMetrics {
        solver_seconds: 0.0,
        ..m.clone()
    }
}

/// The paper's metric 4: refreshes + DAB-change messages + μ ·
/// recomputations.
fn total_cost(m: &SimMetrics, mu: f64) -> f64 {
    m.refreshes as f64 + m.dab_change_messages as f64 + mu * m.recomputations as f64
}

/// Checks `shared`, the metrics of `cfg`'s run, against the program's
/// other paths: naive evaluation must reproduce them exactly, and with
/// zero delays Condition 1 allows no violation at all. Then replays
/// `cfg`'s source moves through the shared plan against the independent
/// evaluation. Returns the replay's ns per move.
fn check_outputs(
    cfg: &SimConfig,
    shared: &SimMetrics,
    report: &mut Report,
    spans: &mut Spans,
) -> f64 {
    let mut naive = cfg.clone();
    naive.eval = EvalMode::Naive;
    let mut zero = cfg.clone();
    zero.delays = DelayConfig::zero();
    // Nothing is timed here, so the two check runs share two threads
    // where the host has them.
    let t0 = now_ns();
    let run_naive = || run(&naive).expect("naive-evaluation simulation");
    let run_zero = || run(&zero).expect("zero-delay simulation");
    let (naive_metrics, zero_metrics) =
        if std::thread::available_parallelism().map_or(1, |n| n.get()) >= 2 {
            std::thread::scope(|s| {
                let naive = s.spawn(run_naive);
                let zero = run_zero();
                (naive.join().expect("naive-evaluation thread"), zero)
            })
        } else {
            (run_naive(), run_zero())
        };
    spans.record("check.naive_and_zero_delay_sims", 0, t0, now_ns());
    report.check(counts(&naive_metrics) == counts(shared), || {
        "EvalMode::Naive and EvalMode::Shared runs differ".into()
    });
    report.check(
        zero_metrics.per_query_violations.iter().all(|&v| v == 0),
        || {
            format!(
                "zero-delay run: {} QAB violations",
                zero_metrics.per_query_violations.iter().sum::<u64>()
            )
        },
    );
    let book = Book::new(&cfg.queries, cfg.traces.n_items());
    let t0 = now_ns();
    let ns_per_move = shared_replay(&cfg.queries, &cfg.traces, &book, report);
    spans.record("eval.shared_replay", 0, t0, now_ns());
    ns_per_move
}

fn round3(x: f64) -> f64 {
    (x * 1000.0).round() / 1000.0
}

pub fn run_workload(args: &Args, kind: Kind) -> Report {
    let mut budget = Budget::new(args.seconds);
    let paths: Vec<SimConfig> = (0..MIN_ROUNDS)
        .map(|p| config(kind, path_seed(args.seed, p), N_TICKS))
        .collect();
    let cfg = &paths[0];
    let setup_cfg = setup_config(cfg);
    let mut report = Report::default();
    let mut spans = Spans::new(args.trace);
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let (full, cut) = (
        cfg.rate_estimator.estimate_all(&cfg.traces),
        setup_cfg.rate_estimator.estimate_all(&setup_cfg.traces),
    );
    report.check(
        full.iter()
            .zip(&cut)
            .all(|(a, b)| (a - b).abs() <= 1e-9 * a.abs()),
        || "the set-up configuration does not keep the full traces' rates".into(),
    );
    // An untimed set-up lets the allocator, page tables and caches settle.
    run(&setup_cfg).expect("set-up of the generated workload");

    if args.trace {
        let base = timed_around(|| run(cfg).expect("simulation of the generated workload"));
        let traced = observed_run(cfg, true);
        let (tm, snap, events) = (
            &traced.out.metrics,
            &traced.out.snapshot,
            &traced.out.events,
        );
        let (t0, t1) = (traced.start_ns, traced.end_ns);
        let id = spans.record("sim.run", 0, t0, t1);
        let first = events.refreshes.first().map_or(t1, |r| r.0);
        spans.record("sim.run.setup", id, t0, first);
        let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0) as f64;
        m.insert("core.recomputations", tm.recomputations as f64);
        solver_layers(&mut m, snap, events);
        m.insert("eval.shared_terms", counter("eval.shared_terms"));
        m.insert("eval.scatter_fanout", counter("eval.scatter_fanout"));
        m.insert("eval.full", counter("eval.full"));
        m.insert("sim.solver_s", tm.solver_seconds);
        // Both raw wall time: the solver timer is the program's own.
        m.insert("sim.non_solver_s", traced.raw_secs - tm.solver_seconds);
        m.insert("sched.push", counter("sched.push"));
        m.insert("sched.pop", counter("sched.pop"));
        m.insert("sched.cascade", counter("sched.cascade"));
        m.insert("ingest.batches", tm.ingest_batches as f64);
        m.insert("sim.refreshes", tm.refreshes as f64);
        m.insert("sim.dab_change_messages", tm.dab_change_messages as f64);
        m.insert("sim.loss_pct", tm.loss_in_fidelity_percent());
        // Two runs back to back, each marked only before and after: raw
        // wall time.
        m.insert("obs.trace_overhead_ratio", traced.raw_secs / base.raw_secs);
        report.check(counts(tm) == counts(&base.out), || {
            "the traced run's metrics differ from the untraced run's".into()
        });
        report.check(events.refreshes.len() as u64 == tm.refreshes, || {
            "sim.refresh events do not match the refresh count".into()
        });
        let book = Book::new(&cfg.queries, cfg.traces.n_items());
        let refreshes = events
            .refreshes
            .iter()
            .map(|&(_, _, item, v)| (item as usize, v));
        let t0 = now_ns();
        let naive = naive_replay(&cfg.queries, &book, &cfg.traces.initial_values(), refreshes);
        spans.record("eval.naive_replay", 0, t0, now_ns());
        m.insert("eval.naive_ns_per_refresh", naive);
        let ns_per_move = check_outputs(cfg, &base.out, &mut report, &mut spans);
        m.insert("eval.replay_ns_per_move", ns_per_move);
        report.attempted = base.out.refreshes;
        report.notes.push(format!(
            "host speed factor: untraced run {}, traced run {}",
            round3(base.factor),
            round3(traced.factor)
        ));
    } else {
        let mut setups = Vec::new();
        while setups.len() < MIN_SETUPS || setups.iter().sum::<f64>() < SETUP_TOTAL_S {
            setups.push(plain_run(&setup_cfg).secs);
        }
        let setup_s = median(&setups);
        let mut phases = vec![("set-up samples", budget.elapsed_s())];
        let mut rounds = vec![budget.round(|| plain_run(cfg))];
        phases.push(("first run", budget.elapsed_s()));
        // Peak memory after the first timed run: later runs only reuse
        // it, and the latency run's event buffer and the two concurrent
        // check runs would otherwise read as the program's memory.
        m.insert("peak_rss_mb", peak_rss_mb());
        for path in &paths[1..] {
            rounds.push(budget.round(|| plain_run(path)));
        }
        // Latency runs in whole cycles over the paths, pooled.
        let emit_ns = emission_ns();
        let mut gaps = Vec::new();
        let mut latency_factors = Vec::new();
        let mut k = 0;
        while k % MIN_ROUNDS != 0 || gaps.len() < MIN_LATENCY_SAMPLES {
            let latency = observed_run(&paths[k % MIN_ROUNDS], false);
            report.check(
                latency.out.events.refreshes.len() as u64 == latency.out.metrics.refreshes,
                || "sim.refresh events do not match the refresh count".into(),
            );
            report.check(
                counts(&latency.out.metrics) == counts(&rounds[k % MIN_ROUNDS].out),
                || "a latency run's metrics differ from the timed run's".into(),
            );
            gaps.extend(refresh_gaps_us(&latency, emit_ns));
            latency_factors.push(round3(latency.factor));
            k += 1;
        }
        let gaps = sorted(&gaps);
        phases.push(("latency runs", budget.elapsed_s()));
        check_outputs(cfg, &rounds[0].out, &mut report, &mut spans);
        phases.push(("checks", budget.elapsed_s()));
        budget.fill(&mut rounds, |k| plain_run(&paths[k % MIN_ROUNDS]));
        m.insert("setup_s", setup_s);
        // Each run's replay: its wall time less the set-up.
        let replays: Vec<(u64, f64)> = rounds
            .iter()
            .map(|r| (r.out.refreshes, r.secs - setup_s))
            .collect();
        m.insert("refresh_per_s", per_path_rate(&replays));
        m.insert("refresh_p50_us", quantile(&gaps, 0.5));
        m.insert("refresh_p99_us", quantile(&gaps, 0.99));
        // Over the paths every run has, so the figure is fixed by the seed.
        let cost: f64 = rounds[..MIN_ROUNDS]
            .iter()
            .map(|r| total_cost(&r.out, cfg.mu_cost))
            .sum();
        m.insert("total_cost_msgs", cost / MIN_ROUNDS as f64);
        report.attempted = replays.iter().map(|r| r.0).sum();
        report.notes.push(format!(
            "set-up samples (s): {:?}; latency run speed factors {:?}; one sim.refresh emission {:.0} ns, taken off each latency",
            setups.iter().map(|&s| round3(s)).collect::<Vec<_>>(),
            latency_factors,
            emit_ns
        ));
        report.notes.push(format!(
            "phases, ended at (s): {}",
            phases
                .iter()
                .map(|(name, t)| format!("{name} {t:.1}"))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        report.notes.push(format!(
            "per timed run: speed factor {:?}, solver s {:?}, refreshes/s {:?}, refreshes per wall s {:?}; {:.1} s of {} s used",
            rounds.iter().map(|r| round3(r.factor)).collect::<Vec<_>>(),
            rounds
                .iter()
                .map(|r| round3(r.out.solver_seconds))
                .collect::<Vec<_>>(),
            rounds
                .iter()
                .map(|r| (r.out.refreshes as f64 / (r.secs - setup_s)).round())
                .collect::<Vec<_>>(),
            rounds
                .iter()
                .map(|r| (r.out.refreshes as f64 / r.raw_secs).round())
                .collect::<Vec<_>>(),
            budget.elapsed_s(),
            args.seconds
        ));
    }
    fill(&mut report, &m, args.trace);
    if args.trace {
        spans.print_summary();
        if let Some(path) = &args.trace_out {
            spans.write(path).expect("write the span trace");
        }
    }
    report
}
