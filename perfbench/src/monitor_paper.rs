//! `monitor-paper`: the paper's §V-A book (100 stock-universe items,
//! 4000 ticks, 400 portfolio PPQs + 100 arbitrage PQs, Dual-DAB μ = 5)
//! replayed through the deployable `Monitor` as a closed loop.
//!
//! Each tick every source reads its trace value and pushes when it
//! leaves its installed filter. Pushed refreshes and filter changes go
//! through one FIFO at the same instant — the zero-delay semantics of
//! the simulator — so the run's counts can be checked against
//! `pq_sim::run` with `DelayConfig::zero()`.

use std::collections::{BTreeMap, VecDeque};

use polyquery::obs::{now_ns, Obs};
use polyquery::sim::{run, DelayConfig, EvalMode, Scheduler, SimConfig};
use polyquery::workload::WorkloadGen;
use polyquery::{ItemId, Monitor, PolynomialQuery, QueryId, RateEstimator, TraceSet};

use crate::common::{
    fill, median, naive_replay, path_seed, peak_rss_mb, per_path_rate, quantile, shared_replay,
    solver_layers, sorted, Args, Book, Budget, Collector, Report, Spans, SpeedMarks, BOOK_SEED,
    FANOUT, MARK_EVERY_NS, MIN_ROUNDS,
};
use crate::sampler::timed;

const N_ITEMS: usize = 100;
const N_TICKS: usize = 4000;
/// Ticks of the untimed warm-up round that lets the allocator, page
/// tables and caches settle before the first timed round: a long-running
/// coordinator does not pay that start-up per refresh.
const WARMUP_TICKS: usize = 1000;
const N_PPQ: usize = 400;
const N_PQ: usize = 100;
const MU: f64 = 5.0;
/// Set-up takes about half a second; every round's set-up is a sample,
/// and this many more are taken apart from the rounds.
const EXTRA_SETUPS: usize = 3;

struct Inputs {
    traces: TraceSet,
    queries: Vec<PolynomialQuery>,
    init: Vec<f64>,
    rates: Vec<f64>,
    book: Book,
}

fn inputs(seed: u64, n_ticks: usize) -> Inputs {
    let traces = crate::common::universe(N_ITEMS, n_ticks, seed);
    let init = traces.initial_values();
    let mut gen = WorkloadGen::new(BOOK_SEED);
    let mut queries = gen.portfolio_queries(N_PPQ, &init);
    queries.extend(gen.arbitrage_queries(N_PQ, &init, false));
    let rates = RateEstimator::SampledAverage { interval_ticks: 60 }.estimate_all(&traces);
    let book = Book::new(&queries, N_ITEMS);
    Inputs {
        traces,
        queries,
        init,
        rates,
        book,
    }
}

struct Installed {
    monitor: Monitor,
    filters: Vec<f64>,
    setup_s: f64,
    install_s: f64,
}

/// Builds and installs a `Monitor` over the inputs: the set-up phase.
fn setup(inp: &Inputs, obs: Obs, spans: &mut Spans, parent: u32) -> Installed {
    let run = timed(|| {
        let mut monitor = Monitor::new().with_threads(FANOUT).with_obs(obs);
        for (i, (&value, &rate)) in inp.init.iter().zip(&inp.rates).enumerate() {
            let id = monitor.add_item(&format!("x{i}"), value, rate);
            assert_eq!(id.index(), i, "catalog ids follow registration order");
        }
        for q in &inp.queries {
            monitor.add_query(q.clone());
        }
        let t1 = now_ns();
        let shipped = monitor
            .install()
            .expect("install solves the generated book");
        (monitor, shipped, t1)
    });
    let (monitor, shipped, t1) = run.out;
    let (t0, t2) = (run.start_ns, run.end_ns);
    let id = spans.record("monitor.setup", parent, t0, t2);
    spans.record("monitor.install", id, t1, t2);
    let mut filters = vec![f64::INFINITY; N_ITEMS];
    for (item, b) in shipped {
        filters[item.index()] = b;
    }
    Installed {
        monitor,
        filters,
        setup_s: run.secs,
        install_s: run.marks.scale(t1, t2) / 1e9,
    }
}

/// A refresh delivered in a tick: item, value, and the queries
/// `Monitor` notified.
type Delivered = (usize, f64, Vec<(QueryId, f64)>);

enum Msg {
    Refresh(usize, f64),
    Filter(usize, f64),
}

struct Round {
    setup_s: f64,
    install_s: f64,
    /// Replay time at reference speed.
    replay_s: f64,
    /// Replay time as measured.
    raw_replay_s: f64,
    /// Per refresh: `on_refresh` time at reference speed.
    refresh_ns: Vec<f64>,
    /// The latency samples among them, in us.
    latency_us: Vec<f64>,
    recomputed: Vec<bool>,
    recomputations: u64,
    filter_changes: u64,
    /// Median host speed factor over the replay.
    speed: f64,
    /// The refresh stream, for the naive-evaluation replay.
    log: Vec<(usize, f64)>,
}

/// The benchmark's own record of what the coordinator should hold and
/// whom it should have notified, kept from the refresh stream alone.
struct Checker {
    coord: Vec<f64>,
    last_notified: Vec<f64>,
    monitor_values: Vec<f64>,
}

impl Checker {
    fn new(inp: &Inputs) -> Checker {
        Checker {
            coord: inp.init.clone(),
            last_notified: (0..inp.book.len())
                .map(|q| inp.book.eval(q, &inp.init))
                .collect(),
            monitor_values: inp.init.clone(),
        }
    }

    /// Checks one tick: `notify` fired exactly for the queries whose
    /// value moved more than the QAB since they were last notified, and
    /// Condition 1 holds between source and coordinator values.
    fn after_tick(
        &mut self,
        book: &Book,
        monitor: &Monitor,
        src: &[f64],
        refreshes: &[Delivered],
        tick: usize,
        report: &mut Report,
    ) {
        for (item, value, notify) in refreshes {
            self.coord[*item] = *value;
            for &q in &book.item_queries[*item] {
                let qv = book.eval(q, &self.coord);
                let moved = (qv - self.last_notified[q]).abs();
                let qab = book.qab[q];
                let fired = notify.iter().any(|(id, _)| id.index() == q);
                // Within 1e-9 of the QAB the two evaluation orders may
                // round to different sides of the threshold.
                report.check(
                    fired == (moved > qab) || (moved - qab).abs() <= 1e-9 * qab,
                    || {
                        format!(
                            "tick {tick}: query {q} moved {moved} (QAB {qab}) but notify={fired}"
                        )
                    },
                );
                if fired {
                    self.last_notified[q] = qv;
                }
            }
            report.check(
                notify
                    .iter()
                    .all(|(id, _)| book.item_queries[*item].contains(&id.index())),
                || format!("tick {tick}: refresh of item {item} notified a query not over it"),
            );
        }
        for (i, v) in self.monitor_values.iter_mut().enumerate() {
            *v = monitor.value(ItemId(i as u32)).expect("registered item");
        }
        report.check(self.monitor_values == self.coord, || {
            format!("tick {tick}: Monitor::value differs from the refreshes delivered")
        });
        for q in 0..book.len() {
            let gap = (book.eval(q, src) - book.eval(q, &self.monitor_values)).abs();
            let qab = book.qab[q];
            report.check(gap <= qab * (1.0 + 1e-9), || {
                format!("tick {tick}: Condition 1 broken for query {q}: |source - coordinator| = {gap} > QAB {qab}")
            });
        }
    }
}

/// One set-up plus closed-loop replay of the whole trace.
fn round(inp: &Inputs, obs: Obs, spans: &mut Spans, report: &mut Report) -> Round {
    let t_round = now_ns();
    let round_id = spans.record("monitor.round", 0, t_round, t_round);
    let Installed {
        mut monitor,
        mut filters,
        setup_s,
        install_s,
    } = setup(inp, obs, spans, round_id);
    let mut src = inp.init.clone();
    let mut last_pushed = inp.init.clone();
    let mut fifo: VecDeque<Msg> = VecDeque::new();
    let mut checker = Checker::new(inp);
    let mut tick_log: Vec<Delivered> = Vec::new();
    let mut r = Round {
        setup_s,
        install_s,
        replay_s: 0.0,
        raw_replay_s: 0.0,
        refresh_ns: Vec::new(),
        latency_us: Vec::new(),
        recomputed: Vec::new(),
        recomputations: 0,
        filter_changes: 0,
        speed: 1.0,
        log: Vec::new(),
    };
    let mut speed = SpeedMarks::default();
    speed.mark();
    // Wall-clock stretches, converted once the speed marks around them
    // exist: each tick's replay and each `on_refresh` call.
    let mut tick_spans: Vec<(u64, u64)> = Vec::new();
    let mut refresh_spans: Vec<(u64, u64)> = Vec::new();
    // The first refresh after a speed mark finds caches the calibration
    // kernel left cold; it counts in the totals but is no latency sample.
    let mut latency_sample: Vec<bool> = Vec::new();
    let mut after_mark = true;
    for tick in 1..inp.traces.n_ticks() {
        let t_tick = now_ns();
        for (i, trace) in inp.traces.traces().iter().enumerate() {
            let v = trace.at(tick);
            src[i] = v;
            if (v - last_pushed[i]).abs() > filters[i] {
                last_pushed[i] = v;
                fifo.push_back(Msg::Refresh(i, v));
            }
        }
        while let Some(msg) = fifo.pop_front() {
            match msg {
                Msg::Refresh(i, v) => {
                    let t0 = now_ns();
                    let out = monitor
                        .on_refresh(ItemId(i as u32), v)
                        .expect("refresh of a registered item");
                    let t1 = now_ns();
                    spans.record("monitor.on_refresh", round_id, t0, t1);
                    refresh_spans.push((t0, t1));
                    latency_sample.push(!after_mark);
                    after_mark = false;
                    r.recomputed.push(!out.recomputed.is_empty());
                    r.filter_changes += out.filter_changes.len() as u64;
                    fifo.extend(
                        out.filter_changes
                            .iter()
                            .map(|&(it, b)| Msg::Filter(it.index(), b)),
                    );
                    tick_log.push((i, v, out.notify));
                }
                Msg::Filter(i, b) => {
                    filters[i] = b;
                    if (src[i] - last_pushed[i]).abs() > b {
                        last_pushed[i] = src[i];
                        fifo.push_back(Msg::Refresh(i, src[i]));
                    }
                }
            }
        }
        tick_spans.push((t_tick, now_ns()));
        checker.after_tick(&inp.book, &monitor, &src, &tick_log, tick, report);
        r.log.extend(tick_log.drain(..).map(|(i, v, _)| (i, v)));
        if now_ns() - speed.marks.last().map_or(0, |m| m.0) >= MARK_EVERY_NS {
            speed.mark();
            after_mark = true;
        }
    }
    speed.mark();
    r.replay_s = tick_spans
        .iter()
        .map(|&(a, b)| speed.scale(a, b))
        .sum::<f64>()
        / 1e9;
    r.raw_replay_s = tick_spans.iter().map(|&(a, b)| (b - a) as f64).sum::<f64>() / 1e9;
    r.refresh_ns = refresh_spans
        .iter()
        .map(|&(a, b)| speed.scale(a, b))
        .collect();
    r.latency_us = r
        .refresh_ns
        .iter()
        .zip(&latency_sample)
        .filter(|(_, &sample)| sample)
        .map(|(&ns, _)| ns / 1e3)
        .collect();
    r.speed = speed.median_factor();
    r.recomputations = monitor
        .obs()
        .snapshot()
        .counters
        .get("dab.recompute")
        .copied()
        .unwrap_or(0);
    spans.close(round_id, now_ns());
    r
}

fn same_counts(a: &Round, b: &Round) -> bool {
    a.refresh_ns.len() == b.refresh_ns.len()
        && a.recomputations == b.recomputations
        && a.filter_changes == b.filter_changes
        && a.log == b.log
}

/// The paper's metric 4: refreshes + filter changes + μ · recomputations.
fn total_cost(r: &Round) -> f64 {
    r.refresh_ns.len() as f64 + r.filter_changes as f64 + MU * r.recomputations as f64
}

/// Checks round `r`, replayed over `inp`, against the zero-delay
/// simulator on the same book, which must count the same refreshes and
/// recomputations with no QAB violation; then replays the source moves
/// through the shared plan against the independent evaluation. Returns
/// the replay's ns per move and the simulator's DAB-change messages.
fn check_outputs(inp: &Inputs, r: &Round, report: &mut Report, spans: &mut Spans) -> (f64, u64) {
    let mut cfg = SimConfig::new(inp.traces.clone(), inp.queries.clone());
    cfg.delays = DelayConfig::zero();
    cfg.eval = EvalMode::Shared {
        rebase_every: EvalMode::DEFAULT_REBASE_EVERY,
    };
    cfg.scheduler = Scheduler::Wheel;
    cfg.threads = FANOUT;
    let t0 = now_ns();
    let sim = run(&cfg).expect("zero-delay simulation of the book");
    spans.record("check.zero_delay_sim", 0, t0, now_ns());
    report.check(sim.refreshes == r.refresh_ns.len() as u64, || {
        format!(
            "Monitor replay applied {} refreshes, zero-delay simulator {}",
            r.refresh_ns.len(),
            sim.refreshes
        )
    });
    report.check(sim.recomputations == r.recomputations, || {
        format!(
            "Monitor replay recomputed {} times, zero-delay simulator {}",
            r.recomputations, sim.recomputations
        )
    });
    report.check(sim.per_query_violations.iter().all(|&v| v == 0), || {
        "zero-delay simulator reported QAB violations".into()
    });
    let t0 = now_ns();
    let ns_per_move = shared_replay(&inp.queries, &inp.traces, &inp.book, report);
    spans.record("eval.shared_replay", 0, t0, now_ns());
    (ns_per_move, sim.dab_change_messages)
}

pub fn run_workload(args: &Args) -> Report {
    let mut budget = Budget::new(args.seconds);
    let paths: Vec<Inputs> = (0..MIN_ROUNDS)
        .map(|p| inputs(path_seed(args.seed, p), N_TICKS))
        .collect();
    let inp = &paths[0];
    let mut report = Report::default();
    let warmup = inputs(path_seed(args.seed, 0), WARMUP_TICKS);
    round(&warmup, Obs::null(), &mut Spans::new(false), &mut report);
    let mut spans = Spans::new(args.trace);
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let (rounds, sim_filter_changes) = if args.trace {
        let base = round(inp, Obs::null(), &mut Spans::new(false), &mut report);
        let collector = Collector::new(false, true);
        let obs = Obs::with_subscriber(collector.clone());
        let traced = round(inp, obs.clone(), &mut spans, &mut report);
        let snap = obs.snapshot();
        let events = collector.take();
        let plain: Vec<f64> = traced
            .refresh_ns
            .iter()
            .zip(&traced.recomputed)
            .filter(|(_, &rc)| !rc)
            .map(|(&ns, _)| ns / 1e3)
            .collect();
        let recompute: Vec<f64> = traced
            .refresh_ns
            .iter()
            .zip(&traced.recomputed)
            .filter(|(_, &rc)| rc)
            .map(|(&ns, _)| ns / 1e3)
            .collect();
        m.insert("monitor.install_s", traced.install_s);
        m.insert(
            "monitor.on_refresh_busy_s",
            traced.refresh_ns.iter().sum::<f64>() / 1e9,
        );
        m.insert(
            "monitor.refresh_plain_p50_us",
            quantile(&sorted(&plain), 0.5),
        );
        m.insert(
            "monitor.refresh_recompute_p50_us",
            quantile(&sorted(&recompute), 0.5),
        );
        m.insert(
            "monitor.recompute_refresh_share",
            recompute.len() as f64 / traced.refresh_ns.len().max(1) as f64,
        );
        m.insert("monitor.filter_changes", traced.filter_changes as f64);
        m.insert("core.recomputations", traced.recomputations as f64);
        solver_layers(&mut m, &snap, &events);
        let t1 = now_ns();
        m.insert(
            "eval.naive_ns_per_refresh",
            naive_replay(
                &inp.queries,
                &inp.book,
                &inp.init,
                traced.log.iter().copied(),
            ),
        );
        spans.record("eval.naive_replay", 0, t1, now_ns());
        m.insert("obs.trace_overhead_ratio", traced.replay_s / base.replay_s);
        report.check(same_counts(&base, &traced), || {
            "traced round counts differ from the untraced round".into()
        });
        let (ns_per_move, sim_filter_changes) = check_outputs(inp, &base, &mut report, &mut spans);
        m.insert("eval.replay_ns_per_move", ns_per_move);
        (vec![base, traced], sim_filter_changes)
    } else {
        let mut setups: Vec<f64> = (0..EXTRA_SETUPS)
            .map(|_| setup(inp, Obs::null(), &mut spans, 0).setup_s)
            .collect();
        let mut rounds = vec![budget.round(|| round(inp, Obs::null(), &mut spans, &mut report))];
        // Peak memory after the first round: later rounds only reuse it,
        // so more rounds would otherwise read as more memory, and the
        // check simulation's would read as the Monitor's.
        m.insert("peak_rss_mb", peak_rss_mb());
        let (_, sim_filter_changes) = check_outputs(inp, &rounds[0], &mut report, &mut spans);
        budget.fill(&mut rounds, |k| {
            round(&paths[k % MIN_ROUNDS], Obs::null(), &mut spans, &mut report)
        });
        setups.extend(rounds.iter().map(|r| r.setup_s));
        let refresh_us: Vec<f64> = sorted(
            &rounds
                .iter()
                .flat_map(|r| r.latency_us.iter().copied())
                .collect::<Vec<_>>(),
        );
        m.insert("setup_s", median(&setups));
        let replays: Vec<(u64, f64)> = rounds
            .iter()
            .map(|r| (r.refresh_ns.len() as u64, r.replay_s))
            .collect();
        m.insert("refresh_per_s", per_path_rate(&replays));
        m.insert("refresh_p50_us", quantile(&refresh_us, 0.5));
        m.insert("refresh_p99_us", quantile(&refresh_us, 0.99));
        // Over the paths every run has, so the figure is fixed by the seed.
        m.insert(
            "total_cost_msgs",
            rounds[..MIN_ROUNDS].iter().map(total_cost).sum::<f64>() / MIN_ROUNDS as f64,
        );
        (rounds, sim_filter_changes)
    };
    report.attempted = rounds.iter().map(|r| r.refresh_ns.len() as u64).sum();
    report.notes.push(format!(
        "host speed factor per round: {:?}; refreshes/s per round: {:?}, per wall s {:?}; filter changes: Monitor {}, zero-delay simulator {}; {:.1} s of {} s used",
        rounds
            .iter()
            .map(|r| (r.speed * 1000.0).round() / 1000.0)
            .collect::<Vec<_>>(),
        rounds
            .iter()
            .map(|r| (r.refresh_ns.len() as f64 / r.replay_s).round())
            .collect::<Vec<_>>(),
        rounds
            .iter()
            .map(|r| (r.refresh_ns.len() as f64 / r.raw_replay_s).round())
            .collect::<Vec<_>>(),
        rounds[0].filter_changes,
        sim_filter_changes,
        budget.elapsed_s(),
        args.seconds
    ));
    fill(&mut report, &m, args.trace);
    if args.trace {
        spans.print_summary();
        if let Some(path) = &args.trace_out {
            spans.write(path).expect("write the span trace");
        }
    }
    report
}
