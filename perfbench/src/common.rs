//! Pieces shared by the workloads: arguments, the report, statistics,
//! an independent evaluator for query books, the event collector and
//! the benchmark's own span recorder.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use polyquery::obs::{Event, Subscriber, Value};
use polyquery::PolynomialQuery;

/// Recompute fan-out handed to `Monitor::with_threads` and
/// `SimConfig::threads`. Serial: results are identical for any fan-out,
/// and on a small shared host a second solver thread measures the
/// neighbours' load more than the coordinator.
pub const FANOUT: usize = 1;

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub trace_out: Option<PathBuf>,
}

impl Args {
    pub fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: DEFAULT_SEED,
            seconds: 10.0,
            trace: false,
            trace_out: None,
        };
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" => args.workload = value,
                "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
                "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(&"expected 0 or 1")),
                    }
                }
                "--trace-out" => args.trace_out = Some(PathBuf::from(value)),
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        if args.workload.is_empty() {
            return Err("--workload is required".into());
        }
        if !(args.seconds.is_finite() && args.seconds > 0.0) {
            return Err(format!("--seconds {} must be positive", args.seconds));
        }
        Ok(args)
    }
}

/// The seed used when `--seed` is not given; 7 is the held-out seed.
/// The seed draws the market path (the GBM shocks of every trace).
pub const DEFAULT_SEED: u64 = 2008;

/// Market path `k` of a run with `seed`. A run's rounds cycle through
/// paths `0..MIN_ROUNDS`, so its timings average over several paths in
/// the same proportion however many rounds fit, and the counts and
/// checks, taken on those paths, are fixed by the seed.
pub fn path_seed(seed: u64, k: usize) -> u64 {
    // Mixed, so neighbouring seeds and rounds get unrelated paths.
    splitmix64(
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(k as u64 + 1)
            .wrapping_mul(0xD6E8_FEB8_6659_FD93),
    )
}

/// The SplitMix64 output function.
fn splitmix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Market paths per run, and the fewest timed rounds a run makes, however
/// slow the host: one round on each path. With one path a run's rate
/// is that path's, and single paths differ by ±15 %.
pub const MIN_ROUNDS: usize = 2;

/// Refreshes per second over rounds `(refreshes, replay seconds)`, round
/// `k` on path `k % MIN_ROUNDS`: per path, its refreshes over its replay
/// time, then the mean over the paths.
pub fn per_path_rate(rounds: &[(u64, f64)]) -> f64 {
    (0..MIN_ROUNDS)
        .map(|p| {
            let on_path = rounds.iter().skip(p).step_by(MIN_ROUNDS);
            let (n, secs) = on_path.fold((0, 0.0), |(n, s), &(rn, rs)| (n + rn, s + rs));
            n as f64 / secs
        })
        .sum::<f64>()
        / MIN_ROUNDS as f64
}

/// A run's time budget: `--seconds` from the start of the workload. The
/// warm-up, the set-up samples and the output checks count against it,
/// and timed rounds fill what they leave.
pub struct Budget {
    start: u64,
    budget: u64,
    longest: u64,
}

impl Budget {
    pub fn new(seconds: f64) -> Budget {
        Budget {
            start: polyquery::obs::now_ns(),
            budget: (seconds * 1e9) as u64,
            longest: 0,
        }
    }

    /// Runs one timed round, remembering the longest.
    pub fn round<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t0 = polyquery::obs::now_ns();
        let out = f();
        self.longest = self.longest.max(polyquery::obs::now_ns() - t0);
        out
    }

    /// Appends `round(k)` for `k = rounds.len(), ...` while there are
    /// fewer than [`MIN_ROUNDS`], or one more round, as long as the
    /// longest so far, still ends within the budget.
    pub fn fill<T>(&mut self, rounds: &mut Vec<T>, mut round: impl FnMut(usize) -> T) {
        while rounds.len() < MIN_ROUNDS
            || polyquery::obs::now_ns() - self.start + self.longest <= self.budget
        {
            let k = rounds.len();
            let r = self.round(|| round(k));
            rounds.push(r);
        }
    }

    /// Seconds since the start of the workload.
    pub fn elapsed_s(&self) -> f64 {
        (polyquery::obs::now_ns() - self.start) as f64 / 1e9
    }
}

/// Seed of the query books and of the market make-up, fixed so that
/// runs on different seeds do the same kind and amount of work.
pub const BOOK_SEED: u64 = 0x1CDE_2008;

/// One workload's result.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Output-check failures; any entry makes the run incorrect.
    pub failures: Vec<String>,
    /// Lines printed with the metrics.
    pub notes: Vec<String>,
    pub end_to_end: Vec<(&'static str, f64, &'static str)>,
    pub per_layer: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    pub fn fail(&mut self, msg: String) {
        if self.failures.len() < 20 {
            eprintln!("check failed: {msg}");
        }
        self.failures.push(msg);
    }

    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        if !ok {
            self.fail(msg());
        }
    }

    /// Prints the metrics as a table, then the one-line JSON result.
    pub fn print(&self, args: &Args) {
        let shown = if args.trace {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        println!(
            "== {} seed={} trace={} ==",
            args.workload, args.seed, args.trace as u8
        );
        for (name, value, unit) in shown {
            println!("  {name:<34} {value:>16.6} {unit}");
        }
        for note in &self.notes {
            println!("  {note}");
        }
        println!(
            "  checks: {} failed; operations: {} attempted, {} failed",
            self.failures.len(),
            self.attempted,
            self.failed
        );
        let metrics: Vec<String> = shown
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_num(*value)
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failures.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// The market of `TraceSet::stock_universe` (GBM traces, initial prices
/// $10–$200, per-tick volatility 0.02 %–0.2 %) with its make-up held
/// fixed: prices, volatilities and drifts are drawn from one fixed
/// stream and only the GBM shocks from `seed`. Which items are volatile
/// decides most of a run's cost, so with it fixed every seed is a fresh
/// path through the same market and runs on different seeds measure
/// comparable work.
pub fn universe(n_items: usize, n_ticks: usize, seed: u64) -> polyquery::TraceSet {
    let mut state = BOOK_SEED;
    let mut uniform = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
    };
    let traces = (0..n_items)
        .map(|i| {
            let initial = 10.0 + 190.0 * uniform();
            let sigma = 0.0002 + 0.0018 * uniform();
            let mu = (uniform() - 0.5) * 2e-5;
            let shocks = seed ^ (i as u64).wrapping_mul(0x9E37_79B9);
            polyquery::Trace::gbm(initial, mu, sigma, n_ticks, shocks)
        })
        .collect();
    polyquery::TraceSet::new(traces)
}

/// Linear-interpolation quantile of an ascending slice (0 when empty).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5)
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A query book in plain arrays, evaluated term by term without any of
/// the program's evaluators: the reference the output checks compare
/// against.
/// `(coefficient, [(item, exponent)])`.
type Term = (f64, Vec<(usize, u32)>);

pub struct Book {
    /// Per query: its terms.
    terms: Vec<Vec<Term>>,
    pub qab: Vec<f64>,
    /// Item -> queries referencing it.
    pub item_queries: Vec<Vec<usize>>,
}

impl Book {
    pub fn new(queries: &[PolynomialQuery], n_items: usize) -> Book {
        let terms: Vec<Vec<Term>> = queries
            .iter()
            .map(|q| {
                q.poly()
                    .terms()
                    .iter()
                    .map(|t| {
                        (
                            t.coef(),
                            t.vars().iter().map(|&(i, e)| (i.index(), e)).collect(),
                        )
                    })
                    .collect()
            })
            .collect();
        let mut item_queries = vec![Vec::new(); n_items];
        for (qi, q) in terms.iter().enumerate() {
            let mut items: Vec<usize> = q
                .iter()
                .flat_map(|(_, v)| v.iter().map(|&(i, _)| i))
                .collect();
            items.sort_unstable();
            items.dedup();
            for i in items {
                item_queries[i].push(qi);
            }
        }
        Book {
            terms,
            qab: queries.iter().map(|q| q.qab()).collect(),
            item_queries,
        }
    }

    pub fn len(&self) -> usize {
        self.terms.len()
    }

    fn monomial(vars: &[(usize, u32)], values: &[f64]) -> f64 {
        vars.iter()
            .map(|&(i, e)| values[i].powi(e as i32))
            .product()
    }

    /// `Σ c·Π x^e` for query `q`.
    pub fn eval(&self, q: usize, values: &[f64]) -> f64 {
        self.terms[q]
            .iter()
            .map(|(c, vars)| c * Self::monomial(vars, values))
            .sum()
    }

    /// `Σ |c·Π x^e|`: the scale relative errors are measured against, so
    /// queries whose signed value nears zero are not held to 1e-9 of 0.
    pub fn magnitude(&self, q: usize, values: &[f64]) -> f64 {
        self.terms[q]
            .iter()
            .map(|(c, vars)| (c * Self::monomial(vars, values)).abs())
            .sum()
    }
}

/// Events the benchmark reads from the program's telemetry. Only the
/// targets asked for are enabled, so the program builds no other event.
#[derive(Default)]
pub struct Collected {
    /// `sim.refresh`: (timestamp ns, simulated time, item, value).
    pub refreshes: Vec<(u64, f64, u32, f64)>,
    /// `gp.solve_ns` span durations.
    pub gp_solve_ns: Vec<u64>,
    pub gp_newton: u64,
    pub gp_outer: u64,
}

pub struct Collector {
    refresh: bool,
    gp: bool,
    pub data: Mutex<Collected>,
}

impl Collector {
    pub fn new(refresh: bool, gp: bool) -> Arc<Collector> {
        Arc::new(Collector {
            refresh,
            gp,
            data: Mutex::new(Collected::default()),
        })
    }

    pub fn take(&self) -> Collected {
        std::mem::take(&mut *self.data.lock().expect("collector lock poisoned"))
    }
}

fn field_f64(e: &Event, key: &str) -> f64 {
    e.fields
        .iter()
        .find(|(k, _)| k == key)
        .map_or(f64::NAN, |(_, v)| match v {
            Value::F64(x) => *x,
            Value::U64(x) => *x as f64,
            _ => f64::NAN,
        })
}

impl Subscriber for Collector {
    fn enabled(&self, target: &str) -> bool {
        (self.refresh && target == "sim.refresh")
            || (self.gp && matches!(target, "gp.solve_ns" | "gp.newton" | "gp.outer"))
    }

    fn on_event(&self, e: &Event) {
        let mut d = self.data.lock().expect("collector lock poisoned");
        match &*e.target {
            "sim.refresh" => d.refreshes.push((
                e.ts_ns,
                field_f64(e, "t"),
                field_f64(e, "item") as u32,
                field_f64(e, "value"),
            )),
            "gp.solve_ns" => d.gp_solve_ns.push(field_f64(e, "dur_ns") as u64),
            "gp.newton" => d.gp_newton += 1,
            "gp.outer" => d.gp_outer += 1,
            _ => {}
        }
    }
}

/// The benchmark's own spans around its calls into the program, kept in
/// memory during a traced run and written out as JSON Lines at the end.
#[derive(Default)]
pub struct Spans {
    on: bool,
    spans: Vec<(&'static str, u32, u32, u64, u64)>,
}

impl Spans {
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            spans: Vec::new(),
        }
    }

    /// Records `name` over `[start_ns, end_ns]` (clock:
    /// `polyquery::obs::now_ns`) under `parent` (0 = root); returns its id.
    pub fn record(&mut self, name: &'static str, parent: u32, start_ns: u64, end_ns: u64) -> u32 {
        if !self.on {
            return 0;
        }
        let id = self.spans.len() as u32 + 1;
        self.spans.push((name, id, parent, start_ns, end_ns));
        id
    }

    /// Sets the end of span `id`, opened with its start as end.
    pub fn close(&mut self, id: u32, end_ns: u64) {
        if id > 0 {
            self.spans[id as usize - 1].4 = end_ns;
        }
    }

    /// Per span name: (count, total s, self s). Self time is a span's
    /// duration minus that of its direct children.
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len() + 1];
        for &(_, _, parent, s, e) in &self.spans {
            child_ns[parent as usize] += e - s;
        }
        let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for &(name, id, _, s, e) in &self.spans {
            let slot = out.entry(name).or_default();
            slot.0 += 1;
            slot.1 += (e - s) as f64 / 1e9;
            slot.2 += (e - s).saturating_sub(child_ns[id as usize]) as f64 / 1e9;
        }
        out
    }

    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for &(name, id, parent, s, e) in &self.spans {
            writeln!(
                w,
                "{{\"name\": \"{name}\", \"id\": {id}, \"parent\": {parent}, \"start_ns\": {s}, \"end_ns\": {e}}}"
            )?;
        }
        w.flush()
    }

    pub fn print_summary(&self) {
        println!("  -- benchmark spans: name, count, total s, self s --");
        for (name, (n, total, own)) in self.summary() {
            println!("  {name:<28} {n:>9} {total:>12.4} {own:>12.4}");
        }
    }
}

/// End-to-end metrics, printed by every workload with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("refresh_per_s", "1/s"),
    ("refresh_p50_us", "us"),
    ("refresh_p99_us", "us"),
    ("peak_rss_mb", "MB"),
    ("total_cost_msgs", "msgs"),
];

/// Per-layer metrics, printed by every workload with `--trace 1`. A
/// layer the workload does not run through reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("monitor.install_s", "s"),
    ("monitor.on_refresh_busy_s", "s"),
    ("monitor.refresh_plain_p50_us", "us"),
    ("monitor.refresh_recompute_p50_us", "us"),
    ("monitor.recompute_refresh_share", "ratio"),
    ("monitor.filter_changes", "count"),
    ("core.recomputations", "count"),
    ("core.dab_solve_s", "s"),
    ("core.warm_hit_ratio", "ratio"),
    ("core.cold_starts", "count"),
    ("gp.solves", "count"),
    ("gp.solve_s", "s"),
    ("gp.solve_p50_us", "us"),
    ("gp.solve_p99_us", "us"),
    ("gp.sparse_solves", "count"),
    ("gp.newton_steps", "count"),
    ("gp.outer_iterations", "count"),
    ("eval.shared_terms", "count"),
    ("eval.scatter_fanout", "count"),
    ("eval.full", "count"),
    ("eval.replay_ns_per_move", "ns"),
    ("eval.naive_ns_per_refresh", "ns"),
    ("sim.solver_s", "s"),
    ("sim.non_solver_s", "s"),
    ("sched.push", "count"),
    ("sched.pop", "count"),
    ("sched.cascade", "count"),
    ("ingest.batches", "count"),
    ("sim.refreshes", "count"),
    ("sim.dab_change_messages", "count"),
    ("sim.loss_pct", "%"),
    ("obs.trace_overhead_ratio", "ratio"),
];

/// Fills `report`'s metric lists from `values`, in the order of
/// [`END_TO_END`] and [`PER_LAYER`]; a metric not in `values` reads 0.
pub fn fill(report: &mut Report, values: &BTreeMap<&'static str, f64>, trace: bool) {
    let (names, out) = if trace {
        (PER_LAYER, &mut report.per_layer)
    } else {
        (END_TO_END, &mut report.end_to_end)
    };
    *out = names
        .iter()
        .map(|&(name, unit)| (name, values.get(name).copied().unwrap_or(0.0), unit))
        .collect();
}

/// The layer metrics every workload reads from its traced run's
/// registry snapshot and event collector: pq-core's solve outcomes and
/// pq-gp's solves.
pub fn solver_layers(
    m: &mut BTreeMap<&'static str, f64>,
    snap: &polyquery::obs::Snapshot,
    events: &Collected,
) {
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0) as f64;
    let hist_sum_s = |name: &str| {
        snap.histograms
            .get(name)
            .map_or(0.0, |h| h.sum as f64 / 1e9)
    };
    let outcomes: f64 = [
        "solve.warm_hit",
        "solve.warm_repair",
        "solve.cold_fallback",
        "solve.cold_start",
    ]
    .iter()
    .map(|n| counter(n))
    .sum();
    m.insert("core.dab_solve_s", hist_sum_s("dab.solve_ns"));
    m.insert(
        "core.warm_hit_ratio",
        if outcomes > 0.0 {
            counter("solve.warm_hit") / outcomes
        } else {
            0.0
        },
    );
    m.insert("core.cold_starts", counter("solve.cold_start"));
    let solve_us: Vec<f64> = sorted(
        &events
            .gp_solve_ns
            .iter()
            .map(|&ns| ns as f64 / 1e3)
            .collect::<Vec<_>>(),
    );
    m.insert("gp.solves", solve_us.len() as f64);
    m.insert("gp.solve_s", solve_us.iter().sum::<f64>() / 1e6);
    m.insert("gp.solve_p50_us", quantile(&solve_us, 0.5));
    m.insert("gp.solve_p99_us", quantile(&solve_us, 0.99));
    m.insert("gp.sparse_solves", counter("gp.sparse_solve"));
    m.insert("gp.newton_steps", events.gp_newton as f64);
    m.insert("gp.outer_iterations", events.gp_outer as f64);
}

/// Replays every source move of `traces` through
/// `SharedPlan::delta_scatter` over the whole book and checks the
/// maintained values against [`Book::eval`] within 1e-9 of each query's
/// magnitude every 500 ticks and at the end. Returns ns per move.
pub fn shared_replay(
    queries: &[PolynomialQuery],
    traces: &polyquery::TraceSet,
    book: &Book,
    report: &mut Report,
) -> f64 {
    use polyquery::obs::now_ns;
    let plan = polyquery::poly::SharedPlan::compile(queries.iter().map(|q| q.poly()));
    let mut values = traces.initial_values();
    let (mut scratch, mut qv) = (Vec::new(), Vec::new());
    plan.full_eval_into(&values, &mut scratch, &mut qv);
    let (mut moves, mut ns) = (0u64, 0u64);
    let last = traces.n_ticks() - 1;
    for tick in 1..traces.n_ticks() {
        let t0 = now_ns();
        for (i, trace) in traces.traces().iter().enumerate() {
            let (old, new) = (values[i], trace.at(tick));
            if old != new {
                plan.delta_scatter(&values, polyquery::ItemId(i as u32), old, new, &mut qv);
                values[i] = new;
                moves += 1;
            }
        }
        ns += now_ns() - t0;
        if tick % 500 == 0 || tick == last {
            for (q, &got) in qv.iter().enumerate() {
                let want = book.eval(q, &values);
                let tol = 1e-9 * book.magnitude(q, &values);
                report.check((got - want).abs() <= tol, || {
                    format!("shared replay: query {q} at tick {tick} is {got}, independent {want}")
                });
            }
        }
    }
    ns as f64 / moves.max(1) as f64
}

/// Replays a refresh stream `(item, value)` from `init` through
/// `Polynomial::eval` of every query over the item: the naive
/// evaluator's cost per refresh, in ns.
pub fn naive_replay(
    queries: &[PolynomialQuery],
    book: &Book,
    init: &[f64],
    refreshes: impl Iterator<Item = (usize, f64)>,
) -> f64 {
    let mut values = init.to_vec();
    let (mut n, mut acc) = (0u64, 0.0);
    let t0 = polyquery::obs::now_ns();
    for (item, v) in refreshes {
        values[item] = v;
        for &q in &book.item_queries[item] {
            acc += queries[q].eval(&values);
        }
        n += 1;
    }
    let ns = polyquery::obs::now_ns() - t0;
    std::hint::black_box(acc);
    ns as f64 / n.max(1) as f64
}

/// Calibration kernel time, in ns, on the reference host at full
/// speed (see README.md, "Host speed").
pub const KERNEL_REF_NS: f64 = 900_000.0;

/// A random single cycle over 2^15 slots (128 KiB), walked by
/// [`kernel`] for its memory-latency part.
fn chase_cycle() -> &'static [u32] {
    static CYCLE: std::sync::OnceLock<Vec<u32>> = std::sync::OnceLock::new();
    CYCLE.get_or_init(|| {
        let n = 1usize << 15;
        let mut next: Vec<u32> = (0..n as u32).collect();
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        // Sattolo's shuffle: one cycle through every slot.
        for i in (1..n).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            next.swap(i, (x % i as u64) as usize);
        }
        next
    })
}

/// One pass of a fixed compute kernel with the kinds of work the
/// workloads do: Cholesky factorisations of a 64x64 SPD matrix (the
/// solver's dense arithmetic), a sort of 4096 pseudo-random keys
/// (branchy integer work), a dependent walk through a 128 KiB cycle
/// (the evaluators' scattered loads) and softplus terms (the solver's
/// log-sum-exp). Returns the calling thread's CPU time in ns, so time
/// the OS gives another thread of the CPU does not count.
fn kernel() -> u64 {
    let cycle = chase_cycle();
    const N: usize = 64;
    let t0 = thread_cpu_ns();
    let mut a = vec![0.0f64; N * N];
    for i in 0..N {
        for j in 0..N {
            let diag = if i == j { N as f64 } else { 0.0 };
            a[i * N + j] = 1.0 / (1.0 + (i as f64 - j as f64).abs()) + diag;
        }
    }
    for _ in 0..8 {
        let mut l = std::hint::black_box(a.clone());
        for j in 0..N {
            let d =
                (l[j * N + j] - (0..j).map(|k| l[j * N + k] * l[j * N + k]).sum::<f64>()).sqrt();
            l[j * N + j] = d;
            for i in j + 1..N {
                let s = l[i * N + j] - (0..j).map(|k| l[i * N + k] * l[j * N + k]).sum::<f64>();
                l[i * N + j] = s / d;
            }
        }
        std::hint::black_box(&l);
    }
    let mut x = 0x1234_5678_9ABC_DEF0u64;
    let mut keys: Vec<u64> = (0..4096)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    keys.sort_unstable();
    std::hint::black_box(&keys);
    let mut slot = 0u32;
    for _ in 0..40_000 {
        slot = cycle[slot as usize];
    }
    std::hint::black_box(slot);
    let softplus: f64 = (0..32_768)
        .map(|k| (1.0 + (std::hint::black_box(k as f64) * 2.5e-4 - 4.0).exp()).ln())
        .sum();
    std::hint::black_box(softplus);
    thread_cpu_ns() - t0
}

/// CPU time of the calling thread, in ns (`CLOCK_THREAD_CPUTIME_ID`).
pub fn thread_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a writable timespec; the clock id is Linux's.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the thread CPU-time clock is readable");
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

/// The host's speed now relative to the reference: the best of three
/// kernel passes against [`KERNEL_REF_NS`] (below 1 when slow).
pub fn speed_factor() -> f64 {
    let best = (0..3).map(|_| kernel()).min().expect("three passes");
    KERNEL_REF_NS / best as f64
}

/// Host-speed marks taken during a timed phase: `(timestamp ns, speed
/// factor)`, ascending. A wall-clock stretch is converted to
/// reference-speed time by multiplying it with the speed measured
/// around it.
#[derive(Default, Clone)]
pub struct SpeedMarks {
    pub marks: Vec<(u64, f64)>,
}

/// Minimum spacing of speed marks inside a timed phase.
pub const MARK_EVERY_NS: u64 = 100_000_000;

impl SpeedMarks {
    /// Measures the speed and records it at the current time; returns
    /// the ns the measurement itself took.
    pub fn mark(&mut self) -> u64 {
        let t0 = polyquery::obs::now_ns();
        let f = speed_factor();
        let t1 = polyquery::obs::now_ns();
        self.marks.push((t1, f));
        t1 - t0
    }

    /// Speed factor at `ts`: the mean of the marks on either side.
    pub fn factor_at(&self, ts: u64) -> f64 {
        let k = self.marks.partition_point(|&(t, _)| t <= ts);
        match (k.checked_sub(1).map(|i| self.marks[i]), self.marks.get(k)) {
            (Some((_, a)), Some(&(_, b))) => (a + b) / 2.0,
            (Some((_, a)), None) => a,
            (None, Some(&(_, b))) => b,
            (None, None) => 1.0,
        }
    }

    /// `[a, b]` wall-clock ns converted to reference-speed ns: each
    /// stretch between marks is scaled by the mean of its two ends.
    pub fn scale(&self, a: u64, b: u64) -> f64 {
        let mut total = 0.0;
        let mut t = a;
        let first = self.marks.partition_point(|&(m, _)| m <= a);
        for &(m, _) in &self.marks[first..] {
            if m >= b {
                break;
            }
            total += (m - t) as f64 * self.factor_at(t + (m - t) / 2);
            t = m;
        }
        total + (b - t) as f64 * self.factor_at(t + (b - t) / 2)
    }

    pub fn median_factor(&self) -> f64 {
        median(&self.marks.iter().map(|&(_, f)| f).collect::<Vec<_>>())
    }
}
