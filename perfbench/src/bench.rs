//! The two kinds of run: a measured run (decorator timers off) that
//! yields the end-to-end metrics, and a traced run that yields the
//! per-layer metrics. Both check their outputs.

use crate::check;
use crate::episode::{self, Timings, ROUND};
use crate::host::{mean, median, peak_rss_mb};
use crate::layers;
use crate::timed::{BenchSim, Span, Tracer, EVAL, LOCAL, MATERIALIZE, RELEASE, SERVER};
use crate::workload::{self, Setup, Workload};
use fedzkt_fl::RunLog;
use fedzkt_scenario::Scenario;
use fedzkt_tensor::par;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::time::Instant;

/// Set-up is repeated until a run has at least this many samples of it.
const MIN_SETUPS: usize = 9;

/// What one run reports.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)`, in report order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Every span the run recorded (traced runs only).
    pub spans: Vec<Span>,
}

impl Report {
    fn new() -> Self {
        Report {
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Count one checked operation; a failure is reported on stderr.
    fn check(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            eprintln!("perfbench: FAILED {what}: {e}");
        }
    }
}

/// Run `f`, turning a panic into an error message.
fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|e| {
        e.downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic".into())
    })
}

/// What the checked first episode of a run leaves behind.
struct First {
    log: RunLog,
    /// Seconds to parse and restore the resume checkpoint.
    load: f64,
}

/// Drive episodes of `sc` while the next one is expected to end within
/// `seconds` of `start` (at least one). The first is checked — wire
/// invariant, resume from the checkpoint one round before its end, the
/// seed's pin — after `inspect` has looked at its simulation; every later
/// one must repeat its log bit for bit. Each simulation is dropped before
/// the next one is built.
fn episodes(
    w: Workload,
    sc: &Scenario,
    tracer: &Rc<Tracer>,
    (start, seconds): (Instant, f64),
    report: &mut Report,
    inspect: &mut dyn FnMut(&dyn BenchSim),
) -> (Vec<Timings>, Option<First>) {
    let mut timings = Vec::new();
    let mut first: Option<First> = None;
    loop {
        report.attempted += sc.sim.rounds as u64;
        let began = Instant::now();
        let ep = match guarded(|| episode::run(w, sc, tracer)) {
            Ok(ep) => ep,
            Err(e) => {
                report.failed += 1;
                eprintln!("perfbench: FAILED episode: {e}");
                break;
            }
        };
        let took = began.elapsed().as_secs_f64();
        timings.push(ep.timings);
        let log = ep.sim.log().clone();
        match &first {
            Some(f) => report.check("repeat", check::log_diff(&f.log, &log).map_or(Ok(()), Err)),
            None => {
                inspect(ep.sim.as_ref());
                let wire = guarded(|| check::wire_invariant(ep.sim.as_ref()));
                report.check("wire invariant", wire.and_then(|r| r));
                drop(ep.sim);
                let Some(json) = ep.resume_point else {
                    report.check("resume", Err("no checkpoint to resume from".into()));
                    break;
                };
                // The round the resume check replays.
                report.attempted += 1;
                let resumed = guarded(|| episode::resume_check(sc, tracer, &json, &log));
                let load = resumed.and_then(|r| r);
                report.check("pin", pin(w, sc.sim.seed, &log));
                report.check("outputs in range", in_range(sc, &log));
                match load {
                    Ok(load) => {
                        report.check("resume", Ok(()));
                        first = Some(First { log, load });
                    }
                    Err(e) => {
                        report.check("resume", Err(e));
                        break;
                    }
                }
            }
        }
        // Start another episode only if it should end within the budget.
        if start.elapsed().as_secs_f64() + took > seconds {
            break;
        }
    }
    (timings, first)
}

/// Compare the log's digest with the seed's pin, when one exists, and
/// print it so new pins can be recorded.
fn pin(w: Workload, seed: u64, log: &RunLog) -> Result<(), String> {
    let backend = fedzkt_tensor::ops::gemm::backend_name();
    let digest = check::digest(log);
    eprintln!("perfbench: pin {} {seed} {backend} {digest:016x}", w.name());
    match check::pinned(w.name(), seed, backend) {
        Some(p) if p != digest => Err(format!("digest {digest:016x}, pinned {p:016x}")),
        _ => Ok(()),
    }
}

fn in_range(sc: &Scenario, log: &RunLog) -> Result<(), String> {
    let acc = log.final_accuracy();
    let clocked = sc.resources.is_some();
    let ok = log.rounds.len() == sc.sim.rounds
        && (0.0..=1.0).contains(&acc)
        && log.rounds.iter().all(|r| {
            r.upload_bytes > 0
                && r.download_bytes > 0
                && (!clocked || (r.sim_seconds.is_finite() && r.sim_seconds > 0.0))
        });
    if ok {
        Ok(())
    } else {
        Err(format!("log out of range (final accuracy {acc})"))
    }
}

/// Build and drop `sc` until `setups` holds at least [`MIN_SETUPS`].
fn more_setups(sc: &Scenario, tracer: &Rc<Tracer>, setups: &mut Vec<Setup>, report: &mut Report) {
    while setups.len() < MIN_SETUPS {
        report.attempted += 1;
        match guarded(|| workload::build(sc, tracer).1) {
            Ok(s) => setups.push(s),
            Err(e) => {
                report.failed += 1;
                eprintln!("perfbench: FAILED set-up: {e}");
                return;
            }
        }
    }
}

/// `f(v)`, or 0 for an empty `v` (a run whose first episode failed).
fn or0(v: &[f64], f: fn(&[f64]) -> f64) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        f(v)
    }
}

fn steps(timings: &[Timings]) -> Vec<f64> {
    timings
        .iter()
        .flat_map(|t| t.steps.iter().copied())
        .collect()
}

/// A measured run: the decorator's timers stay off; only the benchmark's
/// own clock reads around whole round steps and set-ups.
pub fn measure(w: Workload, seed: u64, seconds: f64, threads: usize) -> Report {
    let start = Instant::now();
    let sc = w.scenario(seed, threads);
    let tracer = Tracer::new();
    let mut report = Report::new();
    let (timings, first) = episodes(w, &sc, &tracer, (start, seconds), &mut report, &mut |_| {});
    let mut setups: Vec<Setup> = timings.iter().map(|t| t.setup).collect();
    more_setups(&sc, &tracer, &mut setups, &mut report);

    let steps = steps(&timings);
    let runs: Vec<f64> = timings.iter().map(|t| t.steps.iter().sum()).collect();
    let cpu: Vec<f64> = timings.iter().flat_map(|t| t.cpu.iter().copied()).collect();
    let totals: Vec<f64> = setups.iter().map(Setup::total).collect();
    report.metric("round_s", or0(&steps, median), "s");
    report.metric("run_s", or0(&runs, median), "s");
    report.metric("setup_s", or0(&totals, median), "s");
    report.metric("cpu_s_per_round", or0(&cpu, mean), "s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    let log = first.map(|f| f.log).unwrap_or_default();
    let rounds = log.rounds.len().max(1) as f64;
    let wire: u64 = log
        .rounds
        .iter()
        .map(|r| r.upload_bytes + r.download_bytes)
        .sum();
    report.metric("wire_kib_per_round", wire as f64 / 1024.0 / rounds, "KiB");
    let sim: f64 = log.rounds.iter().map(|r| r.sim_seconds).sum();
    let listed: Vec<String> = steps.iter().map(|s| format!("{s:.4}")).collect();
    eprintln!(
        "perfbench: {} rounds measured in {} episodes; final_acc {}; sim_round_s {:.6}; {:.1} s wall",
        steps.len(),
        timings.len(),
        log.final_accuracy(),
        sim / rounds,
        start.elapsed().as_secs_f64()
    );
    if steps.len() <= 40 {
        eprintln!("perfbench: round steps (s): {}", listed.join(" "));
    }
    report
}

/// Per-layer sums over the round spans recorded at one thread count.
#[derive(Default)]
struct Layers {
    rounds: usize,
    round_wall: f64,
    /// `name → (wall, cpu)` summed over the round spans' direct children.
    child: HashMap<&'static str, (f64, f64)>,
    /// Wall seconds of spans nested in the round spans' evaluation spans.
    materialize: f64,
    devices: Vec<f64>,
    samples: Vec<f64>,
    eval_models: Vec<f64>,
}

impl Layers {
    fn of(spans: &[Span], tracer: &Tracer, threads: usize) -> Layers {
        let mut l = Layers::default();
        let in_round = |s: &Span| {
            s.parent
                .is_some_and(|p| spans[p].name == ROUND && s.threads == threads)
        };
        for s in spans {
            if s.name == ROUND && s.threads == threads {
                l.rounds += 1;
                l.round_wall += s.secs();
            } else if in_round(s) {
                let e = l.child.entry(s.name).or_default();
                e.0 += s.secs();
                e.1 += s.cpu;
            } else if s.name == MATERIALIZE && s.parent.is_some_and(|p| in_round(&spans[p])) {
                l.materialize += s.secs();
            }
        }
        for (span, devices, samples) in tracer.local_work() {
            if in_round(&spans[span]) {
                l.devices.push(devices as f64);
                l.samples.push(samples as f64);
            }
        }
        for (span, models) in tracer.evaluations() {
            if in_round(&spans[span]) {
                l.eval_models.push(models as f64);
            }
        }
        l
    }

    /// Wall seconds of the `name` phase summed over the rounds.
    fn total(&self, name: &str) -> f64 {
        self.child.get(name).map_or(0.0, |c| c.0)
    }

    /// Wall seconds of the `name` phase per round.
    fn busy(&self, name: &str) -> f64 {
        self.total(name) / self.rounds.max(1) as f64
    }

    /// CPU seconds over wall seconds times `threads`: the share of the
    /// worker pool the phase kept busy.
    fn cpu_util(&self, name: &str, threads: usize) -> f64 {
        self.child
            .get(name)
            .map_or(0.0, |&(wall, cpu)| cpu / (wall * threads as f64))
    }
}

/// A traced run. In order: untraced episodes (the reference for the
/// tracing overhead), traced episodes at the run's thread count, one
/// traced episode at one thread (the single-worker baseline, which must
/// also repeat the log), then the codec and model layers called directly.
pub fn trace(w: Workload, seed: u64, seconds: f64, threads: usize) -> Report {
    let sc = w.scenario(seed, threads);
    let tracer = Tracer::new();
    tracer.set_threads(threads);
    let mut report = Report::new();
    let budget = seconds / 3.0;
    let (plain, _) = episodes(
        w,
        &sc,
        &tracer,
        (Instant::now(), budget),
        &mut report,
        &mut |_| {},
    );

    tracer.set_on(true);
    let mut codec = (0.0, 0.0, 0);
    let mut registry = (0, 0);
    let (traced, first) = episodes(
        w,
        &sc,
        &tracer,
        (Instant::now(), budget),
        &mut report,
        &mut |sim| {
            codec = layers::codec(sim);
            registry = sim
                .registry_counts()
                .unwrap_or((sim.devices(), sim.devices()));
        },
    );
    let mut setups: Vec<Setup> = traced.iter().map(|t| t.setup).collect();
    more_setups(&sc, &tracer, &mut setups, &mut report);

    par::set_threads(1);
    tracer.set_threads(1);
    let single = w.scenario(seed, 1);
    report.attempted += single.sim.rounds as u64;
    match guarded(|| episode::run(w, &single, &tracer)) {
        Ok(ep) => {
            let diff = first
                .as_ref()
                .and_then(|f| check::log_diff(&f.log, ep.sim.log()));
            report.check("one-thread repeat", diff.map_or(Ok(()), Err));
        }
        Err(e) => {
            report.failed += 1;
            eprintln!("perfbench: FAILED one-thread episode: {e}");
        }
    }
    par::set_threads(threads);
    tracer.set_threads(threads);
    tracer.set_on(false);

    let spans = tracer.spans();
    let l = Layers::of(&spans, &tracer, threads);
    let one = Layers::of(&spans, &tracer, 1);
    let rounds = l.rounds.max(1) as f64;
    let children: f64 = l.child.values().map(|c| c.0).sum();

    report.metric("server.busy_s", l.busy(SERVER), "s");
    let share = l.total(SERVER) / l.round_wall.max(f64::MIN_POSITIVE);
    report.metric("server.share", share, "fraction");
    report.metric("server.cpu_util", l.cpu_util(SERVER, threads), "fraction");
    report.metric("server.speedup", one.busy(SERVER) / l.busy(SERVER), "ratio");
    report.metric("local.busy_s", l.busy(LOCAL), "s");
    report.metric("local.cpu_util", l.cpu_util(LOCAL, threads), "fraction");
    report.metric("local.speedup", one.busy(LOCAL) / l.busy(LOCAL), "ratio");
    report.metric("local.devices", or0(&l.devices, mean), "count");
    report.metric("local.samples", or0(&l.samples, mean), "count");
    report.metric("eval.busy_s", l.busy(EVAL) - l.materialize / rounds, "s");
    report.metric("eval.models", or0(&l.eval_models, mean), "count");
    report.metric("driver.self_s", (l.round_wall - children) / rounds, "s");
    report.metric("registry.materialize_s", l.materialize / rounds, "s");
    report.metric("registry.release_s", l.busy(RELEASE), "s");
    report.metric("registry.peak_resident", registry.0 as f64, "count");
    report.metric("registry.touched", registry.1 as f64, "count");
    let saves: Vec<f64> = traced
        .iter()
        .flat_map(|t| t.saves.iter().map(|s| s.0))
        .collect();
    let bytes = traced
        .iter()
        .flat_map(|t| t.saves.iter().map(|s| s.1))
        .max()
        .unwrap_or(0);
    report.metric("ckpt.save_s", or0(&saves, median), "s");
    report.metric("ckpt.load_s", first.as_ref().map_or(0.0, |f| f.load), "s");
    report.metric("ckpt.bytes", bytes as f64, "bytes");
    report.metric("codec.encode_s", codec.0, "s");
    report.metric("codec.decode_s", codec.1, "s");
    report.metric("codec.wire_bytes", codec.2 as f64, "bytes");
    let materialize: Vec<f64> = setups.iter().map(|s| s.materialize).collect();
    let construct: Vec<f64> = setups.iter().map(|s| s.construct).collect();
    report.metric("scenario.materialize_s", or0(&materialize, median), "s");
    report.metric("algo.construct_s", or0(&construct, median), "s");
    let traced_round = or0(&steps(&traced), median);
    report.metric(
        "trace.overhead_s",
        traced_round - or0(&steps(&plain), median),
        "s",
    );

    for row in layers::model_rows(seed) {
        let (fwd, bwd, nograd) = layers::time_model(&row);
        report.metric(format!("models.{}.fwd_s", row.name), fwd, "s");
        report.metric(format!("models.{}.bwd_s", row.name), bwd, "s");
        report.metric(format!("models.{}.nograd_fwd_s", row.name), nograd, "s");
    }
    self_times(&spans);
    report.spans = spans;
    report
}

/// Print each span name's total and self time (its duration minus the
/// part its direct children cover) to stderr.
fn self_times(spans: &[Span]) {
    let mut table: Vec<(&str, f64, f64, usize)> = Vec::new();
    let mut child = vec![0.0; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child[p] += s.secs();
        }
    }
    for (i, s) in spans.iter().enumerate() {
        match table.iter_mut().find(|(n, ..)| *n == s.name) {
            Some(row) => {
                row.1 += s.secs();
                row.2 += s.secs() - child[i];
                row.3 += 1;
            }
            None => table.push((s.name, s.secs(), s.secs() - child[i], 1)),
        }
    }
    eprintln!(
        "perfbench: {:<24} {:>8} {:>12} {:>12}",
        "span", "calls", "total_s", "self_s"
    );
    for (name, total, own, calls) in table {
        eprintln!("perfbench: {name:<24} {calls:>8} {total:>12.6} {own:>12.6}");
    }
}
