//! One episode: build a fresh simulation, drive every round, take the
//! checkpoints the workload asks for, and check what came out.

use crate::check;
use crate::host::process_cpu_seconds;
use crate::timed::{BenchSim, Tracer};
use crate::workload::{self, Setup, Workload};
use fedzkt_fl::{RunLog, SimCheckpoint};
use fedzkt_scenario::Scenario;
use std::rc::Rc;
use std::time::Instant;

/// Span names the episode loop records around driver and checkpoint calls.
pub const ROUND: &str = "round";
pub const CKPT_SAVE: &str = "ckpt.save";
pub const CKPT_LOAD: &str = "ckpt.load";

/// Wall and CPU figures of one episode.
pub struct Timings {
    pub setup: Setup,
    /// Wall seconds of each round step (the round, plus its checkpoint on
    /// workloads that checkpoint every round).
    pub steps: Vec<f64>,
    /// Process CPU seconds of each round step.
    pub cpu: Vec<f64>,
    /// `(seconds, bytes)` of every checkpoint taken: one after each round,
    /// or only the one the resume check restarts from.
    pub saves: Vec<(f64, usize)>,
}

pub struct Episode {
    pub timings: Timings,
    /// The checkpoint taken one round before the end, as JSON.
    pub resume_point: Option<String>,
    pub sim: Box<dyn BenchSim>,
}

/// Snapshot `sim` and serialize it, inside a span; returns the JSON and
/// the seconds it took.
fn save(sim: &dyn BenchSim, tracer: &Tracer) -> (String, f64) {
    let t = Instant::now();
    let json = tracer.span(CKPT_SAVE, || sim.checkpoint().to_json());
    (json, t.elapsed().as_secs_f64())
}

/// Build `sc` and drive all of its rounds.
pub fn run(w: Workload, sc: &Scenario, tracer: &Rc<Tracer>) -> Episode {
    let (mut sim, setup) = workload::build(sc, tracer);
    let rounds = sc.sim.rounds;
    let every = w.checkpoint_every_round();
    let mut t = Timings {
        setup,
        steps: Vec::new(),
        cpu: Vec::new(),
        saves: Vec::new(),
    };
    let mut resume_point = None;
    for r in 0..rounds {
        if !every && r + 1 == rounds {
            let (json, secs) = save(sim.as_ref(), tracer);
            t.saves.push((secs, json.len()));
            resume_point = Some(json);
        }
        tracer.set_round(r);
        let (wall, cpu) = (Instant::now(), process_cpu_seconds());
        let id = tracer.open(ROUND);
        sim.round(r);
        if every {
            let (json, secs) = save(sim.as_ref(), tracer);
            t.saves.push((secs, json.len()));
            if r + 2 == rounds {
                resume_point = Some(json);
            }
        }
        tracer.close(id);
        t.cpu.push(process_cpu_seconds() - cpu);
        t.steps.push(wall.elapsed().as_secs_f64());
    }
    Episode {
        timings: t,
        resume_point,
        sim,
    }
}

/// Resume `json` into a freshly built simulation of `sc`, drive the
/// remaining rounds and require the log `expected`. Returns the seconds
/// spent parsing and restoring the checkpoint.
pub fn resume_check(
    sc: &Scenario,
    tracer: &Rc<Tracer>,
    json: &str,
    expected: &RunLog,
) -> Result<f64, String> {
    let (mut fresh, _) = workload::build(sc, tracer);
    let t = Instant::now();
    let id = tracer.open(CKPT_LOAD);
    let restored = SimCheckpoint::from_json(json)
        .and_then(|ck| fresh.resume_from(&ck).map(|()| ck.rounds_done));
    tracer.close(id);
    let rounds_done = restored?;
    let load = t.elapsed().as_secs_f64();
    for r in rounds_done..sc.sim.rounds {
        fresh.round(r);
    }
    match check::log_diff(fresh.log(), expected) {
        None => Ok(load),
        Some(diff) => Err(format!("resumed run diverged: {diff}")),
    }
}
