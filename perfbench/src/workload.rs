//! The three workloads and how the benchmark builds them: materialize the
//! scenario, call the algorithm's constructor, wrap it in the timing
//! decorator and hand it to the driver — the same steps
//! `Scenario::build` takes, each timed on its own.

use crate::timed::{BenchSim, SpanId, Timed, Tracer};
use fedzkt_core::FedZkt;
use fedzkt_data::{DataFamily, Partition};
use fedzkt_fl::{CodecSpec, FedAvg, FedGkt, FederatedAlgorithm, Simulation};
use fedzkt_scenario::{
    preset, standard_algorithm, Algo, Materialized, ResourceAssignment, ResourceSpec, Scenario,
    Tier,
};
use std::rc::Rc;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// FedZKT on the heterogeneous CIFAR-like cell: the server game.
    ZktCifar,
    /// FedGKT on the same cell through the lossy q8 codec: device training
    /// with almost no server phase.
    GktQ8,
    /// FedAvg over a lazy million-device fleet, checkpointed every round.
    Fleet1m,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::ZktCifar, Workload::GktQ8, Workload::Fleet1m];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ZktCifar => "zkt-cifar",
            Workload::GktQ8 => "gkt-q8",
            Workload::Fleet1m => "fleet-1m",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Rounds in one episode: one fresh simulation, driven to its end.
    pub fn rounds(self) -> usize {
        match self {
            Workload::ZktCifar => 2,
            Workload::GktQ8 => 4,
            Workload::Fleet1m => 100,
        }
    }

    /// Does every round end with a checkpoint, as `scenarios serve` does?
    pub fn checkpoint_every_round(self) -> bool {
        self == Workload::Fleet1m
    }

    /// The workload's scenario for `seed`, at `threads` worker threads.
    pub fn scenario(self, seed: u64, threads: usize) -> Scenario {
        let mut sc = match self {
            Workload::ZktCifar => hetero_cifar_cell(seed),
            Workload::GktQ8 => {
                let mut sc = hetero_cifar_cell(seed);
                sc.algorithm =
                    standard_algorithm(&sc, "fedgkt").expect("fedgkt has a standard config");
                sc.sim.codec = CodecSpec::QuantQ8;
                sc
            }
            Workload::Fleet1m => {
                let mut sc = preset("mega-fleet").expect("the mega-fleet preset exists");
                sc.sim.seed = seed;
                sc
            }
        };
        sc.name = self.name().to_string();
        sc.sim.rounds = self.rounds();
        sc.sim.threads = threads;
        sc
    }
}

/// The algorithm-comparison cell of `bench_algos`: CIFAR-like Quick tier,
/// five devices on Models A–E, quantity skew c=5, heterogeneous simulated
/// hardware (fixed assignment), raw codec, eager fleet.
fn hetero_cifar_cell(seed: u64) -> Scenario {
    let mut sc = Scenario::standard(
        DataFamily::Cifar10Like,
        Partition::QuantitySkew {
            classes_per_device: 5,
        },
        Tier::Quick,
        seed,
    );
    sc.set_device_count(5);
    sc.resources = Some(ResourceSpec {
        assignment: ResourceAssignment::Heterogeneous { seed: 7 },
        bandwidth: None,
        server_seconds: 1.0,
    });
    sc
}

/// Wall seconds of each set-up step.
#[derive(Debug, Clone, Copy)]
pub struct Setup {
    pub materialize: f64,
    pub construct: f64,
    pub build: f64,
}

impl Setup {
    pub fn total(&self) -> f64 {
        self.materialize + self.construct + self.build
    }
}

/// Build `sc` with its algorithm wrapped in the timing decorator.
///
/// # Panics
/// Panics when the scenario is invalid or runs an algorithm none of the
/// workloads use.
pub fn build(sc: &Scenario, tracer: &Rc<Tracer>) -> (Box<dyn BenchSim>, Setup) {
    let t0 = Instant::now();
    let m = tracer
        .span("scenario.materialize", || sc.materialize())
        .expect("valid scenario");
    let materialize = t0.elapsed().as_secs_f64();
    let sim = sc.sim;
    let started = (Instant::now(), tracer.open("algo.construct"));
    let (sim, construct, build) = match &sc.algorithm {
        Algo::FedZkt(cfg) => {
            let algo = FedZkt::new(&m.zoo, &m.train, &m.shards, *cfg, &sim);
            finish(algo, started, m, sc, tracer)
        }
        Algo::FedAvg(cfg) | Algo::FedProx(cfg) => {
            let algo = FedAvg::new(m.zoo[0], &m.train, &m.shards, *cfg, &sim);
            finish(algo, started, m, sc, tracer)
        }
        Algo::FedGkt(cfg) => {
            let algo = FedGkt::new(&m.zoo, &m.train, &m.shards, *cfg, &sim);
            finish(algo, started, m, sc, tracer)
        }
        other => panic!("no workload runs {}", other.name()),
    };
    (
        sim,
        Setup {
            materialize,
            construct,
            build,
        },
    )
}

/// Close the construction span, then wrap `algo` and build the driver
/// around it as `Scenario::build` does. Returns the simulation and the
/// construct and build seconds.
fn finish<A: FederatedAlgorithm + 'static>(
    algo: A,
    (started, span): (Instant, SpanId),
    m: Materialized,
    sc: &Scenario,
    tracer: &Rc<Tracer>,
) -> (Box<dyn BenchSim>, f64, f64) {
    let construct = started.elapsed().as_secs_f64();
    tracer.close(span);
    let t = Instant::now();
    let sim = tracer.span("sim.build", || {
        let mut builder = Simulation::builder(Timed::new(algo, tracer.clone()), m.test, sc.sim);
        if let (Some(resources), Some(spec)) = (m.resources, &sc.resources) {
            builder = builder
                .resources(resources)
                .server_seconds(spec.server_seconds);
        }
        if let Some(churn) = sc.churn {
            builder = builder.churn(churn);
        }
        Box::new(builder.build()) as Box<dyn BenchSim>
    });
    (sim, construct, t.elapsed().as_secs_f64())
}
