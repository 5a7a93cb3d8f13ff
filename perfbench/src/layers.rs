//! Layers timed by calling their public functions directly: the payload
//! codec on the workload's own templates, and forward/backward passes of
//! every architecture the workloads run.

use crate::host::median;
use crate::timed::BenchSim;
use crate::workload::Workload;
use fedzkt_autograd::{no_grad, Var};
use fedzkt_fl::PayloadCodec;
use fedzkt_models::ModelSpec;
use fedzkt_nn::{Module, StateDict};
use fedzkt_scenario::{Algo, Scenario};
use fedzkt_tensor::{seeded_rng, Tensor};
use std::hint::black_box;
use std::time::Instant;

/// Median seconds of `f` over at least `min` calls, calling it until
/// `budget` seconds have passed or `max` calls are made.
fn time_median(min: usize, max: usize, budget: f64, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min || (samples.len() < max && start.elapsed().as_secs_f64() < budget) {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64());
    }
    median(&samples)
}

/// Seconds to encode and to decode one round's payloads — the uplink and
/// downlink templates of the devices active in round 1 — and their total
/// wire size in bytes.
pub fn codec(sim: &dyn BenchSim) -> (f64, f64, usize) {
    let codec = sim.config().codec;
    let active = &sim.log().rounds[0].active_devices;
    let templates: Vec<StateDict> = active
        .iter()
        .flat_map(|&k| {
            let (up, down) = sim.templates(k);
            [up, down]
        })
        .collect();
    let encoded: Vec<Vec<u8>> = templates.iter().map(|sd| codec.encode(sd)).collect();
    let wire = encoded.iter().map(Vec::len).sum();
    let encode = time_median(5, 50, 0.5, || {
        for sd in &templates {
            black_box(codec.encode(black_box(sd)));
        }
    });
    let decode = time_median(5, 50, 0.5, || {
        for bytes in &encoded {
            black_box(
                codec
                    .decode(black_box(bytes))
                    .expect("encoded payloads decode"),
            );
        }
    });
    (encode, decode, wire)
}

/// One row of the model table: an architecture at the batch size and
/// input geometry of the workload that runs it.
pub struct ModelRow {
    pub name: &'static str,
    pub model: Box<dyn Module>,
    pub input: Tensor,
}

/// The model rows: Models A–E, FedZKT's global model and generator at the
/// CIFAR-like cell's geometry and batch, and the fleet's micro-MLP at
/// its own.
pub fn model_rows(seed: u64) -> Vec<ModelRow> {
    let cell = Workload::ZktCifar.scenario(seed, 1);
    let Algo::FedZkt(zkt) = cell.algorithm else {
        unreachable!("zkt-cifar runs FedZKT")
    };
    let fleet = Workload::Fleet1m.scenario(seed, 1);
    let fleet_batch = fleet.fedavg_cfg().expect("fleet-1m runs FedAvg").batch_size;
    let mut rng = seeded_rng(seed);
    let image = |sc: &Scenario, batch: usize, rng: &mut _| {
        let c = sc.data.family.channels();
        Tensor::randn(&[batch, c, sc.data.img, sc.data.img], rng)
    };
    let classes = |sc: &Scenario| sc.data.effective_classes();
    let build = |sc: &Scenario, spec: ModelSpec| {
        spec.build(sc.data.family.channels(), classes(sc), sc.data.img, seed)
    };
    let zoo = cell.device_specs();
    let batch = zkt.device_batch;
    let mut rows: Vec<ModelRow> = ["A", "B", "C", "D", "E"]
        .into_iter()
        .zip(zoo)
        .map(|(name, spec)| ModelRow {
            name,
            model: build(&cell, spec),
            input: image(&cell, batch, &mut rng),
        })
        .collect();
    rows.push(ModelRow {
        name: "global",
        model: build(&cell, zkt.global_model),
        input: image(&cell, zkt.distill_batch, &mut rng),
    });
    let generator = zkt
        .generator
        .build(cell.data.family.channels(), cell.data.img, seed);
    let z = generator.sample_z(zkt.distill_batch, &mut rng);
    rows.push(ModelRow {
        name: "generator",
        model: Box::new(generator),
        input: z,
    });
    let mlp = fleet.device_specs()[0];
    rows.push(ModelRow {
        name: "mlp",
        model: build(&fleet, mlp),
        input: image(&fleet, fleet_batch, &mut rng),
    });
    rows
}

/// Median seconds of a taped forward pass, of the backward pass from its
/// output, and of a tape-free evaluation-mode forward pass.
pub fn time_model(row: &ModelRow) -> (f64, f64, f64) {
    let model = row.model.as_ref();
    let (mut fwd, mut bwd) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while fwd.len() < 3 || (fwd.len() < 20 && start.elapsed().as_secs_f64() < 0.5) {
        model.set_training(true);
        let x = Var::constant(row.input.clone());
        let t = Instant::now();
        let out = model.forward(&x);
        fwd.push(t.elapsed().as_secs_f64());
        let seed = Tensor::full(&out.shape(), 1.0);
        let t = Instant::now();
        out.backward_with(seed);
        bwd.push(t.elapsed().as_secs_f64());
        for p in model.params() {
            p.zero_grad();
        }
    }
    model.set_training(false);
    let nograd = time_median(3, 20, 0.5, || {
        let x = Var::constant(row.input.clone());
        black_box(no_grad(|| model.forward(&x)));
    });
    model.set_training(true);
    (median(&fwd), median(&bwd), nograd)
}
