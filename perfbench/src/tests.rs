//! The decorator must be invisible: a workload driven through
//! [`workload::build`] (timing decorator, timers off or on) produces the
//! run log `Scenario::run()` produces, bit for bit.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use crate::check::{digest, log_diff, pinned};
use crate::episode::{self, ROUND};
use crate::timed::{Tracer, EVAL, LOCAL, MATERIALIZE, RELEASE, SERVER};
use crate::workload::{self, Workload};
use fedzkt_fl::Materialization;
use fedzkt_scenario::Scenario;

/// `w`'s scenario cut to `rounds` rounds.
fn shortened(w: Workload, rounds: usize) -> Scenario {
    let mut sc = w.scenario(3, 2);
    sc.sim.rounds = rounds;
    sc
}

fn assert_wrapped_matches_scenario_run(sc: &Scenario) {
    let expected = sc.run().expect("the scenario runs");
    for traced in [false, true] {
        let tracer = Tracer::new();
        tracer.set_on(traced);
        let (mut sim, _) = workload::build(sc, &tracer);
        let log = sim.run().clone();
        assert_eq!(
            log_diff(&expected, &log),
            None,
            "{} (traced: {traced})",
            sc.name
        );
    }
}

#[test]
fn wrapped_zkt_cifar_matches_scenario_run() {
    assert_wrapped_matches_scenario_run(&shortened(Workload::ZktCifar, 1));
}

#[test]
fn wrapped_gkt_q8_matches_scenario_run() {
    assert_wrapped_matches_scenario_run(&shortened(Workload::GktQ8, 2));
}

/// The lazy fleet needs the forwarded `registry`: the default reports
/// the whole fleet as resident in the log's residency column.
#[test]
fn wrapped_fleet_1m_matches_scenario_run() {
    assert_wrapped_matches_scenario_run(&shortened(Workload::Fleet1m, 3));
}

/// A lazy FedGKT fleet needs the forwarded `prepare_eval`: without it the
/// evaluation borrows the models of devices that sat the round out, which
/// are not resident, and panics.
#[test]
fn wrapped_lazy_gkt_q8_matches_scenario_run() {
    let mut sc = shortened(Workload::GktQ8, 2);
    sc.sim.materialization = Materialization::Lazy;
    sc.sim.participation = 0.6;
    assert_wrapped_matches_scenario_run(&sc);
}

#[test]
fn phase_spans_nest_under_their_round() {
    let sc = shortened(Workload::GktQ8, 2);
    let tracer = Tracer::new();
    tracer.set_on(true);
    let ep = episode::run(Workload::GktQ8, &sc, &tracer);
    assert!(episode::resume_check(&sc, &tracer, &ep.resume_point.unwrap(), ep.sim.log()).is_ok());
    let spans = tracer.spans();
    let rounds: Vec<usize> = (0..spans.len())
        .filter(|&i| spans[i].name == ROUND)
        .collect();
    assert_eq!(rounds.len(), 2);
    for &r in &rounds {
        let children: Vec<&str> = spans
            .iter()
            .filter(|s| s.parent == Some(r))
            .map(|s| s.name)
            .collect();
        assert_eq!(children, [LOCAL, SERVER, EVAL, RELEASE], "round span {r}");
        let eval = spans
            .iter()
            .position(|s| s.parent == Some(r) && s.name == EVAL)
            .unwrap();
        assert!(spans
            .iter()
            .any(|s| s.parent == Some(eval) && s.name == MATERIALIZE));
    }
    assert!(spans.iter().all(|s| s.end >= s.start && s.cpu >= 0.0));
    assert_eq!(
        tracer.evaluations().len(),
        3,
        "two rounds plus the resumed one"
    );
    assert!(tracer.evaluations().iter().all(|&(_, models)| models == 5));
}

#[test]
fn log_diff_and_digest_see_a_single_flipped_bit() {
    let sc = shortened(Workload::Fleet1m, 2);
    let log = sc.run().unwrap();
    let mut other = log.clone();
    other.rounds[1].sim_seconds = f64::from_bits(other.rounds[1].sim_seconds.to_bits() ^ 1);
    assert_eq!(log_diff(&log, &log), None);
    assert!(log_diff(&log, &other).unwrap().contains("sim_seconds"));
    assert_ne!(digest(&log), digest(&other));
}

#[test]
fn every_pin_line_parses() {
    let pins = include_str!("../pins.txt");
    for line in pins.lines().filter(|l| !l.starts_with('#')) {
        let f: Vec<&str> = line.split_whitespace().collect();
        assert_eq!(f.len(), 4, "{line}");
        let seed = f[1].parse().unwrap();
        assert!(Workload::parse(f[0]).is_some(), "{line}");
        assert_eq!(
            pinned(f[0], seed, f[2]),
            u64::from_str_radix(f[3], 16).ok(),
            "{line}"
        );
    }
}
