//! Output checks: bit-exact run-log comparison, the per-seed pins of the
//! deterministic outputs, and the wire-size invariant.

use crate::timed::BenchSim;
use fedzkt_fl::{PayloadCodec, RoundMetrics, RunLog};

/// First difference between two logs, compared field by field with floats
/// by bit pattern; `None` when they are identical.
pub fn log_diff(a: &RunLog, b: &RunLog) -> Option<String> {
    if a.rounds.len() != b.rounds.len() {
        return Some(format!("{} rounds vs {}", a.rounds.len(), b.rounds.len()));
    }
    a.rounds
        .iter()
        .zip(&b.rounds)
        .find_map(|(x, y)| round_diff(x, y))
}

fn round_diff(a: &RoundMetrics, b: &RoundMetrics) -> Option<String> {
    let f32s = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let fields: [(&str, bool); 13] = [
        ("round", a.round == b.round),
        (
            "avg_device_accuracy",
            a.avg_device_accuracy.to_bits() == b.avg_device_accuracy.to_bits(),
        ),
        (
            "device_accuracy",
            f32s(&a.device_accuracy) == f32s(&b.device_accuracy),
        ),
        (
            "global_accuracy",
            a.global_accuracy.map(f32::to_bits) == b.global_accuracy.map(f32::to_bits),
        ),
        (
            "train_loss",
            a.train_loss.to_bits() == b.train_loss.to_bits(),
        ),
        ("upload_bytes", a.upload_bytes == b.upload_bytes),
        ("download_bytes", a.download_bytes == b.download_bytes),
        (
            "sim_seconds",
            a.sim_seconds.to_bits() == b.sim_seconds.to_bits(),
        ),
        ("active_devices", a.active_devices == b.active_devices),
        (
            "registered_devices",
            a.registered_devices == b.registered_devices,
        ),
        (
            "peak_resident_devices",
            a.peak_resident_devices == b.peak_resident_devices,
        ),
        (
            "available_devices",
            a.available_devices == b.available_devices,
        ),
        ("dropped_devices", a.dropped_devices == b.dropped_devices),
    ];
    fields
        .iter()
        .find(|(_, same)| !same)
        .map(|(name, _)| format!("round {}: {name} differs", a.round))
}

/// 64-bit FNV-1a over the deterministic outputs a pin covers: the final
/// accuracy's bits, then every round's uplink bytes, downlink bytes and
/// simulated seconds' bits.
pub fn digest(log: &RunLog) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |word: u64| {
        for byte in word.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(u64::from(log.final_accuracy().to_bits()));
    for r in &log.rounds {
        eat(r.upload_bytes);
        eat(r.download_bytes);
        eat(r.sim_seconds.to_bits());
    }
    h
}

/// Pinned digests, one `workload seed backend digest` line each.
const PINS: &str = include_str!("../pins.txt");

/// The pinned digest for this workload, seed and GEMM backend, if any.
pub fn pinned(workload: &str, seed: u64, backend: &str) -> Option<u64> {
    PINS.lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|line| {
            let f: Vec<&str> = line.split_whitespace().collect();
            match f.as_slice() {
                [w, s, b, d] if *w == workload && s.parse() == Ok(seed) && *b == backend => {
                    u64::from_str_radix(d, 16).ok()
                }
                _ => None,
            }
        })
}

/// Every round's recorded traffic must equal the wire size of the active
/// devices' own payload templates under the run's codec (the protocol's
/// traffic invariant; no workload has churn, so there are no dropouts).
pub fn wire_invariant(sim: &dyn BenchSim) -> Result<(), String> {
    let codec = sim.config().codec;
    for r in &sim.log().rounds {
        let (mut up, mut down) = (0u64, 0u64);
        for &k in &r.active_devices {
            let (u, d) = sim.templates(k);
            up += codec.wire_bytes(&u) as u64;
            down += codec.wire_bytes(&d) as u64;
        }
        if (up, down) != (r.upload_bytes, r.download_bytes) {
            return Err(format!(
                "round {}: traffic {}/{} B, templates say {up}/{down} B",
                r.round, r.upload_bytes, r.download_bytes
            ));
        }
    }
    Ok(())
}
