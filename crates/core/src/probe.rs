//! The gradient-norm probe behind Figure 2.
//!
//! For a synthetic batch `x`, the probe evaluates the disagreement
//! `L(F(x), f_ens(x))` under each candidate loss (KL, logit-ℓ1, SL) and
//! records `‖∇ₓ L‖₂`. The paper's Hypotheses 1–2 predict, as `F → f_ens`:
//! `‖∇ₓ L_KL‖ ≤ ‖∇ₓ L_SL‖ ≤ ‖∇ₓ L_ℓ1‖`.

use fedzkt_autograd::{DistillLoss, Var};
use fedzkt_nn::{with_frozen, Module};
use fedzkt_tensor::Tensor;
use serde::{Deserialize, Serialize};

/// One probe measurement (a point on Figure 2's three curves).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GradNormRecord {
    /// Communication round (1-based).
    pub round: usize,
    /// `‖∇ₓ L‖₂` for the KL-divergence loss (Eq. 3).
    pub kl: f32,
    /// `‖∇ₓ L‖₂` for the logit-ℓ1 loss (Eq. 4).
    pub logit_l1: f32,
    /// `‖∇ₓ L‖₂` for the SL loss (Eq. 5).
    pub sl: f32,
}

/// Collects [`GradNormRecord`]s across a run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct GradNormProbe {
    records: Vec<GradNormRecord>,
}

impl GradNormProbe {
    /// An empty probe.
    pub fn new() -> Self {
        GradNormProbe::default()
    }

    /// Measure all three losses on batch `x` against the global model and
    /// the device ensemble, and record the result for `round`.
    ///
    /// Gradients flow through *both* the student and every teacher into
    /// `x`, exactly as in the generator's objective.
    pub fn measure(
        &mut self,
        round: usize,
        global: &dyn Module,
        devices: &[&dyn Module],
        x: &Tensor,
    ) -> GradNormRecord {
        // Measure in eval mode so batch-norm running statistics are not
        // perturbed — the probe must be side-effect free on training.
        global.set_training(false);
        for d in devices {
            d.set_training(false);
        }
        // Every model is frozen, so no parameter gradient is computed (or
        // left behind to perturb the surrounding training loop); the input
        // leaf belongs to no model and keeps its gradient.
        let models: Vec<&dyn Module> =
            std::iter::once(global).chain(devices.iter().copied()).collect();
        let norm_for = |loss: DistillLoss| -> f32 {
            let input = Var::parameter(x.clone());
            with_frozen(&models, || {
                let student = global.forward(&input);
                let teacher_logits: Vec<Var> =
                    devices.iter().map(|d| d.forward(&input)).collect();
                let teacher_refs: Vec<&Var> = teacher_logits.iter().collect();
                loss.eval(&student, &teacher_refs).backward();
            });
            input.grad().expect("input gradient").norm_l2()
        };
        let record = GradNormRecord {
            round,
            kl: norm_for(DistillLoss::Kl),
            logit_l1: norm_for(DistillLoss::LogitL1),
            sl: norm_for(DistillLoss::Sl),
        };
        global.set_training(true);
        for d in devices {
            d.set_training(true);
        }
        self.records.push(record);
        record
    }

    /// All measurements so far.
    pub fn records(&self) -> &[GradNormRecord] {
        &self.records
    }

    /// Render as CSV (`round,kl,logit_l1,sl`).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("round,kl,logit_l1,sl\n");
        for r in &self.records {
            out.push_str(&format!("{},{:.6},{:.6},{:.6}\n", r.round, r.kl, r.logit_l1, r.sl));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedzkt_models::ModelSpec;
    use fedzkt_nn::{load_state_dict, state_dict};
    use fedzkt_tensor::seeded_rng;

    #[test]
    fn probe_records_positive_norms() {
        let global = ModelSpec::Mlp { hidden: 16 }.build(1, 4, 8, 1);
        let dev_a = ModelSpec::Mlp { hidden: 8 }.build(1, 4, 8, 2);
        let dev_b = ModelSpec::SmallCnn { base_channels: 2 }.build(1, 4, 8, 3);
        let mut rng = seeded_rng(4);
        let x = Tensor::randn(&[4, 1, 8, 8], &mut rng);
        let mut probe = GradNormProbe::new();
        let r = probe.measure(1, global.as_ref(), &[dev_a.as_ref(), dev_b.as_ref()], &x);
        assert!(r.kl > 0.0 && r.logit_l1 > 0.0 && r.sl > 0.0);
        assert_eq!(probe.records().len(), 1);
    }

    #[test]
    fn hypotheses_ordering_holds_near_convergence() {
        // Student == teacher (same weights): F has converged to f_ens.
        // Hypothesis 1: KL grads vanish relative to SL; Hypothesis 2:
        // logit-l1 grads dominate SL.
        let spec = ModelSpec::Mlp { hidden: 16 };
        let student = spec.build(1, 4, 8, 7);
        let teacher = spec.build(1, 4, 8, 8);
        load_state_dict(teacher.as_ref(), &state_dict(student.as_ref())).unwrap();
        // Perturb the teacher slightly: near-convergence, not identical
        // (at exact equality every loss has zero gradient).
        let mut rng = seeded_rng(11);
        for p in teacher.params() {
            let noise = Tensor::randn(&p.shape(), &mut rng).mul_scalar(0.01);
            p.set_value(p.value_clone().add(&noise).unwrap());
        }
        let mut rng = seeded_rng(9);
        let x = Tensor::randn(&[8, 1, 8, 8], &mut rng);
        let mut probe = GradNormProbe::new();
        let r = probe.measure(1, student.as_ref(), &[teacher.as_ref()], &x);
        assert!(r.kl <= r.sl + 1e-6, "KL {} should not exceed SL {}", r.kl, r.sl);
        assert!(r.logit_l1 >= r.sl, "l1 {} should dominate SL {}", r.logit_l1, r.sl);
    }

    #[test]
    fn probe_does_not_leave_gradients_behind() {
        let global = ModelSpec::Mlp { hidden: 8 }.build(1, 2, 8, 1);
        let dev = ModelSpec::Mlp { hidden: 8 }.build(1, 2, 8, 2);
        let mut rng = seeded_rng(5);
        let x = Tensor::randn(&[2, 1, 8, 8], &mut rng);
        GradNormProbe::new().measure(1, global.as_ref(), &[dev.as_ref()], &x);
        assert!(global.params().iter().all(|p| p.grad().is_none()));
        assert!(dev.params().iter().all(|p| p.grad().is_none()));
    }

    #[test]
    fn csv_shape() {
        let mut probe = GradNormProbe::new();
        probe.records.push(GradNormRecord { round: 1, kl: 0.1, logit_l1: 0.3, sl: 0.2 });
        let csv = probe.to_csv();
        assert!(csv.starts_with("round,kl"));
        assert_eq!(csv.lines().count(), 2);
    }
}
