//! Frozen-parameter scopes: `with_frozen` withholds every weight gradient
//! of the listed modules while the gradient into the input stays bit for
//! bit what an unfrozen pass computes, and it restores `requires_grad` on
//! every exit path.

use fedzkt_autograd::Var;
use fedzkt_nn::{
    with_frozen, Activation, BatchNorm2d, Conv2d, Conv2dConfig, Linear, Module, Sequential,
};
use fedzkt_tensor::{seeded_rng, Tensor};

/// Input gradient of `sum(model(x) * probe)`, and whether any parameter of
/// `model` received a gradient.
fn input_grad(model: &dyn Module, x: &Tensor, frozen: bool) -> (Vec<u32>, bool) {
    for p in model.params() {
        p.zero_grad();
    }
    let input = Var::parameter(x.clone());
    let run = || {
        let y = model.forward(&input);
        // A non-uniform seed, so every output position weighs differently.
        let probe = Tensor::randn(&y.shape(), &mut seeded_rng(99));
        y.mul(&Var::constant(probe)).sum_all().backward();
    };
    if frozen {
        with_frozen(&[model], run);
    } else {
        run();
    }
    let bits = input.grad().expect("input gradient").data().iter().map(|v| v.to_bits()).collect();
    (bits, model.params().iter().any(|p| p.grad().is_some()))
}

fn assert_frozen_matches(name: &str, model: &dyn Module, x: &Tensor) {
    let (free, free_has_param_grads) = input_grad(model, x, false);
    assert!(free_has_param_grads, "{name}: the unfrozen pass must reach the weights");
    let (frozen, frozen_has_param_grads) = input_grad(model, x, true);
    assert!(!frozen_has_param_grads, "{name}: a frozen parameter received a gradient");
    assert_eq!(free, frozen, "{name}: input gradient changed under freezing");
    assert!(model.params().iter().all(Var::requires_grad), "{name}: flags not restored");
}

fn conv(in_channels: usize, out_channels: usize, groups: usize, stride: usize) -> Conv2d {
    let cfg =
        Conv2dConfig { in_channels, out_channels, kernel: 3, stride, pad: 1, groups, bias: true };
    Conv2d::new(cfg, &mut seeded_rng(in_channels as u64 * 31 + groups as u64))
}

#[test]
fn conv_input_gradient_is_unchanged_under_freezing() {
    let x = Tensor::randn(&[3, 4, 7, 7], &mut seeded_rng(1));
    assert_frozen_matches("dense conv", &conv(4, 6, 1, 1), &x);
    assert_frozen_matches("grouped conv", &conv(4, 6, 2, 2), &x);
    assert_frozen_matches("depthwise conv", &conv(4, 4, 4, 1), &x);
}

#[test]
fn linear_input_gradient_is_unchanged_under_freezing() {
    let mut rng = seeded_rng(2);
    let mlp = Sequential::new(vec![
        Box::new(Linear::new(5, 8, true, &mut rng)),
        Box::new(Activation::Relu),
        Box::new(Linear::new(8, 3, false, &mut rng)),
    ]);
    let x = Tensor::randn(&[4, 5], &mut seeded_rng(3));
    assert_frozen_matches("linear", &mlp, &x);
}

#[test]
fn batch_norm_input_gradient_is_unchanged_under_freezing() {
    let x = Tensor::randn(&[4, 3, 5, 5], &mut seeded_rng(4));
    for training in [true, false] {
        let bn = BatchNorm2d::new(3);
        // Non-trivial affine parameters, so dX depends on gamma.
        bn.params()[0].set_value(Tensor::from_vec(vec![0.5, -1.5, 2.0], &[3]).unwrap());
        bn.set_training(training);
        assert_frozen_matches(if training { "bn train" } else { "bn eval" }, &bn, &x);
    }
}

#[test]
fn a_conv_block_is_unchanged_under_freezing() {
    let block = Sequential::new(vec![
        Box::new(conv(3, 4, 1, 1)),
        Box::new(BatchNorm2d::new(4)),
        Box::new(Activation::Relu),
        Box::new(conv(4, 4, 4, 2)),
    ]);
    let x = Tensor::randn(&[2, 3, 6, 6], &mut seeded_rng(5));
    assert_frozen_matches("conv-bn-relu-depthwise", &block, &x);
}

#[test]
fn only_the_listed_modules_are_frozen() {
    let mut rng = seeded_rng(6);
    let (frozen, trained) = (Linear::new(3, 3, true, &mut rng), Linear::new(3, 2, true, &mut rng));
    let x = Var::constant(Tensor::randn(&[2, 3], &mut rng));
    with_frozen(&[&frozen], || {
        assert!(frozen.params().iter().all(|p| !p.requires_grad()));
        trained.forward(&frozen.forward(&x)).sum_all().backward();
    });
    assert!(frozen.params().iter().all(|p| p.grad().is_none()));
    assert!(trained.params().iter().all(|p| p.grad().is_some()));
}

#[test]
fn flags_are_restored_after_a_panic_and_when_nested() {
    let mut rng = seeded_rng(7);
    let layer = Linear::new(2, 2, true, &mut rng);
    // A parameter that was already frozen stays frozen afterwards.
    layer.params()[1].set_requires_grad(false);
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        with_frozen(&[&layer, &layer], || {
            with_frozen(&[&layer], || {});
            assert!(layer.params().iter().all(|p| !p.requires_grad()));
            panic!("inside the scope");
        })
    }));
    assert!(caught.is_err());
    let flags: Vec<bool> = layer.params().iter().map(Var::requires_grad).collect();
    assert_eq!(flags, vec![true, false]);
}
