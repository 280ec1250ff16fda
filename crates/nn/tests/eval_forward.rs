//! The one caching rule every layer kind follows: a training forward keeps
//! what `backward` needs, an eval forward keeps nothing and drops what an
//! earlier training forward kept. So `backward` after an eval forward must
//! panic rather than differentiate whatever the eval forward computed
//! (batch norm would apply its batch-statistics formula to an `x̂` built
//! from running statistics).

use nn::layers::{
    BatchNorm2d, BcmAttention, BcmConv2d, BcmGru, BcmLinear, BcmLstm, Conv2d, Flatten,
    GlobalAvgPool, Layer, Linear, MaxPool2d, ReLU, ResidualBlock,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use tensor::{init, Tensor};

const MSG: &str = "backward before training forward";

/// One layer of every kind, with an input shape it accepts.
fn every_kind() -> Vec<(Box<dyn Layer>, Vec<usize>)> {
    let mut rng = StdRng::seed_from_u64(7);
    let conv = vec![2, 8, 4, 4];
    let seq = vec![2, 8, 5, 1];
    let residual = ResidualBlock::new(
        "res",
        vec![
            Box::new(Conv2d::new(&mut rng, 8, 8, 3, 1, 1)),
            Box::new(BatchNorm2d::new(8)),
        ],
        None,
    );
    vec![
        (Box::new(Conv2d::new(&mut rng, 8, 8, 3, 1, 1)), conv.clone()),
        (
            Box::new(BcmConv2d::new(&mut rng, 8, 8, 3, 1, 1, 4)),
            conv.clone(),
        ),
        (
            Box::new(BcmConv2d::new_hada(&mut rng, 8, 8, 3, 1, 1, 4)),
            conv.clone(),
        ),
        (Box::new(Linear::new(&mut rng, 16, 8)), vec![3, 16]),
        (Box::new(BcmLinear::new(&mut rng, 16, 8, 4)), vec![3, 16]),
        (Box::new(BatchNorm2d::new(8)), conv.clone()),
        (Box::new(ReLU::new()), conv.clone()),
        (Box::new(Flatten::new()), conv.clone()),
        (Box::new(MaxPool2d::new(2)), conv.clone()),
        (Box::new(GlobalAvgPool::new()), conv.clone()),
        (Box::new(residual), conv),
        (Box::new(BcmLstm::new(&mut rng, 8, 8, 4)), seq.clone()),
        (Box::new(BcmGru::new(&mut rng, 8, 8, 4)), seq.clone()),
        (Box::new(BcmAttention::new(&mut rng, 8, 4)), seq),
    ]
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

#[test]
fn eval_forwards_keep_no_backward_state() {
    let kinds = every_kind();
    assert_eq!(kinds.len(), 14, "one entry per layer kind");
    let mut rng = StdRng::seed_from_u64(8);
    let mut failures = Vec::new();
    for (mut layer, dims) in kinds {
        let name = layer.name().to_string();
        let x: Tensor<f32> = init::gaussian(&mut rng, &dims, 0.0, 1.0);

        // A training forward followed by backward still works.
        let out = layer.forward(&x, true);
        let g = Tensor::ones(out.dims());
        assert_eq!(
            layer.backward(&g).dims(),
            x.dims(),
            "{name}: input gradient"
        );

        // Train, then eval: the eval forward drops the training state.
        let _ = layer.forward(&x, true);
        let _ = layer.forward(&x, false);
        match catch_unwind(AssertUnwindSafe(|| layer.backward(&g))) {
            Ok(_) => failures.push(format!("{name}: backward ran after an eval forward")),
            Err(payload) => {
                let msg = panic_message(payload.as_ref());
                if !msg.contains(MSG) {
                    failures.push(format!("{name}: panicked with {msg:?}"));
                }
            }
        }
    }
    assert!(failures.is_empty(), "{failures:#?}");

    // Batch norm's statistics are training state too.
    let x: Tensor<f32> = init::gaussian(&mut rng, &[2, 4, 3, 3], 0.0, 1.0);
    let mut bn = BatchNorm2d::new(4);
    let _ = bn.forward(&x, true);
    assert_eq!(bn.batch_stats().map(|(_, _, count)| count), Some(18));
    let _ = bn.forward(&x, false);
    assert!(bn.batch_stats().is_none(), "eval forward kept statistics");
}
