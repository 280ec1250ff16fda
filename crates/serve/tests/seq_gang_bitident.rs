//! Property-based bit-identity contract for lane-gang session stepping.
//!
//! The gang steppers ([`nn::seq::SeqRunnerBatch`] and
//! [`serve::FxSeqRunnerBatch`]) must produce **exactly** the words of a
//! reference stepped alone for every member, across random recurrent
//! stacks (LSTM/GRU mixes, random widths and block sizes, random block
//! pruning, head or headless), random gang widths, random Q-formats, and
//! random join/leave schedules — a lane's output can never depend on who
//! its gang-mates are, or how many there are. The fixed-point reference
//! is the scalar oracle [`serve::FxSeqRunner::step_scalar`] (cells on
//! `conv_forward_fx`, independent of the lane kernels). The float
//! reference is a runner stepped alone, a gang of one; its agreement with
//! the offline layer forward is proven in `nn::seq`'s streaming and
//! `gang_step_bit_identical_to_solo_scalar` tests.

use nn::layers::{BcmGru, BcmLstm, GlobalAvgPool, Layer, Linear, Network};
use nn::seq::{SeqRunner, SeqRunnerBatch};
use nn::CheckpointMeta;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serve::{FxSeqRunner, FxSeqRunnerBatch, Model};

/// A randomly drawn streamable model: 1–2 recurrent cells (each
/// independently LSTM or GRU), random feature widths (multiples of the
/// block size), a random quarter-ish of blocks pruned away, optionally a
/// mean-pool + dense head, and a random fixed-point format.
fn build_model(n_cells: usize, bs_sel: usize, head: bool, frac_bits: u8, seed: u64) -> Model {
    let bs = [2usize, 4][bs_sel];
    let mut rng = StdRng::seed_from_u64(seed);
    let dims: Vec<usize> = (0..=n_cells)
        .map(|_| bs * rng.gen_range(1usize..=3))
        .collect();
    let mut layers: Vec<Box<dyn Layer>> = Vec::new();
    for i in 0..n_cells {
        if rng.gen_range(0u32..2) == 0 {
            layers.push(Box::new(BcmLstm::new(&mut rng, dims[i], dims[i + 1], bs)));
        } else {
            layers.push(Box::new(BcmGru::new(&mut rng, dims[i], dims[i + 1], bs)));
        }
    }
    if head {
        layers.push(Box::new(GlobalAvgPool::new()));
        layers.push(Box::new(Linear::new(&mut rng, dims[n_cells], 3)));
    }
    let mut net = Network::new("gang-prop", layers);
    let importances = net.bcm_importances();
    let mut order: Vec<usize> = (0..importances.len()).collect();
    order.sort_by(|&a, &b| importances[a].total_cmp(&importances[b]));
    net.bcm_eliminate(&order[..importances.len() / 4]);
    let meta = CheckpointMeta {
        input_dims: vec![dims[0], 4, 1],
        frac_bits,
    };
    Model::from_network("gang-prop", net, meta)
}

/// A deterministic float step input, distinct per (lane, round).
fn float_input(lane: usize, round: usize, f: usize) -> Vec<f32> {
    (0..f)
        .map(|j| (((lane * 31 + round * 7 + j) as f32) * 0.61).sin() * 0.8)
        .collect()
}

/// A deterministic full-range i16 step input, distinct per (lane, round).
fn fx_input(lane: usize, round: usize, f: usize) -> Vec<i16> {
    (0..f)
        .map(|j| {
            let h = (lane.wrapping_mul(2_654_435_761))
                ^ (round.wrapping_mul(40_503))
                ^ (j.wrapping_mul(9973));
            (h >> 3) as i16
        })
        .collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Per-lane activity windows `[from, to)` over `steps` rounds: lanes
/// join and leave mid-stream, so gang composition changes every round.
fn windows(width: usize, steps: usize, seed: u64) -> Vec<(usize, usize)> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    (0..width)
        .map(|_| {
            let from = rng.gen_range(0..steps);
            let to = rng.gen_range(from + 1..=steps);
            (from, to)
        })
        .collect()
}

proptest! {
    /// Every float gang member's reply stream is bit-identical to a
    /// runner stepped alone on the same inputs, whatever the gang around
    /// it looked like round by round.
    #[test]
    fn float_gang_members_match_solo_scalar_runs(
        n_cells in 1usize..=2,
        bs_sel in 0usize..2,
        head in 0usize..2,
        width in 2usize..=8,
        steps in 3usize..=6,
        seed in any::<u64>(),
    ) {
        let model = build_model(n_cells, bs_sel, head == 1, 12u8, seed);
        let seq = model.seq().expect("recurrent stacks stream");
        let f = seq.input_len();
        let sched = windows(width, steps, seed);

        let mut gang: Vec<SeqRunner> = (0..width).map(|_| seq.new_f32()).collect();
        let mut solo: Vec<SeqRunner> = (0..width).map(|_| seq.new_f32()).collect();
        for round in 0..steps {
            let active: Vec<usize> = (0..width)
                .filter(|&i| sched[i].0 <= round && round < sched[i].1)
                .collect();
            if active.is_empty() {
                continue;
            }
            let inputs: Vec<Vec<f32>> = active.iter().map(|&i| float_input(i, round, f)).collect();
            let xs: Vec<&[f32]> = inputs.iter().map(Vec::as_slice).collect();
            let mut members: Vec<&mut SeqRunner> = gang
                .iter_mut()
                .enumerate()
                .filter(|(i, _)| active.contains(i))
                .map(|(_, r)| r)
                .collect();
            let outs = SeqRunnerBatch::step(&mut members, &xs);
            for (k, &i) in active.iter().enumerate() {
                let want = solo[i].step(xs[k]);
                prop_assert_eq!(
                    bits(&outs[k]),
                    bits(&want),
                    "float lane {} diverged at round {}",
                    i,
                    round
                );
            }
        }
    }

    /// The fixed-point mirror of the property, additionally drawing the
    /// Q-format: gang-stepped words equal the scalar oracle's exactly.
    #[test]
    fn fx_gang_members_match_solo_scalar_runs(
        n_cells in 1usize..=2,
        bs_sel in 0usize..2,
        head in 0usize..2,
        frac_bits in 6u8..=14,
        width in 2usize..=8,
        steps in 3usize..=6,
        seed in any::<u64>(),
    ) {
        let model = build_model(n_cells, bs_sel, head == 1, frac_bits, seed);
        let seq = model.seq().expect("recurrent stacks stream");
        let f = seq.input_len();
        let sched = windows(width, steps, seed);

        let mut gang: Vec<FxSeqRunner> = (0..width)
            .map(|_| seq.new_fx().expect("fx streaming form"))
            .collect();
        let mut solo: Vec<FxSeqRunner> = (0..width)
            .map(|_| seq.new_fx().expect("fx streaming form"))
            .collect();
        for round in 0..steps {
            let active: Vec<usize> = (0..width)
                .filter(|&i| sched[i].0 <= round && round < sched[i].1)
                .collect();
            if active.is_empty() {
                continue;
            }
            let inputs: Vec<Vec<i16>> = active.iter().map(|&i| fx_input(i, round, f)).collect();
            let xs: Vec<&[i16]> = inputs.iter().map(Vec::as_slice).collect();
            let mut members: Vec<&mut FxSeqRunner> = gang
                .iter_mut()
                .enumerate()
                .filter(|(i, _)| active.contains(i))
                .map(|(_, r)| r)
                .collect();
            let outs = FxSeqRunnerBatch::step(&mut members, &xs);
            for (k, &i) in active.iter().enumerate() {
                let want = solo[i].step_scalar(xs[k]);
                prop_assert_eq!(
                    &outs[k],
                    &want,
                    "fx lane {} diverged at round {}",
                    i,
                    round
                );
            }
        }
    }
}
