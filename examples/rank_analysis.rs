//! The rank-condition story of the paper's §II-B1 and §III-A, in
//! miniature: why circulant training collapses singular spectra, and how
//! the Hadamard product of two circulant blocks repairs them.
//!
//! Run with: `cargo run --example rank_analysis`

use rand::rngs::StdRng;
use rand::SeedableRng;
use rpbcm_repro::circulant::rank::{hadamard_spectrum_support_bound, DecayFit};
use rpbcm_repro::circulant::CirculantMatrix;
use rpbcm_repro::tensor::svd::{normalized_spectrum, singular_values, PoorRankCriterion};
use rpbcm_repro::tensor::{init, Tensor};

fn show(label: &str, sv: &[f64]) {
    let norm = normalized_spectrum(sv);
    let fit = DecayFit::of_spectrum(sv);
    let poor = PoorRankCriterion::paper().is_poor_spectrum(sv);
    let head: Vec<String> = norm.iter().take(8).map(|v| format!("{v:.3}")).collect();
    println!(
        "{label:<22} σ/σ₀ = [{}...]  log-slope = {:+.3}  poor-rank = {poor}",
        head.join(", "),
        fit.log_slope
    );
}

fn main() {
    let n = 16;
    let mut rng = StdRng::seed_from_u64(1);

    // Reference: a Gaussian random matrix decays almost linearly.
    let g: Tensor<f64> = init::gaussian(&mut rng, &[n, n], 0.0, 1.0);
    show("gaussian 16x16", &singular_values(&g));

    // A random circulant block is also healthy...
    let healthy = CirculantMatrix::new(init::gaussian::<f64>(&mut rng, &[n], 0.0, 1.0).into_vec());
    show("random circulant", &healthy.singular_values());

    // ...but a *trained-to-smoothness* circulant block collapses: smooth
    // defining vectors have energy in a handful of DFT bins, which IS the
    // rank of the block.
    let smooth = CirculantMatrix::new(
        (0..n)
            .map(|t| 1.0 + 0.05 * (std::f64::consts::TAU * t as f64 / n as f64).cos())
            .collect(),
    );
    show("smooth circulant", &smooth.singular_values());
    println!(
        "  rank(smooth) = {} of {n} (spectrum support)",
        smooth.rank(1e-9)
    );

    // hadaBCM: the Hadamard product of two such blocks convolves their
    // spectra, widening the support — rank(A⊙B) ≤ rank(A)·rank(B).
    let smooth2 = CirculantMatrix::new(
        (0..n)
            .map(|t| 1.0 + 0.05 * (std::f64::consts::TAU * 3.0 * t as f64 / n as f64).sin())
            .collect(),
    );
    let folded = smooth.hadamard(&smooth2);
    show("hadaBCM of two smooth", &folded.singular_values());
    println!(
        "  rank(A) = {}, rank(B) = {}, rank(A⊙B) = {} ≤ bound {}",
        smooth.rank(1e-9),
        smooth2.rank(1e-9),
        folded.rank(1e-9),
        hadamard_spectrum_support_bound(n, smooth.rank(1e-9), smooth2.rank(1e-9))
    );

    // And the Eq. (1) gradient coupling that balances the factor ranks:
    // ∂L/∂A = ∂L/∂W ⊙ B and ∂L/∂B = ∂L/∂W ⊙ A, here for ∂L/∂W = 1.
    let grad_w = vec![1.0; n];
    let ga: Vec<f64> = grad_w
        .iter()
        .zip(smooth2.defining_vector())
        .map(|(g, b)| g * b)
        .collect();
    let gb: Vec<f64> = grad_w
        .iter()
        .zip(smooth.defining_vector())
        .map(|(g, a)| g * a)
        .collect();
    println!(
        "\nEq. (1) coupling: ∂L/∂A is B-weighted (‖gA‖ = {:.3}), ∂L/∂B is A-weighted (‖gB‖ = {:.3})",
        ga.iter().map(|v| v * v).sum::<f64>().sqrt(),
        gb.iter().map(|v| v * v).sum::<f64>().sqrt()
    );
}
