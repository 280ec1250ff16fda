//! BCM-wise pruning: the paper's Algorithm 1 (§III-B).
//!
//! Whole circulant blocks are eliminated by ℓ₂-norm rank. The pruning ratio
//! α starts at `alpha_init` and grows by `alpha_step` after every
//! fine-tuning round that still meets the target accuracy β; the last
//! network that met β is returned (the "break-down point" marked by the
//! triangles in the paper's Figs. 9b/9c).
//!
//! The driver is generic over [`PrunableNetwork`], so the same loop runs
//! against the real training stack in the `nn` crate, against analytic toy
//! models in tests, and against the accounting-only models used for
//! Table I.

/// Pruning rounds attempted across all Algorithm 1 runs.
static ROUNDS: telemetry::Counter = telemetry::Counter::new("pruning.rounds");
/// Final accepted α of the most recent Algorithm 1 run.
static FINAL_ALPHA: telemetry::Gauge = telemetry::Gauge::new("pruning.final_alpha");
/// Final accuracy of the most recent Algorithm 1 run.
static FINAL_ACCURACY: telemetry::Gauge = telemetry::Gauge::new("pruning.final_accuracy");
/// Final block sparsity of the most recent Algorithm 1 run.
static FINAL_SPARSITY: telemetry::Gauge = telemetry::Gauge::new("pruning.final_sparsity");

/// A network that Algorithm 1 can prune.
///
/// The norm list indexing must be stable across calls: index `i` always
/// refers to the same BCM.
pub trait PrunableNetwork {
    /// Algorithm 1 lines 3–5: the ℓ₂ norm of every BCM's folded defining
    /// vector (`‖A ⊙ B‖₂`), in a fixed order.
    fn bcm_norms(&self) -> Vec<f64>;

    /// Algorithm 1 line 12: eliminates the BCMs at the given indices.
    /// Must be idempotent for already-pruned indices.
    fn eliminate(&mut self, indices: &[usize]);

    /// Algorithm 1 line 15: fine-tunes the pruned network and returns the
    /// resulting validation accuracy in `[0, 1]`.
    fn fine_tune(&mut self) -> f64;
}

/// Configuration of Algorithm 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BcmWisePruner {
    /// Initial pruning ratio α_init.
    pub alpha_init: f64,
    /// Per-round increment α_step.
    pub alpha_step: f64,
    /// Target accuracy β in `[0, 1]`; pruning continues while the
    /// fine-tuned accuracy stays ≥ β.
    pub target_accuracy: f64,
    /// Safety cap on rounds (the loop also terminates naturally once
    /// α ≥ 1).
    pub max_rounds: usize,
}

impl Default for BcmWisePruner {
    fn default() -> Self {
        BcmWisePruner {
            alpha_init: 0.1,
            alpha_step: 0.05,
            target_accuracy: 0.9,
            max_rounds: 64,
        }
    }
}

/// One fine-tuning round of Algorithm 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PruneStep {
    /// The ratio α attempted this round.
    pub alpha: f64,
    /// Number of BCMs eliminated (cumulative).
    pub pruned_count: usize,
    /// Fine-tuned accuracy after elimination.
    pub accuracy: f64,
    /// Whether the round met the target β.
    pub accepted: bool,
}

/// Why the loop stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PruneOutcome {
    /// A round fell below β; the previous accepted network is returned.
    AccuracyFloorHit,
    /// α reached 1.0 with accuracy still above β.
    FullyPruned,
    /// `max_rounds` exhausted.
    RoundLimit,
}

/// The result of running Algorithm 1.
#[derive(Debug, Clone, PartialEq)]
pub struct PruningReport {
    /// Every attempted round, in order.
    pub steps: Vec<PruneStep>,
    /// The largest α whose fine-tuned accuracy met β (`None` if even
    /// α_init failed).
    pub final_alpha: Option<f64>,
    /// Accuracy of the returned network.
    pub final_accuracy: f64,
    /// Number of BCMs pruned in the returned network.
    pub final_pruned_count: usize,
    /// Total BCM count.
    pub total_blocks: usize,
    /// Why the loop stopped.
    pub outcome: PruneOutcome,
}

impl PruningReport {
    /// Achieved block sparsity of the returned network.
    pub fn sparsity(&self) -> f64 {
        if self.total_blocks == 0 {
            0.0
        } else {
            self.final_pruned_count as f64 / self.total_blocks as f64
        }
    }
}

/// Indices of the `⌊α·n⌋` lowest-norm blocks (Algorithm 1 lines 8–14).
///
/// Ties break toward lower index, matching the "≤ V_threshold" sweep in
/// the pseudo-code. `alpha` is clamped to `[0, 1]`.
pub fn prune_indices(norms: &[f64], alpha: f64) -> Vec<usize> {
    let alpha = alpha.clamp(0.0, 1.0);
    let num_prune = ((norms.len() as f64) * alpha).floor() as usize;
    if num_prune == 0 {
        return Vec::new();
    }
    let mut order: Vec<usize> = (0..norms.len()).collect();
    order.sort_by(|&i, &j| {
        norms[i]
            .partial_cmp(&norms[j])
            .expect("norms are finite")
            .then(i.cmp(&j))
    });
    let mut chosen: Vec<usize> = order.into_iter().take(num_prune).collect();
    chosen.sort_unstable();
    chosen
}

/// The norm threshold `V_threshold` corresponding to ratio `alpha`
/// (Algorithm 1 line 9): the largest norm among the pruned set, or `0`
/// when nothing is pruned.
pub fn prune_threshold(norms: &[f64], alpha: f64) -> f64 {
    let idx = prune_indices(norms, alpha);
    idx.iter().map(|&i| norms[i]).fold(0.0, f64::max)
}

impl BcmWisePruner {
    /// Runs Algorithm 1, consuming and returning the network.
    ///
    /// The network is cloned before each elimination round so the last
    /// configuration that met β can be returned verbatim when a later
    /// round breaks down.
    ///
    /// # Panics
    ///
    /// Panics if `alpha_step <= 0`, `alpha_init < 0`, or the network
    /// reports zero blocks.
    pub fn run<M: PrunableNetwork + Clone>(&self, network: M) -> (M, PruningReport) {
        assert!(self.alpha_step > 0.0, "alpha_step must be positive");
        assert!(self.alpha_init >= 0.0, "alpha_init must be non-negative");
        let norms = network.bcm_norms();
        assert!(!norms.is_empty(), "network reports zero BCM blocks");
        let total = norms.len();

        let mut best = network.clone();
        let mut best_alpha = None;
        let mut best_acc = 0.0;
        let mut best_pruned = 0usize;
        let mut steps = Vec::new();
        let mut alpha = self.alpha_init;
        let mut outcome = PruneOutcome::RoundLimit;

        for round in 0..self.max_rounds {
            // The paper's fixed ranking: always prune the original network
            // by the pre-trained norms (lines 3–5 sit outside the loop).
            let mut candidate = network.clone();
            let indices = prune_indices(&norms, alpha);
            candidate.eliminate(&indices);
            let acc = candidate.fine_tune();
            let accepted = acc >= self.target_accuracy;
            ROUNDS.inc();
            if telemetry::enabled() {
                // One gauge quartet per round — the full Algorithm 1
                // trajectory (α schedule, accuracy, cumulative pruned
                // blocks, accept/reject) lands in the telemetry report.
                telemetry::record_gauge(&format!("pruning.round.{round:03}.alpha"), alpha);
                telemetry::record_gauge(&format!("pruning.round.{round:03}.accuracy"), acc);
                telemetry::record_gauge(
                    &format!("pruning.round.{round:03}.pruned_count"),
                    indices.len() as f64,
                );
                telemetry::record_gauge(
                    &format!("pruning.round.{round:03}.accepted"),
                    if accepted { 1.0 } else { 0.0 },
                );
            }
            steps.push(PruneStep {
                alpha,
                pruned_count: indices.len(),
                accuracy: acc,
                accepted,
            });
            if accepted {
                best = candidate;
                best_alpha = Some(alpha);
                best_acc = acc;
                best_pruned = indices.len();
            } else {
                outcome = PruneOutcome::AccuracyFloorHit;
                break;
            }
            if alpha >= 1.0 {
                outcome = PruneOutcome::FullyPruned;
                break;
            }
            alpha = (alpha + self.alpha_step).min(1.0);
        }

        let report = PruningReport {
            steps,
            final_alpha: best_alpha,
            final_accuracy: best_acc,
            final_pruned_count: best_pruned,
            total_blocks: total,
            outcome,
        };
        FINAL_ALPHA.set(best_alpha.unwrap_or(0.0));
        FINAL_ACCURACY.set(best_acc);
        FINAL_SPARSITY.set(report.sparsity());
        (best, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An analytic stand-in: accuracy degrades linearly with the summed
    /// norm mass removed.
    #[derive(Debug, Clone)]
    struct ToyNet {
        norms: Vec<f64>,
        removed_mass: f64,
        total_mass: f64,
        pruned: Vec<bool>,
    }

    impl ToyNet {
        fn new(norms: Vec<f64>) -> Self {
            let total_mass = norms.iter().sum();
            let n = norms.len();
            ToyNet {
                norms,
                removed_mass: 0.0,
                total_mass,
                pruned: vec![false; n],
            }
        }
    }

    impl PrunableNetwork for ToyNet {
        fn bcm_norms(&self) -> Vec<f64> {
            self.norms.clone()
        }
        fn eliminate(&mut self, indices: &[usize]) {
            for &i in indices {
                if !self.pruned[i] {
                    self.pruned[i] = true;
                    self.removed_mass += self.norms[i];
                }
            }
        }
        fn fine_tune(&mut self) -> f64 {
            1.0 - self.removed_mass / self.total_mass
        }
    }

    #[test]
    fn prune_indices_selects_lowest_norms() {
        let norms = [5.0, 1.0, 3.0, 0.5, 4.0];
        assert_eq!(prune_indices(&norms, 0.4), vec![1, 3]);
        assert_eq!(prune_indices(&norms, 0.0), Vec::<usize>::new());
        assert_eq!(prune_indices(&norms, 1.0), vec![0, 1, 2, 3, 4]);
        // clamped
        assert_eq!(prune_indices(&norms, 2.0).len(), 5);
    }

    #[test]
    fn prune_indices_tie_break_is_stable() {
        let norms = [1.0, 1.0, 1.0, 1.0];
        assert_eq!(prune_indices(&norms, 0.5), vec![0, 1]);
    }

    #[test]
    fn threshold_matches_largest_pruned_norm() {
        let norms = [5.0, 1.0, 3.0, 0.5, 4.0];
        assert_eq!(prune_threshold(&norms, 0.4), 1.0);
        assert_eq!(prune_threshold(&norms, 0.0), 0.0);
    }

    #[test]
    fn algorithm1_stops_at_accuracy_floor() {
        // Norm mass concentrated in a few blocks: pruning low-norm blocks
        // is nearly free, pruning heavy ones collapses accuracy.
        let mut norms = vec![0.01; 80];
        norms.extend(vec![10.0; 20]);
        let net = ToyNet::new(norms);
        let pruner = BcmWisePruner {
            alpha_init: 0.5,
            alpha_step: 0.1,
            target_accuracy: 0.95,
            max_rounds: 32,
        };
        let (best, report) = pruner.run(net);
        assert_eq!(report.outcome, PruneOutcome::AccuracyFloorHit);
        // 80 % of blocks are ~free to prune; 0.8 accepted, 0.9 rejected.
        let fa = report.final_alpha.expect("α_init meets β");
        assert!((fa - 0.8).abs() < 1e-9, "final α = {fa}");
        assert!(report.final_accuracy >= 0.95);
        assert_eq!(
            best.pruned.iter().filter(|&&p| p).count(),
            report.final_pruned_count
        );
        assert_eq!(report.final_pruned_count, 80);
        assert!((report.sparsity() - 0.8).abs() < 1e-9);
        // Steps are monotone in alpha and the last one is rejected.
        for w in report.steps.windows(2) {
            assert!(w[1].alpha > w[0].alpha);
        }
        assert!(!report.steps.last().expect("at least one step").accepted);
    }

    #[test]
    fn algorithm1_returns_none_when_alpha_init_fails() {
        let net = ToyNet::new(vec![1.0; 10]);
        let pruner = BcmWisePruner {
            alpha_init: 0.5,
            alpha_step: 0.1,
            target_accuracy: 0.99,
            max_rounds: 8,
        };
        let (_, report) = pruner.run(net);
        assert_eq!(report.final_alpha, None);
        assert_eq!(report.final_pruned_count, 0);
        assert_eq!(report.outcome, PruneOutcome::AccuracyFloorHit);
        assert_eq!(report.steps.len(), 1);
    }

    #[test]
    fn algorithm1_can_fully_prune_trivial_target() {
        let net = ToyNet::new(vec![1.0; 10]);
        let pruner = BcmWisePruner {
            alpha_init: 0.8,
            alpha_step: 0.2,
            target_accuracy: 0.0,
            max_rounds: 8,
        };
        let (_, report) = pruner.run(net);
        assert_eq!(report.outcome, PruneOutcome::FullyPruned);
        assert_eq!(report.final_alpha, Some(1.0));
    }

    #[test]
    fn round_limit_respected() {
        let net = ToyNet::new(vec![1.0; 100]);
        let pruner = BcmWisePruner {
            alpha_init: 0.0,
            alpha_step: 1e-6,
            target_accuracy: 0.5,
            max_rounds: 3,
        };
        let (_, report) = pruner.run(net);
        assert_eq!(report.steps.len(), 3);
        assert_eq!(report.outcome, PruneOutcome::RoundLimit);
    }

    #[test]
    #[should_panic(expected = "alpha_step")]
    fn rejects_non_positive_step() {
        let net = ToyNet::new(vec![1.0]);
        BcmWisePruner {
            alpha_step: 0.0,
            ..BcmWisePruner::default()
        }
        .run(net);
    }
}
