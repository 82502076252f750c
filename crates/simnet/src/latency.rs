//! Pluggable latency and loss models for the simulated network.

use crate::rng::SimRng;
use crate::time::SimDuration;
use crate::NodeId;

/// Computes the one-way delay of a message between two nodes.
///
/// Implementations must be deterministic given the `rng` stream.
pub trait LatencyModel: std::fmt::Debug + Send {
    /// Delay applied to a message from `from` to `to`.
    fn delay(&self, from: NodeId, to: NodeId, rng: &mut SimRng) -> SimDuration;
}

/// Decides whether a message is dropped in transit.
pub trait LossModel: std::fmt::Debug + Send {
    /// Returns `true` if the message is lost.
    fn is_lost(&self, from: NodeId, to: NodeId, rng: &mut SimRng) -> bool;
}

/// Constant delay for every pair — the simplest, fully predictable model.
#[derive(Debug, Clone, Copy)]
pub struct ConstantLatency(pub SimDuration);

impl LatencyModel for ConstantLatency {
    fn delay(&self, _from: NodeId, _to: NodeId, _rng: &mut SimRng) -> SimDuration {
        self.0
    }
}

/// Log-normal-ish WAN latency: a base plus an exponential tail, the classic
/// shape of internet RTT distributions. Keeps everything integer-safe.
#[derive(Debug, Clone, Copy)]
pub struct WanLatency {
    /// Minimum (propagation) delay.
    pub base: SimDuration,
    /// Mean of the additional exponential component.
    pub tail_mean: SimDuration,
}

impl LatencyModel for WanLatency {
    fn delay(&self, _from: NodeId, _to: NodeId, rng: &mut SimRng) -> SimDuration {
        let tail_mean_s = self.tail_mean.as_secs_f64();
        let extra = if tail_mean_s > 0.0 {
            SimDuration::from_secs_f64(rng.gen_exp(1.0 / tail_mean_s))
        } else {
            SimDuration::ZERO
        };
        self.base + extra
    }
}

/// No losses.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoLoss;

impl LossModel for NoLoss {
    fn is_lost(&self, _from: NodeId, _to: NodeId, _rng: &mut SimRng) -> bool {
        false
    }
}

/// Independent per-message loss with fixed probability.
#[derive(Debug, Clone, Copy)]
pub struct BernoulliLoss(pub f64);

impl BernoulliLoss {
    /// Creates the model.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn new(p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "loss probability must be in [0,1]"
        );
        BernoulliLoss(p)
    }
}

impl LossModel for BernoulliLoss {
    fn is_lost(&self, _from: NodeId, _to: NodeId, rng: &mut SimRng) -> bool {
        rng.gen_bool(self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_latency_is_constant() {
        let m = ConstantLatency(SimDuration::from_millis(10));
        let mut rng = SimRng::seed_from_u64(0);
        for _ in 0..10 {
            assert_eq!(
                m.delay(NodeId(0), NodeId(1), &mut rng),
                SimDuration::from_millis(10)
            );
        }
    }

    #[test]
    fn wan_latency_exceeds_base() {
        let m = WanLatency {
            base: SimDuration::from_millis(20),
            tail_mean: SimDuration::from_millis(10),
        };
        let mut rng = SimRng::seed_from_u64(2);
        let mut total = 0.0;
        for _ in 0..2000 {
            let d = m.delay(NodeId(0), NodeId(1), &mut rng);
            assert!(d >= SimDuration::from_millis(20));
            total += d.as_secs_f64();
        }
        let mean = total / 2000.0;
        assert!((mean - 0.030).abs() < 0.003, "mean {mean} should be ≈ 30ms");
    }

    #[test]
    fn bernoulli_loss_rate_matches() {
        let m = BernoulliLoss::new(0.25);
        let mut rng = SimRng::seed_from_u64(3);
        let lost = (0..10_000)
            .filter(|_| m.is_lost(NodeId(0), NodeId(1), &mut rng))
            .count();
        let rate = lost as f64 / 10_000.0;
        assert!((rate - 0.25).abs() < 0.02, "observed loss rate {rate}");
    }

    #[test]
    fn no_loss_never_drops() {
        let mut rng = SimRng::seed_from_u64(4);
        assert!(!NoLoss.is_lost(NodeId(0), NodeId(1), &mut rng));
    }

    #[test]
    #[should_panic(expected = "loss probability")]
    fn bernoulli_rejects_out_of_range() {
        let _ = BernoulliLoss::new(1.5);
    }
}
