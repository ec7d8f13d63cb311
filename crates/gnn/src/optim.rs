//! Optimizers over [`SageModel`] parameters: plain SGD with momentum and
//! Adam, both operating on the gradient structures produced by
//! [`SageModel::backward`](crate::model::SageModel::backward).

use crate::model::{SageLayerGrads, SageModel};
use crate::tensor::Matrix;

/// A parameter optimizer for GraphSAGE models.
pub trait Optimizer {
    /// Applies one update step from `grads`.
    ///
    /// # Panics
    /// Panics if `grads` does not match the model's layer shapes.
    fn step(&mut self, model: &mut SageModel, grads: &[SageLayerGrads]);
}

/// SGD with optional momentum.
#[derive(Debug)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    velocity: Option<Vec<SageLayerGrads>>,
}

impl Sgd {
    /// Plain SGD with learning rate `lr`.
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            momentum: 0.0,
            velocity: None,
        }
    }

    /// SGD with momentum `beta` (0.9 is typical).
    pub fn with_momentum(lr: f32, beta: f32) -> Self {
        Self {
            lr,
            momentum: beta,
            velocity: None,
        }
    }
}

fn zeros_like(model: &SageModel) -> Vec<SageLayerGrads> {
    model
        .layers()
        .iter()
        .map(|l| SageLayerGrads {
            w_self: Matrix::zeros(l.w_self.rows(), l.w_self.cols()),
            w_neigh: Matrix::zeros(l.w_neigh.rows(), l.w_neigh.cols()),
            bias: vec![0.0; l.bias.len()],
        })
        .collect()
}

impl Optimizer for Sgd {
    fn step(&mut self, model: &mut SageModel, grads: &[SageLayerGrads]) {
        if self.momentum == 0.0 {
            model.sgd_step(grads, self.lr);
            return;
        }
        let velocity = self.velocity.get_or_insert_with(|| zeros_like(model));
        assert_eq!(velocity.len(), grads.len(), "gradient shape mismatch");
        for (v, g) in velocity.iter_mut().zip(grads) {
            // v = beta * v + g
            let scale = self.momentum;
            for (vv, &gg) in v.w_self.as_mut_slice().iter_mut().zip(g.w_self.as_slice()) {
                *vv = scale * *vv + gg;
            }
            for (vv, &gg) in v
                .w_neigh
                .as_mut_slice()
                .iter_mut()
                .zip(g.w_neigh.as_slice())
            {
                *vv = scale * *vv + gg;
            }
            for (vv, &gg) in v.bias.iter_mut().zip(&g.bias) {
                *vv = scale * *vv + gg;
            }
        }
        let v = self.velocity.as_ref().expect("initialized above");
        model.sgd_step(v, self.lr);
    }
}

/// Adam (Kingma & Ba) with the standard defaults.
#[derive(Debug)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: i32,
    m: Option<Vec<SageLayerGrads>>,
    v: Option<Vec<SageLayerGrads>>,
}

impl Adam {
    /// Adam with learning rate `lr` and defaults β₁=0.9, β₂=0.999, ε=1e-8.
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: None,
            v: None,
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, model: &mut SageModel, grads: &[SageLayerGrads]) {
        self.t += 1;
        let m = self.m.get_or_insert_with(|| zeros_like(model));
        let v = self.v.get_or_insert_with(|| zeros_like(model));
        assert_eq!(m.len(), grads.len(), "gradient shape mismatch");
        let (b1, b2) = (self.beta1, self.beta2);
        let bias1 = 1.0 - b1.powi(self.t);
        let bias2 = 1.0 - b2.powi(self.t);
        let lr = self.lr;
        let eps = self.eps;

        let mut update = zeros_like(model);
        for i in 0..grads.len() {
            let update_slice =
                |mv: &mut [f32], vv: &mut [f32], gg: &[f32], out: &mut [f32]| {
                    for j in 0..gg.len() {
                        mv[j] = b1 * mv[j] + (1.0 - b1) * gg[j];
                        vv[j] = b2 * vv[j] + (1.0 - b2) * gg[j] * gg[j];
                        let mhat = mv[j] / bias1;
                        let vhat = vv[j] / bias2;
                        // Effective "gradient" consumed by sgd_step(lr=1):
                        out[j] = lr * mhat / (vhat.sqrt() + eps);
                    }
                };
            update_slice(
                m[i].w_self.as_mut_slice(),
                v[i].w_self.as_mut_slice(),
                grads[i].w_self.as_slice(),
                update[i].w_self.as_mut_slice(),
            );
            update_slice(
                m[i].w_neigh.as_mut_slice(),
                v[i].w_neigh.as_mut_slice(),
                grads[i].w_neigh.as_slice(),
                update[i].w_neigh.as_mut_slice(),
            );
            update_slice(
                &mut m[i].bias,
                &mut v[i].bias,
                &grads[i].bias,
                &mut update[i].bias,
            );
        }
        model.sgd_step(&update, 1.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::SyntheticFeatures;
    use crate::tensor::softmax_cross_entropy;
    use ringsampler::block::LayerSample;
    use ringsampler::BatchSample;

    fn batch() -> BatchSample {
        BatchSample {
            layers: vec![
                LayerSample {
                    fanout: 2,
                    targets: vec![1, 2],
                    src_pos: vec![0, 0, 1],
                    dst: vec![3, 4, 5],
                },
                LayerSample {
                    fanout: 2,
                    targets: vec![3, 4, 5],
                    src_pos: vec![0, 1, 2],
                    dst: vec![6, 7, 8],
                },
            ],
        }
    }

    fn train_with<O: Optimizer>(mut opt: O, steps: usize) -> Vec<f32> {
        let feats = SyntheticFeatures::new(6, 3, 0.2, 1);
        let mut model = SageModel::new(6, &[8], 3, 2, 5);
        let b = batch();
        let labels = vec![feats.label(1), feats.label(2)];
        let mut losses = Vec::new();
        for _ in 0..steps {
            let (logits, cache) = model.forward(&b, &feats).unwrap();
            let (loss, dl) = softmax_cross_entropy(&logits, &labels);
            losses.push(loss);
            let grads = model.backward(&cache, &dl);
            opt.step(&mut model, &grads);
        }
        losses
    }

    #[test]
    fn sgd_reduces_loss() {
        let losses = train_with(Sgd::new(0.5), 40);
        assert!(losses.last().unwrap() < &(losses[0] * 0.6), "{losses:?}");
    }

    #[test]
    fn momentum_reduces_loss() {
        let losses = train_with(Sgd::with_momentum(0.2, 0.9), 40);
        assert!(losses.last().unwrap() < &(losses[0] * 0.6), "{losses:?}");
    }

    #[test]
    fn adam_reduces_loss() {
        let losses = train_with(Adam::new(0.05), 40);
        assert!(losses.last().unwrap() < &(losses[0] * 0.6), "{losses:?}");
    }

    #[test]
    fn adam_converges_at_least_as_low_as_plain_sgd_eventually() {
        let sgd = train_with(Sgd::new(0.1), 60);
        let adam = train_with(Adam::new(0.05), 60);
        // Not a strict dominance claim — just that Adam is in the same
        // ballpark (catches sign errors in the moment estimates).
        assert!(adam.last().unwrap() < &(sgd[0]), "{adam:?}");
    }
}
