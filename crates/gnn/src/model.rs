//! GraphSAGE model: mean-aggregator layers with full forward/backward over
//! sampled [`BatchSample`] blocks.
//!
//! Layer rule (a GraphSAGE variant with a raw-feature self term):
//!
//! ```text
//! h_l(v) = act( W_self · x_v + W_neigh · mean_{u ∈ N_sampled(v)} h_{l+1}(u) + b )
//! ```
//!
//! where `x_v` is v's raw feature vector and `h_L = raw features` at the
//! innermost frontier. Using the raw feature for the self term (instead of
//! the recursive `h_{l+1}(v)`) matches the paper's sampling output exactly:
//! RingSampler's inter-layer dedup keeps only *sampled* nodes as next-layer
//! targets (Fig. 1b), so deep self representations of seed nodes are never
//! sampled. The variant is standard (a skip connection to input features)
//! and keeps the model/backprop exact w.r.t. the sampled block.

use ringsampler::BatchSample;
use ringsampler_graph::NodeId;

use crate::features::FeatureStore;
use crate::tensor::Matrix;

/// One SAGE layer's parameters.
#[derive(Debug, Clone)]
pub struct SageLayer {
    /// `out × feat_dim` projection of the raw self features.
    pub w_self: Matrix,
    /// `out × in_neigh` projection of the aggregated neighbor features.
    pub w_neigh: Matrix,
    /// Output bias (length `out`).
    pub bias: Vec<f32>,
}

/// Gradients matching [`SageLayer`].
#[derive(Debug, Clone)]
pub struct SageLayerGrads {
    /// Gradient of `w_self`.
    pub w_self: Matrix,
    /// Gradient of `w_neigh`.
    pub w_neigh: Matrix,
    /// Gradient of `bias`.
    pub bias: Vec<f32>,
}

/// A multi-layer GraphSAGE model.
///
/// Layer 0 is the outermost (produces seed logits); the layer count must
/// equal the sampler's fanout count.
#[derive(Debug, Clone)]
pub struct SageModel {
    layers: Vec<SageLayer>,
    feat_dim: usize,
    /// Output dims per layer, outermost first; `dims[0]` = classes.
    dims: Vec<usize>,
}

/// Cached activations needed by [`SageModel::backward`].
#[derive(Debug)]
pub struct ForwardCache {
    /// Per layer: raw self features of the layer's targets.
    x_self: Vec<Matrix>,
    /// Per layer: mean-aggregated neighbor inputs.
    x_neigh: Vec<Matrix>,
    /// Per layer: pre-activation outputs.
    z: Vec<Matrix>,
    /// Per layer: for each edge, (target row, row of dst in next frontier).
    edges: Vec<Vec<(u32, u32)>>,
    /// Per layer: per-target sampled-neighbor counts.
    counts: Vec<Vec<u32>>,
}

impl SageModel {
    /// Builds a model: `feat_dim` input features, `hidden` dims for the
    /// inner layers (innermost first ordering not required — see below),
    /// and `classes` outputs.
    ///
    /// With `num_layers` layers, layer dims are
    /// `[classes, hidden[0], hidden[1], ...]` outermost-first; `hidden`
    /// must have `num_layers - 1` entries.
    ///
    /// # Panics
    /// Panics if `hidden.len() + 1 != num_layers` or any dim is zero.
    pub fn new(feat_dim: usize, hidden: &[usize], classes: usize, num_layers: usize, seed: u64) -> Self {
        assert_eq!(hidden.len() + 1, num_layers, "need one hidden dim per inner layer");
        assert!(feat_dim > 0 && classes > 0, "zero dims");
        assert!(hidden.iter().all(|&h| h > 0), "zero hidden dim");
        let mut dims = Vec::with_capacity(num_layers);
        dims.push(classes);
        dims.extend_from_slice(hidden);
        // Layer l: neigh input = output of layer l+1 (or feat_dim at the
        // innermost layer).
        let layers = (0..num_layers)
            .map(|l| {
                let out = dims[l];
                let in_neigh = if l + 1 < num_layers { dims[l + 1] } else { feat_dim };
                SageLayer {
                    w_self: Matrix::xavier(out, feat_dim, seed ^ (l as u64 * 2 + 1)),
                    w_neigh: Matrix::xavier(out, in_neigh, seed ^ (l as u64 * 2 + 2)),
                    bias: vec![0.0; out],
                }
            })
            .collect();
        Self {
            layers,
            feat_dim,
            dims,
        }
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Number of output classes.
    pub fn classes(&self) -> usize {
        self.dims[0]
    }

    /// Immutable access to layer parameters.
    pub fn layers(&self) -> &[SageLayer] {
        &self.layers
    }

    /// Mutable access to layer parameters (for tests / custom optimizers).
    pub fn layers_mut(&mut self) -> &mut [SageLayer] {
        &mut self.layers
    }

    /// Forward pass over one sampled batch. Returns seed logits
    /// (`seeds × classes`) and the cache for [`SageModel::backward`].
    ///
    /// # Errors
    /// Propagates the feature store's read errors.
    ///
    /// # Panics
    /// Panics if the batch's layer count differs from the model's or the
    /// feature store dimensionality mismatches.
    pub fn forward<F: FeatureStore + ?Sized>(
        &self,
        batch: &BatchSample,
        features: &F,
    ) -> std::io::Result<(Matrix, ForwardCache)> {
        assert_eq!(batch.layers.len(), self.layers.len(), "layer count mismatch");
        assert_eq!(features.dim(), self.feat_dim, "feature dim mismatch");
        let l_count = self.layers.len();

        // Frontier of layer l+1 = unique sampled neighbors of layer l.
        let frontiers: Vec<Vec<NodeId>> = batch
            .layers
            .iter()
            .map(|l| l.unique_neighbors())
            .collect();

        // h[l] = representations of frontier l's nodes at depth l+1;
        // start innermost: raw features.
        let mut h_next: Matrix = features.gather(&frontiers[l_count - 1])?;

        let mut cache = ForwardCache {
            x_self: vec![Matrix::default(); l_count],
            x_neigh: vec![Matrix::default(); l_count],
            z: vec![Matrix::default(); l_count],
            edges: vec![Vec::new(); l_count],
            counts: vec![Vec::new(); l_count],
        };

        let mut logits = Matrix::default();
        for l in (0..l_count).rev() {
            let block = &batch.layers[l];
            let frontier = &frontiers[l];
            let n = block.targets.len();

            // Edge list with dst resolved to rows of the next frontier.
            let mut edges = Vec::with_capacity(block.dst.len());
            let mut counts = vec![0u32; n];
            for (&sp, &d) in block.src_pos.iter().zip(&block.dst) {
                let row = frontier.binary_search(&d).expect("dst in frontier") as u32;
                edges.push((sp, row));
                counts[sp as usize] += 1;
            }

            // Mean aggregation of h_{l+1} over sampled neighbors.
            let in_neigh = h_next.cols();
            let mut x_neigh = Matrix::zeros(n, in_neigh);
            for &(sp, row) in &edges {
                let src = x_neigh.row_mut(sp as usize);
                for (a, &b) in src.iter_mut().zip(h_next.row(row as usize)) {
                    *a += b;
                }
            }
            for (i, &k) in counts.iter().enumerate() {
                if k > 1 {
                    for v in x_neigh.row_mut(i) {
                        *v /= k as f32;
                    }
                }
            }

            let x_self = features.gather(&block.targets)?;
            let mut z = x_self.matmul_transposed(&self.layers[l].w_self);
            z.add_scaled(&x_neigh.matmul_transposed(&self.layers[l].w_neigh), 1.0);
            z.add_row_bias(&self.layers[l].bias);

            let out = if l == 0 {
                z.clone() // logits: no activation
            } else {
                let mut a = z.clone();
                a.relu_inplace();
                a
            };

            cache.x_self[l] = x_self;
            cache.x_neigh[l] = x_neigh;
            cache.z[l] = z;
            cache.edges[l] = edges;
            cache.counts[l] = counts;

            if l == 0 {
                logits = out;
            } else {
                h_next = out;
            }
        }
        Ok((logits, cache))
    }

    /// Backward pass: gradient of the loss w.r.t. all parameters, given
    /// `dlogits` (gradient at the seed logits).
    ///
    /// # Panics
    /// Panics if `cache` does not match this model/batch.
    pub fn backward(&self, cache: &ForwardCache, dlogits: &Matrix) -> Vec<SageLayerGrads> {
        let l_count = self.layers.len();
        let mut grads: Vec<SageLayerGrads> = self
            .layers
            .iter()
            .map(|l| SageLayerGrads {
                w_self: Matrix::zeros(l.w_self.rows(), l.w_self.cols()),
                w_neigh: Matrix::zeros(l.w_neigh.rows(), l.w_neigh.cols()),
                bias: vec![0.0; l.bias.len()],
            })
            .collect();

        let mut dz = dlogits.clone(); // layer 0 has no activation
        for (l, grad) in grads.iter_mut().enumerate() {
            // Parameter gradients.
            grad.w_self = dz.transposed_matmul(&cache.x_self[l]);
            grad.w_neigh = dz.transposed_matmul(&cache.x_neigh[l]);
            grad.bias = dz.column_sums();

            if l + 1 == l_count {
                break;
            }
            // Gradient into the aggregated neighbor inputs.
            let dx_neigh = dz.matmul(&self.layers[l].w_neigh);
            // Distribute over sampled neighbors (mean → 1/k each), landing
            // on h_{l+1} rows (= layer l+1 outputs).
            let next_rows = cache.x_self[l + 1].rows();
            let mut dh_next = Matrix::zeros(next_rows, dx_neigh.cols());
            for &(sp, row) in &cache.edges[l] {
                let k = cache.counts[l][sp as usize].max(1) as f32;
                let src = dx_neigh.row(sp as usize);
                let dst = dh_next.row_mut(row as usize);
                for (d, &s) in dst.iter_mut().zip(src) {
                    *d += s / k;
                }
            }
            // Through the next layer's ReLU.
            let znext = &cache.z[l + 1];
            for r in 0..dh_next.rows() {
                let zr = znext.row(r);
                for (c, v) in dh_next.row_mut(r).iter_mut().enumerate() {
                    if zr[c] <= 0.0 {
                        *v = 0.0;
                    }
                }
            }
            dz = dh_next;
        }
        grads
    }

    /// Plain SGD update: `θ ← θ − lr · ∇θ`.
    ///
    /// # Panics
    /// Panics on gradient/parameter shape mismatch.
    pub fn sgd_step(&mut self, grads: &[SageLayerGrads], lr: f32) {
        assert_eq!(grads.len(), self.layers.len(), "gradient count mismatch");
        for (layer, g) in self.layers.iter_mut().zip(grads) {
            layer.w_self.add_scaled(&g.w_self, -lr);
            layer.w_neigh.add_scaled(&g.w_neigh, -lr);
            for (b, &db) in layer.bias.iter_mut().zip(&g.bias) {
                *b -= lr * db;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::SyntheticFeatures;
    use crate::tensor::softmax_cross_entropy;
    use ringsampler::block::LayerSample;

    /// A hand-built 2-layer batch mirroring paper Fig. 1.
    fn fig1_batch() -> BatchSample {
        BatchSample {
            layers: vec![
                LayerSample {
                    fanout: 3,
                    targets: vec![1],
                    src_pos: vec![0, 0, 0],
                    dst: vec![2, 3, 6],
                },
                LayerSample {
                    fanout: 2,
                    targets: vec![2, 3, 6],
                    src_pos: vec![0, 0, 1, 2, 2],
                    dst: vec![10, 14, 12, 5, 10],
                },
            ],
        }
    }

    #[test]
    fn forward_shapes() {
        let feats = SyntheticFeatures::new(6, 3, 0.05, 1);
        let model = SageModel::new(6, &[5], 3, 2, 42);
        let (logits, cache) = model.forward(&fig1_batch(), &feats).unwrap();
        assert_eq!(logits.rows(), 1);
        assert_eq!(logits.cols(), 3);
        assert_eq!(cache.z[1].rows(), 3); // layer-1 targets {2,3,6}
        assert_eq!(cache.z[1].cols(), 5);
    }

    #[test]
    fn forward_deterministic() {
        let feats = SyntheticFeatures::new(6, 3, 0.05, 1);
        let model = SageModel::new(6, &[4], 3, 2, 9);
        let (a, _) = model.forward(&fig1_batch(), &feats).unwrap();
        let (b, _) = model.forward(&fig1_batch(), &feats).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn gradient_check_numeric() {
        let feats = SyntheticFeatures::new(5, 2, 0.2, 3);
        let mut model = SageModel::new(5, &[4], 2, 2, 7);
        let batch = fig1_batch();
        let labels = vec![feats.label(1)];

        let loss_fn = |m: &SageModel| -> f32 {
            let (logits, _) = m.forward(&batch, &feats).unwrap();
            softmax_cross_entropy(&logits, &labels).0
        };

        let (logits, cache) = model.forward(&batch, &feats).unwrap();
        let (_, dlogits) = softmax_cross_entropy(&logits, &labels);
        let grads = model.backward(&cache, &dlogits);

        let eps = 3e-3;
        // Check a selection of parameters across both layers and all
        // parameter kinds. `l` indexes both `model` (borrowed mutably in
        // the loop body) and `grads`, so a range loop is the clear form.
        #[allow(clippy::needless_range_loop)]
        for l in 0..2 {
            for (pick_r, pick_c) in [(0usize, 0usize), (1, 2)] {
                // w_self
                let orig = model.layers()[l].w_self.row(pick_r)[pick_c];
                model.layers_mut()[l].w_self.row_mut(pick_r)[pick_c] = orig + eps;
                let lp = loss_fn(&model);
                model.layers_mut()[l].w_self.row_mut(pick_r)[pick_c] = orig - eps;
                let lm = loss_fn(&model);
                model.layers_mut()[l].w_self.row_mut(pick_r)[pick_c] = orig;
                let numeric = (lp - lm) / (2.0 * eps);
                let analytic = grads[l].w_self.row(pick_r)[pick_c];
                assert!(
                    (numeric - analytic).abs() < 2e-2,
                    "w_self[{l}][{pick_r},{pick_c}]: numeric {numeric} vs analytic {analytic}"
                );
                // w_neigh
                let cols = model.layers()[l].w_neigh.cols();
                let c = pick_c.min(cols - 1);
                let orig = model.layers()[l].w_neigh.row(pick_r)[c];
                model.layers_mut()[l].w_neigh.row_mut(pick_r)[c] = orig + eps;
                let lp = loss_fn(&model);
                model.layers_mut()[l].w_neigh.row_mut(pick_r)[c] = orig - eps;
                let lm = loss_fn(&model);
                model.layers_mut()[l].w_neigh.row_mut(pick_r)[c] = orig;
                let numeric = (lp - lm) / (2.0 * eps);
                let analytic = grads[l].w_neigh.row(pick_r)[c];
                assert!(
                    (numeric - analytic).abs() < 2e-2,
                    "w_neigh[{l}][{pick_r},{c}]: numeric {numeric} vs analytic {analytic}"
                );
            }
            // bias
            let orig = model.layers()[l].bias[0];
            model.layers_mut()[l].bias[0] = orig + eps;
            let lp = loss_fn(&model);
            model.layers_mut()[l].bias[0] = orig - eps;
            let lm = loss_fn(&model);
            model.layers_mut()[l].bias[0] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - grads[l].bias[0]).abs() < 2e-2,
                "bias[{l}]: numeric {numeric} vs analytic {}",
                grads[l].bias[0]
            );
        }
    }

    #[test]
    fn sgd_reduces_loss_on_fixed_batch() {
        let feats = SyntheticFeatures::new(6, 3, 0.1, 5);
        let mut model = SageModel::new(6, &[8], 3, 2, 11);
        let batch = fig1_batch();
        let labels = vec![feats.label(1)];
        let mut losses = Vec::new();
        for _ in 0..50 {
            let (logits, cache) = model.forward(&batch, &feats).unwrap();
            let (loss, dl) = softmax_cross_entropy(&logits, &labels);
            losses.push(loss);
            let grads = model.backward(&cache, &dl);
            model.sgd_step(&grads, 0.5);
        }
        assert!(
            losses.last().unwrap() < &(losses[0] * 0.5),
            "loss should halve: {losses:?}"
        );
    }

    #[test]
    fn zero_neighbor_targets_are_handled() {
        // Seed with no sampled neighbors anywhere.
        let batch = BatchSample {
            layers: vec![
                LayerSample {
                    fanout: 3,
                    targets: vec![0],
                    src_pos: vec![],
                    dst: vec![],
                },
                LayerSample {
                    fanout: 2,
                    targets: vec![],
                    src_pos: vec![],
                    dst: vec![],
                },
            ],
        };
        let feats = SyntheticFeatures::new(4, 2, 0.1, 1);
        let model = SageModel::new(4, &[3], 2, 2, 1);
        let (logits, _) = model.forward(&batch, &feats).unwrap();
        assert_eq!(logits.rows(), 1);
        assert!(logits.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    #[should_panic(expected = "layer count mismatch")]
    fn layer_count_checked() {
        let feats = SyntheticFeatures::new(4, 2, 0.1, 1);
        let model = SageModel::new(4, &[3, 3], 2, 3, 1);
        let _ = model.forward(&fig1_batch(), &feats);
    }
}
