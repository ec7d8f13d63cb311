//! Node feature storage.
//!
//! Sampling never touches features (paper Table 1 notes "node features are
//! not used in sampling"), but the end-to-end training path (§5) needs
//! them. Three stores: in-memory, procedurally generated (for graphs whose
//! feature matrix would dwarf memory), and on-disk with offset reads.

use std::fs::File;
use std::io::Write;
use std::os::unix::fs::FileExt;
use std::path::Path;

use ringsampler_graph::NodeId;

use crate::tensor::Matrix;

/// Source of node feature vectors.
pub trait FeatureStore: Send + Sync {
    /// Feature dimensionality.
    fn dim(&self) -> usize;

    /// Gathers features for `nodes` into a `nodes.len() × dim` matrix,
    /// row *i* holding `nodes[i]`'s features.
    ///
    /// # Errors
    /// A store that reads rows from a file reports a failed or short read.
    fn gather(&self, nodes: &[NodeId]) -> std::io::Result<Matrix>;
}

/// Features held in one dense in-memory matrix (row = node id).
#[derive(Debug, Clone)]
pub struct InMemoryFeatures {
    data: Matrix,
}

impl InMemoryFeatures {
    /// Wraps a `num_nodes × dim` matrix.
    pub fn new(data: Matrix) -> Self {
        Self { data }
    }
}

impl FeatureStore for InMemoryFeatures {
    fn dim(&self) -> usize {
        self.data.cols()
    }

    fn gather(&self, nodes: &[NodeId]) -> std::io::Result<Matrix> {
        let mut out = Matrix::zeros(nodes.len(), self.dim());
        for (i, &v) in nodes.iter().enumerate() {
            out.row_mut(i).copy_from_slice(self.data.row(v as usize));
        }
        Ok(out)
    }
}

/// Procedural features for a synthetic node-classification task:
/// node `v`'s label is `v % classes`, and its feature vector is a one-hot
/// of the label plus deterministic hash noise — learnable by a GNN, zero
/// storage, any graph size.
#[derive(Debug, Clone, Copy)]
pub struct SyntheticFeatures {
    dim: usize,
    classes: usize,
    noise: f32,
    seed: u64,
}

impl SyntheticFeatures {
    /// Creates a store with `dim ≥ classes` features.
    ///
    /// # Panics
    /// Panics if `dim < classes` or `classes == 0`.
    pub fn new(dim: usize, classes: usize, noise: f32, seed: u64) -> Self {
        assert!(classes > 0, "need at least one class");
        assert!(dim >= classes, "dim must cover the one-hot part");
        Self {
            dim,
            classes,
            noise,
            seed,
        }
    }

    /// Number of classes in the synthetic task.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// The ground-truth label of `v`.
    pub fn label(&self, v: NodeId) -> usize {
        v as usize % self.classes
    }

    fn hash(&self, v: NodeId, j: usize) -> f32 {
        let mut x = self
            .seed
            .wrapping_add((v as u64) << 32 | j as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x ^= x >> 29;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 32;
        (x >> 11) as f32 / (1u64 << 53) as f32 * 2.0 - 1.0
    }
}

impl FeatureStore for SyntheticFeatures {
    fn dim(&self) -> usize {
        self.dim
    }

    fn gather(&self, nodes: &[NodeId]) -> std::io::Result<Matrix> {
        let mut out = Matrix::zeros(nodes.len(), self.dim);
        for (i, &v) in nodes.iter().enumerate() {
            let row = out.row_mut(i);
            row[self.label(v)] = 1.0;
            for (j, r) in row.iter_mut().enumerate() {
                *r += self.noise * self.hash(v, j);
            }
        }
        Ok(out)
    }
}

/// Features stored on disk as a flat `f32` row-major file, gathered with
/// positioned reads (the layout DGL-style feature files use).
#[derive(Debug)]
pub struct OnDiskFeatures {
    file: File,
    dim: usize,
}

impl OnDiskFeatures {
    /// Opens a feature file of `dim` columns.
    ///
    /// # Errors
    /// Propagates `File::open` errors.
    pub fn open(path: &Path, dim: usize) -> std::io::Result<Self> {
        Ok(Self {
            file: File::open(path)?,
            dim,
        })
    }

    /// Writes a feature matrix as a flat file (helper for tests/examples).
    ///
    /// # Errors
    /// Propagates write errors.
    pub fn write_matrix(path: &Path, data: &Matrix) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(File::create(path)?);
        for v in data.as_slice() {
            f.write_all(&v.to_le_bytes())?;
        }
        f.flush()
    }
}

impl FeatureStore for OnDiskFeatures {
    fn dim(&self) -> usize {
        self.dim
    }

    /// A short read (a file truncated mid-row, or a node past its end)
    /// is an `UnexpectedEof` error, never a zero row.
    fn gather(&self, nodes: &[NodeId]) -> std::io::Result<Matrix> {
        let mut out = Matrix::zeros(nodes.len(), self.dim);
        let row_bytes = self.dim * 4;
        let mut buf = vec![0u8; row_bytes];
        for (i, &v) in nodes.iter().enumerate() {
            self.file.read_exact_at(&mut buf, v as u64 * row_bytes as u64)?;
            for (j, c) in buf.chunks_exact(4).enumerate() {
                out.row_mut(i)[j] = f32::from_le_bytes(c.try_into().expect("4 bytes"));
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_memory_gather_aligns_rows() {
        let data = Matrix::from_vec(3, 2, vec![1., 2., 3., 4., 5., 6.]);
        let s = InMemoryFeatures::new(data);
        let g = s.gather(&[2, 0]).unwrap();
        assert_eq!(g.row(0), &[5., 6.]);
        assert_eq!(g.row(1), &[1., 2.]);
    }

    #[test]
    fn synthetic_features_encode_labels() {
        let s = SyntheticFeatures::new(8, 4, 0.1, 7);
        assert_eq!(s.label(5), 1);
        assert_eq!(s.label(4), 0);
        let g = s.gather(&[5]).unwrap();
        // One-hot position dominates the noise.
        let row = g.row(0);
        let argmax = row
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(argmax, 1);
    }

    #[test]
    fn synthetic_is_deterministic() {
        let s = SyntheticFeatures::new(4, 2, 0.5, 3);
        assert_eq!(s.gather(&[9, 10]).unwrap(), s.gather(&[9, 10]).unwrap());
    }

    #[test]
    fn on_disk_roundtrip() {
        let path =
            std::env::temp_dir().join(format!("rs-gnn-feat-{}", std::process::id()));
        let data = Matrix::from_vec(4, 3, (0..12).map(|v| v as f32).collect());
        OnDiskFeatures::write_matrix(&path, &data).unwrap();
        let s = OnDiskFeatures::open(&path, 3).unwrap();
        let g = s.gather(&[3, 1]).unwrap();
        assert_eq!(g.row(0), &[9., 10., 11.]);
        assert_eq!(g.row(1), &[3., 4., 5.]);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn on_disk_short_read_is_an_error_not_a_zero_row() {
        let path =
            std::env::temp_dir().join(format!("rs-gnn-feat-short-{}", std::process::id()));
        let data = Matrix::from_vec(4, 3, (0..12).map(|v| v as f32 + 1.0).collect());
        OnDiskFeatures::write_matrix(&path, &data).unwrap();
        // Truncate mid-way through row 3: one of its three floats survives.
        File::options().write(true).open(&path).unwrap().set_len(3 * 12 + 4).unwrap();
        let s = OnDiskFeatures::open(&path, 3).unwrap();
        assert_eq!(s.gather(&[2]).unwrap().row(0), &[7., 8., 9.]);
        let err = s.gather(&[1, 3]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
        std::fs::remove_file(path).ok();
    }

    #[test]
    #[should_panic(expected = "dim must cover")]
    fn synthetic_validates_dim() {
        let _ = SyntheticFeatures::new(2, 4, 0.1, 0);
    }
}
