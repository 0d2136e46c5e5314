//! `float-tensor` — a minimal, dependency-light dense tensor and neural
//! network substrate used by the FLOAT reproduction.
//!
//! The FLOAT paper trains PyTorch models (ResNet-18/34/50, ShuffleNet) on
//! GPUs. This crate provides the from-scratch stand-in: row-major `f32`
//! tensors, a small set of linear-algebra kernels, layers with manual
//! backpropagation, a multi-layer perceptron model, and plain SGD.
//! Training has one path: layers forward and backward into caller-owned
//! scratch (`Linear::forward_matmul_into`, `backward_into`,
//! `backward_params_only`) and the step updates parameters in place, for
//! [`Mlp`] and for `float-vfl`'s split model alike. The allocating
//! `forward_inference` path serves evaluation and is the independent
//! reference the training path is tested against.
//! It is deliberately small but *real*: models genuinely train, so the
//! accuracy dynamics FLOAT manipulates (non-IID degradation, the accuracy
//! cost of pruning / quantization / partial training) emerge from actual
//! optimization rather than lookup tables.
//!
//! # Example
//!
//! ```
//! use float_tensor::{Mlp, MlpConfig, Sgd, Dataset};
//!
//! // Tiny two-class problem: x > 0 vs x < 0 in 4 dimensions.
//! let xs: Vec<Vec<f32>> = (0..64)
//!     .map(|i| {
//!         let s = if i % 2 == 0 { 1.0 } else { -1.0 };
//!         vec![s, s * 0.5, s * 0.25, s * 0.125]
//!     })
//!     .collect();
//! let ys: Vec<usize> = (0..64).map(|i| i % 2).collect();
//! let data = Dataset::from_rows(&xs, &ys, 2).unwrap();
//!
//! let mut model = Mlp::new(&MlpConfig::new(4, &[16], 2), 42);
//! let opt = Sgd::new(0.1);
//! for _ in 0..30 {
//!     model.train_epoch(&data, 16, &opt, 7);
//! }
//! assert!(model.evaluate(&data).accuracy > 0.95);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dataset;
pub mod kernels;
pub mod layers;
pub mod loss;
pub mod model;
pub mod optim;
pub mod rng;
pub mod tensor;

pub use dataset::Dataset;
pub use layers::{Linear, Relu};
pub use loss::Evaluation;
pub use model::{DriftOptions, Mlp, MlpConfig};
pub use optim::Sgd;
pub use rng::seed_rng;
pub use tensor::Tensor;

/// Errors produced by tensor and model operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// Operand shapes are incompatible for the requested operation.
    ShapeMismatch {
        /// Name of the operation that failed.
        op: &'static str,
        /// Left-hand operand shape.
        lhs: Vec<usize>,
        /// Right-hand operand shape.
        rhs: Vec<usize>,
    },
    /// A dataset row or label was malformed (e.g. empty rows, label out of
    /// range for the declared class count).
    InvalidData(String),
}

impl std::fmt::Display for TensorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TensorError::ShapeMismatch { op, lhs, rhs } => {
                write!(f, "shape mismatch in {op}: lhs {lhs:?} vs rhs {rhs:?}")
            }
            TensorError::InvalidData(msg) => write!(f, "invalid data: {msg}"),
        }
    }
}

impl std::error::Error for TensorError {}
