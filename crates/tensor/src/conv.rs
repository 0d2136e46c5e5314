//! 2-D convolution and max-pooling layers with manual backpropagation.
//!
//! The FL experiments drive an MLP proxy for speed, but the substrate a
//! downstream user adopts needs convolutional models — the paper's
//! workloads are CNNs. Convolution lowers each sample to a column matrix
//! (im2col) and runs the blocked GEMM kernels from [`crate::kernels`]:
//! forward is `weight · cols`, the weight gradient is `grad_out · colsᵀ`,
//! and the input gradient is `weightᵀ · grad_out` scattered back through
//! col2im. The column buffer lives on the layer and is reused across
//! samples and batches, so steady-state training does not allocate.
//!
//! Feature maps are packed row-major as `[batch, channel, y, x]` inside
//! the 2-D [`Tensor`] type: each batch row holds `channels * height *
//! width` values. The [`FeatureShape`] helper owns the indexing.

use rand::Rng;

use crate::kernels;
use crate::rng::seed_rng;
use crate::{Tensor, TensorError};

/// Shape of a packed feature map: `channels × height × width` per sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeatureShape {
    /// Channel count.
    pub channels: usize,
    /// Spatial height.
    pub height: usize,
    /// Spatial width.
    pub width: usize,
}

impl FeatureShape {
    /// Construct a shape.
    pub fn new(channels: usize, height: usize, width: usize) -> Self {
        FeatureShape {
            channels,
            height,
            width,
        }
    }

    /// Values per sample.
    pub fn len(&self) -> usize {
        self.channels * self.height * self.width
    }

    /// Whether the shape is degenerate.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Flat offset of `(c, y, x)` within one sample.
    fn at(&self, c: usize, y: usize, x: usize) -> usize {
        (c * self.height + y) * self.width + x
    }
}

/// Lower one sample to its column matrix: `cols[(ic·k + ky)·k + kx][y·w + x]`
/// holds `x[ic][y + ky - half][x + kx - half]`, or `0.0` where the shifted
/// index falls in the zero padding. `cols` must be `fan_in × (h·w)`.
fn im2col(input: FeatureShape, kernel: usize, xin: &[f32], cols: &mut [f32]) {
    let (h, w) = (input.height, input.width);
    let hw = h * w;
    let half = (kernel / 2) as isize;
    let mut row = 0usize;
    for ic in 0..input.channels {
        let chan = &xin[ic * hw..(ic + 1) * hw];
        for ky in 0..kernel {
            let dy = ky as isize - half;
            for kx in 0..kernel {
                let dx = kx as isize - half;
                let dst = &mut cols[row * hw..(row + 1) * hw];
                for y in 0..h {
                    let yy = y as isize + dy;
                    let drow = &mut dst[y * w..(y + 1) * w];
                    if yy < 0 || yy >= h as isize {
                        drow.fill(0.0);
                        continue;
                    }
                    let srow = &chan[yy as usize * w..(yy as usize + 1) * w];
                    for (x, d) in drow.iter_mut().enumerate() {
                        let xx = x as isize + dx;
                        *d = if xx < 0 || xx >= w as isize {
                            0.0
                        } else {
                            srow[xx as usize]
                        };
                    }
                }
                row += 1;
            }
        }
    }
}

/// Adjoint of [`im2col`]: scatter-add the column-matrix gradient back onto
/// the (flat) input-gradient sample. Padding positions are dropped.
fn col2im_acc(input: FeatureShape, kernel: usize, gcols: &[f32], gin: &mut [f32]) {
    let (h, w) = (input.height, input.width);
    let hw = h * w;
    let half = (kernel / 2) as isize;
    let mut row = 0usize;
    for ic in 0..input.channels {
        for ky in 0..kernel {
            let dy = ky as isize - half;
            for kx in 0..kernel {
                let dx = kx as isize - half;
                let src = &gcols[row * hw..(row + 1) * hw];
                for y in 0..h {
                    let yy = y as isize + dy;
                    if yy < 0 || yy >= h as isize {
                        continue;
                    }
                    let srow = &src[y * w..(y + 1) * w];
                    for (x, &g) in srow.iter().enumerate() {
                        let xx = x as isize + dx;
                        if xx >= 0 && xx < w as isize {
                            gin[input.at(ic, yy as usize, xx as usize)] += g;
                        }
                    }
                }
                row += 1;
            }
        }
    }
}

/// A 2-D convolution with stride 1 and zero ("same") padding of
/// `kernel / 2`, so output spatial dims equal input spatial dims for odd
/// kernels.
#[derive(Debug, Clone)]
pub struct Conv2d {
    /// Input feature shape.
    pub input: FeatureShape,
    /// Output channels.
    pub out_channels: usize,
    /// Kernel side length (odd).
    pub kernel: usize,
    /// Weights, `[out_channels, in_channels * kernel * kernel]`.
    pub weight: Tensor,
    /// Bias, `[1, out_channels]`.
    pub bias: Tensor,
    /// Weight gradient, filled by [`Conv2d::backward`].
    pub grad_weight: Tensor,
    /// Bias gradient, filled by [`Conv2d::backward`].
    pub grad_bias: Tensor,
    cached_input: Option<Tensor>,
    /// Reusable im2col column buffer, `[fan_in, h·w]`.
    cols: Tensor,
    /// Reusable column-gradient buffer for the backward pass.
    grad_cols: Tensor,
}

impl Conv2d {
    /// Create a layer with He-uniform initialization.
    ///
    /// # Panics
    ///
    /// Panics if `kernel` is even (the "same" padding scheme requires odd
    /// kernels) or any dimension is zero.
    pub fn new(input: FeatureShape, out_channels: usize, kernel: usize, seed: u64) -> Self {
        assert!(kernel % 2 == 1, "kernel must be odd for same-padding");
        assert!(
            !input.is_empty() && out_channels > 0,
            "degenerate convolution shape"
        );
        let fan_in = input.channels * kernel * kernel;
        let bound = (6.0f32 / fan_in as f32).sqrt();
        let mut rng = seed_rng(seed);
        let data = (0..out_channels * fan_in)
            .map(|_| rng.gen_range(-bound..bound))
            .collect();
        Conv2d {
            input,
            out_channels,
            kernel,
            weight: Tensor::from_vec(out_channels, fan_in, data)
                .expect("weight buffer sized by construction"),
            bias: Tensor::zeros(1, out_channels),
            grad_weight: Tensor::zeros(out_channels, fan_in),
            grad_bias: Tensor::zeros(1, out_channels),
            cached_input: None,
            cols: Tensor::default(),
            grad_cols: Tensor::default(),
        }
    }

    /// Output feature shape (same spatial dims, `out_channels` channels).
    pub fn output_shape(&self) -> FeatureShape {
        FeatureShape::new(self.out_channels, self.input.height, self.input.width)
    }

    /// Trainable parameter count.
    pub fn num_params(&self) -> usize {
        self.weight.len() + self.bias.len()
    }

    fn check_input(&self, x: &Tensor) -> Result<(), TensorError> {
        if x.cols() != self.input.len() {
            return Err(TensorError::ShapeMismatch {
                op: "conv2d",
                lhs: vec![x.rows(), x.cols()],
                rhs: vec![self.input.channels, self.input.height, self.input.width],
            });
        }
        Ok(())
    }

    /// im2col + GEMM forward for every sample, writing into a fresh output
    /// tensor. `cols` is the reusable column buffer (resized as needed).
    fn forward_impl(&self, x: &Tensor, cols: &mut Tensor) -> Tensor {
        let n = x.rows();
        let out_shape = self.output_shape();
        let hw = self.input.height * self.input.width;
        let fan_in = self.weight.cols();
        cols.resize(fan_in, hw);
        let mut out = Tensor::zeros(n, out_shape.len());
        for b in 0..n {
            im2col(self.input, self.kernel, x.row(b), cols.data_mut());
            let orow = &mut out.data_mut()[b * out_shape.len()..(b + 1) * out_shape.len()];
            kernels::gemm_nn(
                self.out_channels,
                fan_in,
                hw,
                self.weight.data(),
                cols.data(),
                orow,
            );
            for (oc, seg) in orow.chunks_exact_mut(hw).enumerate() {
                let bv = self.bias.at(0, oc);
                for v in seg {
                    *v += bv;
                }
            }
        }
        out
    }

    /// Forward pass; caches the input for backward.
    ///
    /// # Errors
    ///
    /// Returns a shape error if `x` does not pack `input` features.
    pub fn forward(&mut self, x: &Tensor) -> Result<Tensor, TensorError> {
        self.check_input(x)?;
        let mut cols = std::mem::take(&mut self.cols);
        let out = self.forward_impl(x, &mut cols);
        self.cols = cols;
        self.cached_input = Some(x.clone());
        Ok(out)
    }

    /// Inference-only forward pass. Uses a local column buffer (reused
    /// across the samples of the batch) so `&self` suffices.
    ///
    /// # Errors
    ///
    /// Returns a shape error if `x` does not pack `input` features.
    pub fn forward_inference(&self, x: &Tensor) -> Result<Tensor, TensorError> {
        self.check_input(x)?;
        let mut cols = Tensor::default();
        Ok(self.forward_impl(x, &mut cols))
    }

    /// Backward pass: fills `grad_weight` / `grad_bias` and returns the
    /// gradient w.r.t. the input.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidData`] if called before `forward`.
    pub fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, TensorError> {
        let x = self
            .cached_input
            .take()
            .ok_or_else(|| TensorError::InvalidData("backward before forward".into()))?;
        let n = x.rows();
        let out_shape = self.output_shape();
        if grad_out.rows() != n || grad_out.cols() != out_shape.len() {
            return Err(TensorError::ShapeMismatch {
                op: "conv2d_backward",
                lhs: vec![grad_out.rows(), grad_out.cols()],
                rhs: vec![n, out_shape.len()],
            });
        }
        let hw = self.input.height * self.input.width;
        let fan_in = self.weight.cols();
        self.grad_weight.data_mut().fill(0.0);
        self.grad_bias.data_mut().fill(0.0);
        let mut grad_in = Tensor::zeros(n, self.input.len());
        let mut cols = std::mem::take(&mut self.cols);
        let mut gcols = std::mem::take(&mut self.grad_cols);
        cols.resize(fan_in, hw);
        gcols.resize(fan_in, hw);
        for b in 0..n {
            im2col(self.input, self.kernel, x.row(b), cols.data_mut());
            let g = grad_out.row(b);
            // grad_weight += grad_out · colsᵀ  (accumulated across the batch).
            kernels::gemm_nt_acc(
                self.out_channels,
                hw,
                fan_in,
                g,
                cols.data(),
                self.grad_weight.data_mut(),
            );
            for (oc, seg) in g.chunks_exact(hw).enumerate() {
                let s: f32 = seg.iter().sum();
                let cur = self.grad_bias.at(0, oc);
                self.grad_bias.set(0, oc, cur + s);
            }
            // grad_cols = weightᵀ · grad_out, scattered back through col2im.
            kernels::gemm_tn(
                fan_in,
                self.out_channels,
                hw,
                self.weight.data(),
                g,
                gcols.data_mut(),
            );
            col2im_acc(
                self.input,
                self.kernel,
                gcols.data(),
                &mut grad_in.data_mut()[b * self.input.len()..(b + 1) * self.input.len()],
            );
        }
        self.cols = cols;
        self.grad_cols = gcols;
        Ok(grad_in)
    }
}

/// 2×2 max pooling with stride 2.
#[derive(Debug, Clone)]
pub struct MaxPool2 {
    /// Input feature shape (height and width must be even).
    pub input: FeatureShape,
    /// Argmax indices cached by the forward pass, one per output value.
    argmax: Vec<usize>,
    batch: usize,
}

impl MaxPool2 {
    /// Create a pooling layer.
    ///
    /// # Panics
    ///
    /// Panics if height or width is odd.
    pub fn new(input: FeatureShape) -> Self {
        assert!(
            input.height.is_multiple_of(2) && input.width.is_multiple_of(2),
            "max-pool input dims must be even"
        );
        MaxPool2 {
            input,
            argmax: Vec::new(),
            batch: 0,
        }
    }

    /// Output feature shape (halved spatial dims).
    pub fn output_shape(&self) -> FeatureShape {
        FeatureShape::new(
            self.input.channels,
            self.input.height / 2,
            self.input.width / 2,
        )
    }

    /// Forward pass; caches argmax positions for backward.
    ///
    /// # Errors
    ///
    /// Returns a shape error if `x` does not pack `input` features.
    pub fn forward(&mut self, x: &Tensor) -> Result<Tensor, TensorError> {
        if x.cols() != self.input.len() {
            return Err(TensorError::ShapeMismatch {
                op: "maxpool2",
                lhs: vec![x.rows(), x.cols()],
                rhs: vec![self.input.channels, self.input.height, self.input.width],
            });
        }
        let n = x.rows();
        let out_shape = self.output_shape();
        let mut out = Tensor::zeros(n, out_shape.len());
        self.argmax.clear();
        self.argmax.resize(n * out_shape.len(), 0);
        self.batch = n;
        for b in 0..n {
            let xin = x.row(b);
            for c in 0..self.input.channels {
                for oy in 0..out_shape.height {
                    for ox in 0..out_shape.width {
                        let mut best = f32::NEG_INFINITY;
                        let mut best_i = 0usize;
                        for dy in 0..2 {
                            for dx in 0..2 {
                                let i = self.input.at(c, oy * 2 + dy, ox * 2 + dx);
                                if xin[i] > best {
                                    best = xin[i];
                                    best_i = i;
                                }
                            }
                        }
                        let o = out_shape.at(c, oy, ox);
                        out.data_mut()[b * out_shape.len() + o] = best;
                        self.argmax[b * out_shape.len() + o] = best_i;
                    }
                }
            }
        }
        Ok(out)
    }

    /// Backward pass: routes each gradient to the argmax position.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidData`] if called before `forward` or
    /// with a mismatched batch.
    pub fn backward(&self, grad_out: &Tensor) -> Result<Tensor, TensorError> {
        let out_shape = self.output_shape();
        if grad_out.rows() != self.batch || grad_out.cols() != out_shape.len() {
            return Err(TensorError::InvalidData(
                "maxpool backward called with mismatched batch".into(),
            ));
        }
        let mut grad_in = Tensor::zeros(self.batch, self.input.len());
        for b in 0..self.batch {
            for o in 0..out_shape.len() {
                let src = self.argmax[b * out_shape.len() + o];
                grad_in.data_mut()[b * self.input.len() + src] += grad_out.row(b)[o];
            }
        }
        Ok(grad_in)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_shape() -> FeatureShape {
        FeatureShape::new(2, 4, 4)
    }

    fn sample_input(shape: FeatureShape, n: usize, seed: u64) -> Tensor {
        let mut rng = seed_rng(seed);
        let data = (0..n * shape.len())
            .map(|_| rng.gen_range(-1.0f32..1.0))
            .collect();
        Tensor::from_vec(n, shape.len(), data).expect("sized by construction")
    }

    #[test]
    fn conv_preserves_spatial_dims() {
        let mut conv = Conv2d::new(tiny_shape(), 3, 3, 1);
        let x = sample_input(tiny_shape(), 2, 5);
        let y = conv.forward(&x).expect("valid input");
        assert_eq!(y.rows(), 2);
        assert_eq!(y.cols(), 3 * 4 * 4);
    }

    #[test]
    fn conv_rejects_wrong_width() {
        let mut conv = Conv2d::new(tiny_shape(), 3, 3, 1);
        assert!(conv.forward(&Tensor::zeros(1, 7)).is_err());
    }

    #[test]
    fn conv_identity_kernel_passes_through() {
        // A 1x1 conv with identity weights on one channel copies the input.
        let shape = FeatureShape::new(1, 4, 4);
        let mut conv = Conv2d::new(shape, 1, 1, 1);
        conv.weight.set(0, 0, 1.0);
        let x = sample_input(shape, 1, 2);
        let y = conv.forward_inference(&x).expect("valid");
        for (a, b) in x.data().iter().zip(y.data()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn conv_weight_gradient_matches_finite_difference() {
        let shape = FeatureShape::new(1, 4, 4);
        let mut conv = Conv2d::new(shape, 2, 3, 3);
        let x = sample_input(shape, 2, 7);
        // Loss = sum of outputs; dL/dout = ones.
        let loss =
            |c: &Conv2d| -> f32 { c.forward_inference(&x).expect("valid").data().iter().sum() };
        let eps = 1e-2;
        for &(r, cc) in &[(0usize, 0usize), (1, 4), (0, 8)] {
            let base = conv.weight.at(r, cc);
            conv.weight.set(r, cc, base + eps);
            let up = loss(&conv);
            conv.weight.set(r, cc, base - eps);
            let down = loss(&conv);
            conv.weight.set(r, cc, base);
            let numeric = (up - down) / (2.0 * eps);

            let y = conv.forward(&x).expect("valid");
            let ones = Tensor::from_vec(y.rows(), y.cols(), vec![1.0; y.len()]).expect("sized");
            conv.backward(&ones).expect("after forward");
            let analytic = conv.grad_weight.at(r, cc);
            assert!(
                (numeric - analytic).abs() < 0.05 * numeric.abs().max(1.0),
                "w[{r},{cc}]: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn conv_input_gradient_matches_finite_difference() {
        let shape = FeatureShape::new(1, 4, 4);
        let mut conv = Conv2d::new(shape, 2, 3, 3);
        let mut x = sample_input(shape, 1, 9);
        let loss = |c: &Conv2d, x: &Tensor| -> f32 {
            c.forward_inference(x).expect("valid").data().iter().sum()
        };
        let y = conv.forward(&x).expect("valid");
        let ones = Tensor::from_vec(y.rows(), y.cols(), vec![1.0; y.len()]).expect("sized");
        let grad_in = conv.backward(&ones).expect("after forward");
        let eps = 1e-2;
        for i in [0usize, 5, 10, 15] {
            let base = x.data()[i];
            x.data_mut()[i] = base + eps;
            let up = loss(&conv, &x);
            x.data_mut()[i] = base - eps;
            let down = loss(&conv, &x);
            x.data_mut()[i] = base;
            let numeric = (up - down) / (2.0 * eps);
            let analytic = grad_in.data()[i];
            assert!(
                (numeric - analytic).abs() < 0.05 * numeric.abs().max(1.0),
                "x[{i}]: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn conv_backward_requires_forward() {
        let mut conv = Conv2d::new(tiny_shape(), 1, 3, 1);
        assert!(conv.backward(&Tensor::zeros(1, 16)).is_err());
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn even_kernel_panics() {
        let _ = Conv2d::new(tiny_shape(), 1, 2, 1);
    }

    #[test]
    fn pool_halves_and_takes_max() {
        let shape = FeatureShape::new(1, 2, 2);
        let mut pool = MaxPool2::new(shape);
        let x = Tensor::from_vec(1, 4, vec![1.0, 5.0, -2.0, 3.0]).expect("sized");
        let y = pool.forward(&x).expect("valid");
        assert_eq!(y.cols(), 1);
        assert_eq!(y.data()[0], 5.0);
    }

    #[test]
    fn pool_backward_routes_to_argmax() {
        let shape = FeatureShape::new(1, 2, 2);
        let mut pool = MaxPool2::new(shape);
        let x = Tensor::from_vec(1, 4, vec![1.0, 5.0, -2.0, 3.0]).expect("sized");
        let _ = pool.forward(&x).expect("valid");
        let g = Tensor::from_vec(1, 1, vec![2.0]).expect("sized");
        let gx = pool.backward(&g).expect("after forward");
        assert_eq!(gx.data(), &[0.0, 2.0, 0.0, 0.0]);
    }

    #[test]
    fn pool_gradient_conserves_mass() {
        let shape = FeatureShape::new(2, 4, 4);
        let mut pool = MaxPool2::new(shape);
        let x = sample_input(shape, 3, 11);
        let y = pool.forward(&x).expect("valid");
        let g = Tensor::from_vec(y.rows(), y.cols(), vec![1.0; y.len()]).expect("sized");
        let gx = pool.backward(&g).expect("after forward");
        let out_sum: f32 = g.data().iter().sum();
        let in_sum: f32 = gx.data().iter().sum();
        assert!((out_sum - in_sum).abs() < 1e-4);
    }

    #[test]
    fn small_cnn_learns_a_spatial_task() {
        // Classify whether the bright quadrant is top-left or bottom-right:
        // linear in pixels only through spatial structure.
        let shape = FeatureShape::new(1, 4, 4);
        let mut rng = seed_rng(13);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..128 {
            let cls = i % 2;
            let mut img = vec![0.0f32; 16];
            for y in 0..2 {
                for x in 0..2 {
                    let (yy, xx) = if cls == 0 { (y, x) } else { (y + 2, x + 2) };
                    img[yy * 4 + xx] = 1.0 + rng.gen_range(-0.2f32..0.2);
                }
            }
            for v in &mut img {
                *v += rng.gen_range(-0.1f32..0.1);
            }
            xs.push(img);
            ys.push(cls);
        }
        let n = xs.len();
        let flat: Vec<f32> = xs.concat();
        let x = Tensor::from_vec(n, 16, flat).expect("sized");

        let mut conv = Conv2d::new(shape, 4, 3, 3);
        let mut pool = MaxPool2::new(conv.output_shape());
        let mut head = crate::layers::Linear::new(pool.output_shape().len(), 2, 5);
        let mut opt_params = crate::optim::Sgd::new(0.1);

        let mut final_acc = 0.0;
        for _epoch in 0..60 {
            let h1 = conv.forward(&x).expect("valid");
            let h2 = pool.forward(&h1).expect("valid");
            let logits = head.forward(&h2).expect("valid");
            let (_, grad) =
                crate::loss::softmax_cross_entropy(&logits, &ys).expect("labels in range");
            let g2 = head.backward(&grad).expect("after forward");
            let g1 = pool.backward(&g2).expect("after forward");
            let _ = conv.backward(&g1).expect("after forward");
            // SGD over all three layers' flat params.
            let mut params: Vec<f32> = Vec::new();
            params.extend_from_slice(conv.weight.data());
            params.extend_from_slice(conv.bias.data());
            params.extend_from_slice(head.weight.data());
            params.extend_from_slice(head.bias.data());
            let mut grads: Vec<f32> = Vec::new();
            grads.extend_from_slice(conv.grad_weight.data());
            grads.extend_from_slice(conv.grad_bias.data());
            grads.extend_from_slice(head.grad_weight.data());
            grads.extend_from_slice(head.grad_bias.data());
            opt_params.step(&mut params, &grads);
            let (cw, rest) = params.split_at(conv.weight.len());
            let (cb, rest) = rest.split_at(conv.bias.len());
            let (hw, hb) = rest.split_at(head.weight.len());
            conv.weight.data_mut().copy_from_slice(cw);
            conv.bias.data_mut().copy_from_slice(cb);
            head.weight.data_mut().copy_from_slice(hw);
            head.bias.data_mut().copy_from_slice(hb);

            let logits = head
                .forward_inference(
                    &pool
                        .forward(&conv.forward_inference(&x).expect("valid"))
                        .expect("valid"),
                )
                .expect("valid");
            final_acc = crate::loss::accuracy(&logits, &ys);
        }
        assert!(final_acc > 0.9, "cnn accuracy {final_acc}");
    }
}
