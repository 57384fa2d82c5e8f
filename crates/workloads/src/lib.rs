//! Parameterised DSP workload kernels for the FPFA mapping flow.
//!
//! The paper motivates the FPFA with the word-level DSP kernels of 3G/4G
//! wireless terminals (FIR filtering, correlation, transforms). This crate
//! generates those kernels as C-subset sources, together with deterministic
//! input data, so that every experiment in the benchmark harness runs on the
//! same workloads:
//!
//! * [`fir`] — the paper's FIR example (Section V), parameterised by tap
//!   count;
//! * [`dot_product`], [`vector_scale_add`] — inner products and saxpy;
//! * [`iir_biquad`] — a direct-form-I biquad section;
//! * [`moving_average`], [`horner`], [`power_sum`] — sliding windows and
//!   polynomial evaluation;
//! * [`fft_butterfly_stage`] — one radix-2 butterfly stage on interleaved
//!   real/imaginary arrays;
//! * [`dct4`] — a 4-point DCT-II with fixed-point constant coefficients;
//! * [`matmul`] — small dense matrix multiplication;
//! * [`conv2d_3x3`] — a 3×3 convolution over a small image.
//!
//! [`registry`] returns the default benchmark suite used by the experiment
//! tables, and [`straight_line_kernel`] builds the random straight-line
//! kernels of the property tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod kernels;

pub use kernels::{
    conv2d_3x3, dct4, dot_product, fft_butterfly_stage, fir, horner, iir_biquad, matmul,
    moving_average, multi_tile_registry, power_sum, registry, straight_line_kernel, test_signal,
    test_signal_at, vector_scale_add, Kernel,
};
