//! # fx-backend — backend lowering as a graph transform
//!
//! The paper's §6.4 case study (fx2trt) treats lowering to an
//! optimized backend as a `GraphModule → GraphModule` transform. This
//! crate does the same, on the CPU kernels of `fx-tensor`:
//!
//! * [`fuse_epilogues`] rewrites each `Conv2d` / `Linear` whose single
//!   user is a ReLU into one `conv2d_relu` / `linear_relu` node that
//!   applies the ReLU in the GEMM write-back. It is bit-preserving: the
//!   fused kernel computes the same floats in the same order.
//! * [`lower`] runs conv–BN folding (numerics-changing, from
//!   `fx-passes`), dead-code elimination and [`fuse_epilogues`], and
//!   returns the lowered module with a [`LowerReport`].
//!
//! Every op the backend cannot fuse stays an ordinary node, so there is
//! no partitioning and no fallback path: the lowered graph runs on the
//! plan-cached [`Executor`](fx_core::Executor) like any other, with its
//! buffer pool, threads, profiling and hooks.
//!
//! ```
//! use fx_backend::lower;
//! use fx_core::{symbolic_trace, Value};
//! use fx_models::resnet_tiny;
//! use fx_tensor::Tensor;
//! use fx_tensor::rng::{SeedableRng, StdRng};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let gm = symbolic_trace(&resnet_tiny(&mut rng)).unwrap();
//! let (lowered, report) = lower(&gm).unwrap();
//! assert!(report.conv_bn_folded > 0 && report.epilogues_fused > 0);
//! let x = Value::Tensor(Tensor::randn(&[1, 3, 32, 32], &mut rng));
//! let y = lowered.run(&[x]).unwrap();
//! assert_eq!(y.as_tensor().unwrap().shape(), &[1, 10]);
//! ```

#![warn(missing_docs)]

mod lower;

pub use lower::{fuse_epilogues, lower, LowerReport};
