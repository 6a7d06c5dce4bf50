//! Sparse tensor kernels on SparseCore.
//!
//! The paper's tensor evaluation (Section 6.9) runs sparse
//! matrix-sparse matrix multiplication under the three classic dataflows
//! plus two tensor kernels, all built from the stream ISA's value
//! operations:
//!
//! * **inner product** — `C[i][j] = dot(A_row_i, B_col_j)` via `S_VINTER`
//!   (paper Figure 4(a)/(b));
//! * **outer product** — `C += A_col_k ⊗ B_row_k` via repeated `S_VMERGE`
//!   accumulation;
//! * **Gustavson** — `C_row_i = Σ_k a_ik * B_row_k` via `S_VMERGE`
//!   (paper Figure 4(c)/(d));
//! * **TTV** — `Z_ij = Σ_k A_ijk * v_k`: each fiber dotted with the dense
//!   vector viewed as a (key, value) stream;
//! * **TTM** — `Z_ijk = Σ_l A_ijl * B_kl`: each fiber dotted with each
//!   row of the (dense) factor matrix, which is streamed once and reused.
//!
//! Each kernel runs over a [`TensorBackend`]: [`ScalarTensorBackend`]
//! (the CPU baseline with per-element merge loops) or
//! [`StreamTensorBackend`] (the SparseCore engine). Functional outputs
//! are exact and are checked against `sc-tensor`'s dense references in
//! the test suite.

pub mod adaptive;
pub mod backend;
pub mod parallel;
pub mod spmspm;
pub mod spmv;
pub mod tensor_ops;
pub mod vstream;

pub use adaptive::{
    adaptive, adaptive_oracle, estimate_block, AdaptiveOptions, AdaptiveResult, BlockChoice,
    Dataflow,
};
pub use backend::{ScalarTensorBackend, StreamTensorBackend, TensorBackend};
pub use parallel::{gustavson_multicore, protect_matrix, protect_tensor, ttv_multicore};
pub use spmspm::{
    gustavson, gustavson_sampled, inner_product, outer_product, outer_product_sampled,
    InnerOptions, SpmspmResult,
};
pub use spmv::{spmspv, spmv, spmv_reference, SpmvResult};
pub use tensor_ops::{ttm, ttm_sampled, ttv, ttv_sampled, TtmResult, TtvResult};
pub use vstream::VStream;
