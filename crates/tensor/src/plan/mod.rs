//! The kernel plan layer: blueprints and the thread-local scratch arena
//! (DESIGN.md §18).
//!
//! The GEMM variants and conv2d forward/backward compute a
//! [`blueprint::Blueprint`] per call (cap-checked sizes, blocking, and
//! the parallel/serial decision in one place); every hot kernel draws
//! its scratch from the per-thread [`alloc`] arena, so steady-state
//! serving performs zero kernel-scratch heap allocations after warm-up
//! while preserving the PR-5 bit-exactness invariant.

pub mod alloc;
pub mod blueprint;
