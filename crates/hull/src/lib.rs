#![warn(missing_docs)]
//! # reecc-hull
//!
//! Approximate convex-hull machinery for high-dimensional point sets.
//!
//! The paper's FASTQUERY algorithm (Lemma 5.3) relies on an algorithm
//! `APPROXCH(S, θ)` that returns an `l`-point subset `Ŝ` of the hull
//! vertices of `S ⊂ R^d` such that every point of `S` is within
//! `θ·D(S)` of `conv(Ŝ)`, in `O(n·l·(d + 1/θ²))` time — the robust vertex
//! enumeration of Awasthi, Kalantari and Zhang, built on Kalantari's
//! *Triangle Algorithm*.
//!
//! This crate implements that stack from scratch:
//!
//! * [`points::PointSet`] — a flat, cache-friendly store of `n` points in
//!   `R^d`, plus [`points::PointsView`], a zero-copy borrow of the same
//!   layout (both behind the [`points::Points`] trait so hull
//!   construction never needs to clone the sketch's embedding buffer),
//!   and the lane kernels APPROXCH's full-`n` sweeps run on.
//! * [`triangle`] — the Triangle Algorithm: an approximate membership
//!   oracle for `p ∈ conv(Ŝ)` that produces either an ε-close convex
//!   combination or a *witness* certifying separation.
//! * [`approxch`] — the vertex-enumeration loop: witnesses trigger adding
//!   the extreme point in the witness direction (a guaranteed-new hull
//!   vertex) until every point passes the membership test.
//! * [`exact2d`] — an exact 2-D hull (Andrew's monotone chain), used as a
//!   test oracle for the approximate algorithm.

pub mod approxch;
pub mod exact2d;
pub mod points;
pub mod triangle;

pub use approxch::{approx_convex_hull, ApproxChOptions, HullResult};
pub use points::{PointSet, Points, PointsView};
pub use triangle::{membership, Membership, TriangleOptions};
