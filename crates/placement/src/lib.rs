#![warn(missing_docs)]

//! VM placement with virtual-frequency awareness (§III.C, §IV.C).
//!
//! The paper's secondary contribution: once every VM carries a guaranteed
//! virtual frequency, the placement constraint "number of vCPUs ≤ number
//! of CPU cores" can be replaced by the **core splitting constraint**
//! (Eq. 7):
//!
//! ```text
//! Σ_{i ∈ I_n} k_i^vCPU · F_i  ≤  k_n^CPU · F_n^MAX
//! ```
//!
//! so a 3 GHz core can host e.g. three 1 GHz vCPUs *without*
//! overcommitment — the frequency controller enforces the shares that the
//! placement promised.
//!
//! * [`model`] — node bins and placement state;
//! * [`constraint`] — the constraint modes (classic core-count with an
//!   optional consolidation factor, Eq. 7, and Eq. 7 with a factor),
//!   each mode's capacity, usage and demand arithmetic written once;
//! * [`algo`] — the heuristics (First-Fit / Best-Fit / Worst-Fit) and
//!   the one-shot [`Placer`] of the §IV.C study;
//! * [`index`] — the residual-capacity index, the only implementation
//!   of the three heuristics: O(log n) per question, shared by
//!   [`Placer`] and the cluster manager's incremental
//!   (deploy/undeploy/evacuate) callers;
//! * [`cluster`] — the evaluation cluster (12 *chetemi* + 10 *chiclet*)
//!   and workload (250 small + 50 medium + 100 large), with several
//!   arrival orders;
//! * [`energy`] — cluster power accounting (shut down unused nodes).

pub mod algo;
pub mod cluster;
pub mod constraint;
pub mod energy;
pub mod index;
pub mod model;

pub use algo::{PlacementAlgorithm, PlacementResult, Placer};
pub use cluster::{ArrivalOrder, Cluster};
pub use constraint::ConstraintMode;
pub use index::ResidualIndex;
pub use model::{NodeBin, PlacementRequest};
