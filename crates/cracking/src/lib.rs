#![warn(missing_docs)]
//! # crackdb-cracking
//!
//! Selection-based database cracking (Idreos, Kersten, Manegold;
//! CIDR 2007) with ripple updates (SIGMOD 2007): the foundation and the
//! baseline of the SIGMOD 2009 sideways-cracking paper.
//!
//! Provided building blocks, all reused by `crackdb-core` for sideways
//! cracking:
//!
//! * [`avl::AvlTree`] — arena AVL tree with lazy deletion;
//! * [`crack`] — the crack-in-two / crack-in-three partition kernels;
//! * [`index::CrackerIndex`] — boundary bookkeeping + §3.3 histogram
//!   estimates;
//! * [`cracked::CrackedArray`] — a generic two-column cracked array with
//!   ripple insert/delete;
//! * [`column::CrackerColumn`] — the selection-cracking baseline
//!   (`crackers.select`) with pending-update queues;
//! * [`policy::CrackPolicy`] — pluggable pivot-choice strategies
//!   (standard / stochastic / coarse-granular) hardening cracking
//!   against adversarial workloads (sequential sweeps, hot-region
//!   skew);
//! * [`advisor::PolicyAdvisor`] — per-structure self-tuning: O(1)
//!   workload statistics ([`advisor::WorkloadStats`]) plus a pure
//!   decision function that resolves [`policy::CrackPolicy::Adaptive`]
//!   into one of the static strategies per query.

pub mod advisor;
pub mod arena;
pub mod avl;
pub mod column;
pub mod crack;
pub mod cracked;
pub mod index;
pub mod kernel;
pub mod policy;

pub use advisor::{retention_score, PolicyAdvisor, WorkloadStats};
pub use arena::{Arena, SlotId};
pub use column::CrackerColumn;
pub use crack::BoundKind;
pub use cracked::CrackedArray;
pub use index::{BoundaryKey, CrackerIndex, SizeEstimate};
pub use kernel::{active_kernel, CrackKernel};
pub use policy::{CrackPolicy, Span};
