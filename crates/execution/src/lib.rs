//! Deterministic execution engine.
//!
//! Consensus only orders transactions; this crate executes them. Execution
//! must be deterministic ("on identical inputs, execution of a transaction
//! must always produce identical outcomes", Section III-A) so that all
//! non-faulty replicas converge on the same state and produce identical
//! client replies. The engine executes ordered batches against the storage
//! substrate (`rcc-storage`), appends the resulting block to the ledger, and
//! produces the per-client replies that replicas send back.
//!
//! Execution comes in two provably equivalent flavours: the sequential
//! path the deployed node runs, and a conflict-aware parallel path
//! ([`conflict`]) that executes non-conflicting transactions of a released
//! round concurrently on a worker pool while conflicting ones keep the
//! agreed order. The parallel path measured slower than the sequential one
//! on the deployment; it stays as the deployment benchmark's comparison.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod conflict;
pub mod engine;
pub mod reply;

pub use conflict::{access_set, conflict_groups, AccessKey, AccessSet};
pub use engine::{ExecutionEngine, ExecutionSummary};
pub use reply::{ClientReply, ExecutionOutcome};
