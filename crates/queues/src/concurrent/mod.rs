//! Concurrent schedulers: the structures the paper's §4 experiments run on.
//!
//! * [`MultiQueue`] — the lock-based MultiQueue of Rihani–Sanders–Dementiev
//!   \[21\]: `c·threads` binary heaps behind try-locks, power-of-two-choices
//!   deletion.
//! * [`LockFreeMultiQueue`] — the paper's own variant ("we use lock-free
//!   lists to maintain the individual priority queues"), built on
//!   [`HarrisList`] with pluggable reclamation (epoch-based by default,
//!   version-based via [`crate::reclaim::Vbr`]).
//! * [`SprayList`] — the lock-free skiplist with spray deletion of Alistarh
//!   et al. \[3\], the second realistic scheduler satisfying Definition 1.
//! * [`BulkMultiQueue`] — a MultiQueue whose internal queues are sorted
//!   runs consumed from the front plus small overflow heaps: the
//!   cache-friendly `O(1)`-pop variant for the framework's prefilled
//!   workload (the performance analogue of the paper's list-based queues).
//! * [`FaaArrayQueue`] — the exact scheduler baseline: a prefilled
//!   priority-sorted array popped with one `fetch_add` per operation,
//!   standing in for the wait-free queue of \[27\] (see DESIGN.md
//!   substitution #2).

mod bulk_multiqueue;
mod faa_queue;
mod lf_list;
mod lf_multiqueue;
mod multiqueue;
mod spraylist;

pub use bulk_multiqueue::BulkMultiQueue;
pub use faa_queue::FaaArrayQueue;
pub use lf_list::HarrisList;
pub use lf_multiqueue::LockFreeMultiQueue;
pub use multiqueue::MultiQueue;
pub use spraylist::SprayList;
