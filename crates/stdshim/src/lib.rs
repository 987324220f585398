#![warn(missing_docs)]

//! Zero-dependency standard-library shims for the HotC workspace.
//!
//! The workspace builds offline with no registry crates; this crate hosts
//! the small pieces that third-party crates used to provide:
//!
//! * [`sync`] — non-poisoning `Mutex`/`RwLock` wrappers over `std::sync`
//!   with parking_lot-style ergonomics (`.lock()` returns the guard), a
//!   debug-build lock-order sanitizer (class labels, ABBA cycle detection,
//!   re-entry detection, [`sync::request_path_scope`]), and the lock-free
//!   slot primitives the warm path is built on ([`sync::SlotBitmap`],
//!   [`sync::LazySlotTable`]),
//! * [`json`] — a JSON tree ([`json::JsonValue`]) with a hand-written
//!   serializer and parser, plus the [`json::ToJson`] trait that result
//!   structs implement instead of deriving `serde::Serialize`, and
//! * [`hash`] — an FxHash-style fast hasher ([`hash::FastMap`]) for maps
//!   keyed by internal integers on the request path,
//! * [`atomic`] — the protocol-atomic facade: zero-cost `std::sync::atomic`
//!   re-exports in normal builds, instrumented model types under
//!   `--cfg hotc_model`, and
//! * [`model`] — a loom-style bounded model checker (controlled scheduler,
//!   weak-memory store model, DFS over interleavings) that the `hotc-model`
//!   crate runs against the lock-free slot protocol.
//!
//! Everything here is std-only and auditable in one sitting; the hermeticity
//! guard test (`tests/hermetic.rs` at the workspace root) enforces that it
//! stays that way.

pub mod atomic;
pub mod hash;
pub mod json;
pub mod model;
pub mod sync;
mod sync_slots;

pub use hash::{FastBuildHasher, FastHasher, FastMap, FastSet};
pub use json::{JsonValue, ToJson};
pub use sync::{request_path_scope, LazySlotTable, MarkSet, Mutex, RwLock, SlotBitmap};
