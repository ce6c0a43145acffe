//! Content-addressed persistent result store for incremental reproduction.
//!
//! The `reproduce` binary re-simulates every campaign from scratch on each
//! invocation even when nothing changed. This crate provides the substrate
//! that makes re-runs incremental, with zero dependencies beyond `std`:
//!
//! * [`codec`] — a deterministic little-endian byte codec ([`Writer`] /
//!   [`Reader`]) and the [`Persist`] trait. The byte layout is a pure
//!   function of the value, which is what makes content addressing sound:
//!   hashing the encoding of a cache key is stable across runs, worker
//!   counts, and platforms.
//! * [`fnv`] — FNV-1a 64-bit hashing over encoded bytes, used both for the
//!   content address of a cache key and for the payload checksum that
//!   detects on-disk corruption.
//! * [`disk`] — [`DiskStore`], an append-only log of `key -> payload`
//!   records with a versioned header and checksummed payloads: each store
//!   handle appends to one segment file of its own, and every handle
//!   indexes every segment in the directory. Corrupt, truncated, or
//!   foreign records are treated as misses, never errors: a damaged cache
//!   degrades to simulation, it cannot poison results.
//!
//! The store is value-agnostic: callers encode their own payloads (see
//! `bvf_gpu`'s `Persist` impls and `bvf_sim::store::ResultStore`) and the
//! disk layer only sees bytes. Hit/miss/corruption counters are kept on
//! the store itself so campaign telemetry can report cache effectiveness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod disk;
pub mod fnv;

pub use codec::{CodecError, Persist, Reader, Writer};
pub use disk::{DiskStore, StoreStats};
pub use fnv::{fnv1a, Fnv64};
