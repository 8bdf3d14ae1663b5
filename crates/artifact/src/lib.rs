//! # psn-artifact
//!
//! Content-addressed memoization for the expensive intermediate artifacts
//! every study is a view over: the generated [`psn_trace::ContactTrace`],
//! its [`psn_spacetime::SpaceTimeGraph`], the
//! [`psn_forwarding::HistoryTimeline`], and whole per-cell study results.
//!
//! Every paper figure — and every cell of a parameter sweep — is a
//! deterministic function of `(scenario config, study parameters)`. The
//! study pipeline therefore addresses artifacts by the **structural
//! fingerprint** of what produced them ([`psn_trace::Fingerprint`], hashed
//! over the config document model so TOML/JSON spellings and field
//! orderings of one scenario share a key) and resolves them through an
//! [`ArtifactStore`]:
//!
//! * a **memory tier**: `Arc`-shared artifacts behind a mutex-protected
//!   map, with exactly-once builds under concurrency (workers that race on
//!   a key block on a latch instead of duplicating the build) and
//!   LRU eviction against a byte budget;
//! * an optional **disk tier** ([`DiskTier`], `--cache DIR` in the CLI):
//!   traces in a versioned hand-rolled binary codec ([`codec`]) and study
//!   results as `psn-report/1` JSON, each collision-checked against a
//!   canonical identity sidecar — this is what makes interrupted
//!   multi-thousand-cell sweeps restartable (`sweep --resume`).
//!
//! Correctness stance: caching must be **observationally invisible**. A
//! warm run returns bit-identical reports to a cold one (the study layer
//! pins this with differential tests), every fingerprint hit re-checks the
//! full canonical identity so a hash collision fails loudly rather than
//! serving the wrong artifact, and on-disk artifacts that fail to decode
//! (truncated write, stale format, identity mismatch) are quarantined into
//! `corrupt/` and rebuilt — never served, never fatal.
//!
//! Failure stance: every user-reachable failure is a typed
//! [`ArtifactError`], never a panic — this crate denies
//! `clippy::unwrap_used`/`expect_used` outside tests to keep it that way.
//! Failpoint sites (`disk.read-trace`, `disk.write-trace`,
//! `disk.read-result`, `disk.write-result`, `codec.decode-trace`) let the
//! chaos suite inject deterministic IO errors, corruption, delays and
//! panics via `PSN_FAULTS` (see [`psn_fault`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod codec;
pub mod disk;
pub mod error;
pub mod spill;
pub mod store;

pub use disk::DiskTier;
pub use error::ArtifactError;
pub use psn_trace::fingerprint::{Fingerprint, FingerprintHasher};
pub use spill::SlabSlotSpill;
pub use store::{ArtifactKey, ArtifactKind, ArtifactStore, BuiltArtifact, CacheSource, StoreStats};
