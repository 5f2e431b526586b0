//! # wishbranch-mem
//!
//! The cache/memory timing model of the baseline machine (Table 2 of the
//! paper):
//!
//! * 64 KB, 4-way, 2-cycle I-cache;
//! * 64 KB, 4-way, 2-cycle L1 data cache;
//! * 1 MB, 8-way, 6-cycle unified L2;
//! * 300-cycle minimum memory latency;
//! * 64 B lines, LRU replacement everywhere.
//!
//! Two data-side timing models share this geometry:
//!
//! * the **flat latency model** (default): an access returns the number of
//!   cycles until its data is available and the line fills immediately —
//!   misses block nothing and memory-level parallelism is unbounded
//!   (optionally capped by the `max_outstanding_misses` queueing knob of
//!   the `abl_mshr` study);
//! * the **non-blocking model** ([`MemConfig::realistic`]): per-level
//!   finite MSHR files ([`MshrFile`]) on the I-cache, L1D and L2, with
//!   same-line miss coalescing, fills that land at a future cycle instead
//!   of instantly, an [`AccessOutcome::MshrFull`] refusal when every MSHR
//!   is busy, an optional per-PC [`StridePrefetcher`] plus next-line
//!   instruction prefetch, an asynchronous [`WriteBuffer`] for executed
//!   stores ([`MemConfig::write_buffer_entries`]) and a per-cycle
//!   data-port limit ([`MemConfig::data_ports`]).
//!
//! Bus contention is still not modelled (see DESIGN.md); port/bank
//! conflicts are approximated by the single-bank `data_ports` limit, and
//! the 4:1 core-to-memory frequency ratio and 32 banks of the paper's
//! table are folded into the flat 300-cycle memory latency.
//! Store-to-load forwarding ([`MemConfig::store_forwarding`]) is enforced
//! by the core's store queue, which owns the in-flight store addresses.
//!
//! # Example
//!
//! ```
//! use wishbranch_mem::{MemoryHierarchy, MemConfig};
//!
//! let mut mem = MemoryHierarchy::new(MemConfig::default());
//! let cold = mem.data_access_at(0x1000, false, 0);
//! let warm = mem.data_access_at(0x1008, false, 0); // same 64B line
//! assert!(cold > warm);
//! assert_eq!(warm, 2); // L1 hit
//! ```
//!
//! The non-blocking model instead reports *when* the data arrives:
//!
//! ```
//! use wishbranch_mem::{AccessOutcome, MemConfig, MemoryHierarchy};
//!
//! let mut cfg = MemConfig::default();
//! cfg.realistic = true;
//! let mut mem = MemoryHierarchy::new(cfg);
//! match mem.data_access_nonblocking(0x1000, false, /*pc=*/ 1, /*now=*/ 0) {
//!     AccessOutcome::Pending(fill_at) => assert_eq!(fill_at, 2 + 6 + 300),
//!     other => panic!("cold miss: {other:?}"),
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod hierarchy;
mod mshr;
mod prefetch;
mod writebuf;

pub use cache::{Cache, CacheConfig, CacheStats};
pub use hierarchy::{AccessOutcome, MemConfig, MemoryHierarchy, StoreOutcome};
pub use mshr::{MshrEntry, MshrFile};
pub use prefetch::StridePrefetcher;
pub use writebuf::WriteBuffer;
