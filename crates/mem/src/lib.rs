//! Memory-management substrate for the Leap reproduction.
//!
//! The paper's system lives inside the Linux virtual memory subsystem. This
//! crate models the pieces of that subsystem the evaluation depends on,
//! without any kernel code:
//!
//! - [`types`]: process ids, virtual page numbers, swap slots.
//! - [`page_table`]: per-process page tables marking virtual pages resident
//!   or swapped out, with the resident pages in LRU order ([`PageTable`]).
//! - [`swap`]: the shared, sequentially laid-out swap space
//!   ([`SwapSpace`]) — all processes allocate slots from the same area, which
//!   is why consecutive slots can belong to different processes (§2.3).
//! - `swap_cache`: the swap/prefetch cache ([`SwapCache`]) holding pages
//!   brought in from the slower tier before they are mapped, each on the
//!   eviction list its [`EvictionPolicy`] puts it on, and the victim rules
//!   that drain those lists: Linux's lazy background reclaim and Leap's
//!   eager eviction ([`SwapCache::make_space`], [`EvictionReport`]).
//! - [`sharded`]: per-core shards of both ([`ShardedSwap`],
//!   [`ShardedSwapCache`]) for the multi-core scheduled replays.
//! - [`cgroup`]: cgroup-style per-process memory limits ([`MemoryLimit`]).

pub mod cgroup;
#[cfg(test)]
mod lru;
pub mod page_table;
pub mod sharded;
pub mod swap;
pub(crate) mod swap_cache;
pub mod types;

pub use cgroup::MemoryLimit;
#[cfg(test)]
use lru::LruList;
pub use page_table::{PageState, PageTable};
pub use sharded::{ShardedSwap, ShardedSwapCache};
pub use swap::SwapSpace;
pub use swap_cache::{CacheEntry, CacheOrigin, EvictionPolicy, EvictionReport, SwapCache};
pub use types::{Pid, SwapSlot, VirtPage};
