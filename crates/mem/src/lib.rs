//! Memory-management substrate for the Leap reproduction.
//!
//! The paper's system lives inside the Linux virtual memory subsystem. This
//! crate models the pieces of that subsystem the evaluation depends on,
//! without any kernel code:
//!
//! - [`types`]: process ids, virtual page numbers, swap slots, frame ids.
//! - [`frames`]: a fixed pool of physical frames ([`FramePool`]).
//! - [`page_table`]: per-process page tables mapping virtual pages to frames
//!   or swap slots, with the resident pages in LRU order ([`PageTable`]).
//! - [`swap`]: the shared, sequentially laid-out swap space
//!   ([`SwapSpace`]) — all processes allocate slots from the same area, which
//!   is why consecutive slots can belong to different processes (§2.3).
//! - [`lru`]: the LRU list the swap-cache reclaimers order pages with
//!   ([`LruList`]).
//! - [`swap_cache`]: the swap/prefetch cache ([`SwapCache`]) holding pages
//!   brought in from the slower tier before they are mapped.
//! - [`sharded`]: per-core shards of both ([`ShardedSwap`],
//!   [`ShardedSwapCache`]) for the multi-core scheduled replays.
//! - [`cgroup`]: cgroup-style per-process memory limits ([`MemoryLimit`]).

pub mod cgroup;
pub mod frames;
pub mod lru;
pub mod page_table;
pub mod sharded;
pub mod swap;
pub mod swap_cache;
pub mod types;

pub use cgroup::MemoryLimit;
pub use frames::FramePool;
pub use lru::LruList;
pub use page_table::{PageState, PageTable};
pub use sharded::{ShardedSwap, ShardedSwapCache};
pub use swap::SwapSpace;
pub use swap_cache::{CacheEntry, CacheOrigin, SwapCache};
pub use types::{FrameId, Pid, SwapSlot, VirtPage};
