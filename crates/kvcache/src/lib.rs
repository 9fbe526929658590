//! Paged KV-cache management and the PIM-aware K/V layout (vLLM substitute).
//!
//! NeuPIMs adopts vLLM's page-based KV-cache allocation (Section 2.2) so
//! memory is committed as sequences actually grow, which "effectively
//! increases the batch size significantly". This crate provides:
//!
//! * [`geometry::KvGeometry`] — the Section 6.3 memory layout: how K rows
//!   and transposed V runs map onto banks and pages, and the exact tile /
//!   GWRITE counts Algorithm 1's latency estimator consumes;
//! * [`pool::PagePool`] — an exact page-granular allocator with physical
//!   `(bank, row)` placement, used by functional paths and tests;
//! * [`cache::PagedKvCache`] — count-based per-channel accounting used by
//!   the system simulator at scale (admission, per-token growth, release,
//!   out-of-memory signaling, and the vLLM preempt/restore lifecycle —
//!   see [`cache::PagedKvCache::preempt`]).
//!
//! # Example
//!
//! ```
//! use neupims_kvcache::{KvGeometry, PagedKvCache};
//! use neupims_types::{ChannelId, LlmConfig, MemConfig, RequestId};
//!
//! let model = LlmConfig::gpt3_7b();
//! let geo = KvGeometry::for_model(&model, &MemConfig::table2());
//! let mut kv = PagedKvCache::new(&MemConfig::table2(), geo, model.num_layers);
//! kv.admit(RequestId::new(0), ChannelId::new(3), 80).unwrap();
//! kv.append_token(RequestId::new(0)).unwrap();
//! assert!(kv.utilization() > 0.0);
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod geometry;
pub mod pool;

pub use cache::{PagedKvCache, PreemptedKv};
pub use geometry::KvGeometry;
pub use pool::{PageId, PagePool};
