//! Application-level benchmarks: Memcached-pmem and Redis-pmem.
//!
//! §7.1: "Redis is a popular in-memory database ... ported by Intel to use
//! both DRAM and persistent memory. It uses PMDK's transaction APIs ...
//! Memcached is a high-performance distributed memory caching system ported
//! to use persistent memory. This in-memory key-value store uses low-level
//! libpmem APIs to flush cache lines." As in the paper, each app is driven
//! by a client that modifies the server "using insertion and lookup
//! operations" — here a separate simulated thread sending commands through
//! a shared queue.
//!
//! Table 4 bugs #2–#5 live in memcached's pslab allocator and item
//! metadata; Redis exposes the PMDK ulog race but nothing new.

pub mod client;
pub mod memcached;
pub mod redis;
pub mod traffic;

/// Table 4 race labels for memcached-pmem.
pub mod labels {
    /// Bug #2: `valid` in `pslab_pool_t` (`pslab.c`).
    pub const PSLAB_VALID: &str = "pslab_pool.valid (pslab.c)";
    /// Bug #3: `id` in `pslab_t` (`pslab.c`).
    pub const PSLAB_ID: &str = "pslab.id (pslab.c)";
    /// Bug #4: `it_flags` in `item_chunk` (`memcached.h`).
    pub const ITEM_IT_FLAGS: &str = "item.it_flags (memcached.h)";
    /// Bug #5: `cas` in `item` (`items.c`).
    pub const ITEM_CAS: &str = "item.cas (items.c)";
}

/// Runs `program` once, with no detector, on the random schedule and
/// persistence cut drawn from `seed`: drives a unit test's own assertions.
#[cfg(test)]
pub(crate) fn run_once(program: &jaaru::Program, seed: u64) -> jaaru::SingleRun {
    jaaru::Engine::run_single(
        program,
        jaaru::SchedPolicy::RandomChoice,
        jaaru::PersistencePolicy::Random,
        seed,
        None,
        Box::new(jaaru::NullSink),
    )
}
