//! Events recorded by the execution engine.

pub use compiler_model::StoreBytes;
use pmem::{Addr, CacheLineId};
use px86::Atomicity;
use vclock::{Clock, ThreadId, VectorClock};

/// Identifier of one execution in the execution stack (`exec` in §6).
///
/// Execution 0 is the first pre-crash execution; each crash pushes a new
/// execution. `prev(e)` is simply `e - 1`.
pub type ExecId = usize;

/// Identifier of a store or flush event, unique across all executions of a
/// run.
pub type EventId = u64;

/// A label identifying the source-level location/field of an operation.
///
/// Benchmarks label their stores with the racy-field names the paper reports
/// (e.g. `"Pair.key"`, `"header.switch_counter"`); race reports are
/// de-duplicated by label, mirroring the paper's manual de-duplication
/// ("one variable can participate in multiple buggy scenarios", §7.2).
pub type Label = &'static str;

/// An instruction-level store event.
///
/// One source-level store produces one or more store events (several when the
/// modelled compiler tears it or invents stores). The event is created when
/// the store executes (enters the store buffer); its commit order is the
/// order of its line's store log in the memory system.
#[derive(Debug, Clone)]
pub struct StoreEvent {
    /// Unique id.
    pub id: EventId,
    /// Execution this store belongs to.
    pub exec: ExecId,
    /// Thread that performed the store.
    pub thread: ThreadId,
    /// The thread's vector clock at execution time (after ticking); this is
    /// the store's `CV_s`.
    pub cv: VectorClock,
    /// The storing thread's own clock component, cached for race checks.
    pub clock: Clock,
    /// Language-level atomicity.
    pub atomicity: Atomicity,
    /// First byte written.
    pub addr: Addr,
    /// The bytes written.
    pub bytes: StoreBytes,
    /// `true` if this is a compiler-invented temporary stash.
    pub invented: bool,
    /// Source label (racy-field name).
    pub label: Label,
}

impl StoreEvent {
    /// Length of the store in bytes.
    pub fn len(&self) -> u64 {
        self.bytes.len() as u64
    }

    /// Whether the store writes no bytes (never true for created events).
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// The cache line written (stores never straddle lines after lowering of
    /// aligned fields; for straddling ranges this is the *first* line, and
    /// the engine splits straddling chunks before creating events).
    pub fn line(&self) -> CacheLineId {
        self.addr.cache_line()
    }

    /// Whether this store covers the byte at `addr`.
    pub fn covers(&self, addr: Addr) -> bool {
        addr >= self.addr && addr < self.addr + self.len()
    }
}

/// The kind of a flush instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlushKind {
    /// `clflush`: evicts and writes back the line; ordered after stores.
    Clflush,
    /// `clwb`/`clflushopt`: writes back the line; persistence guaranteed
    /// only after a subsequent fence in the same thread.
    Clwb,
}

/// A `clflush`/`clwb` event.
#[derive(Debug, Clone)]
pub struct FlushEvent {
    /// Unique id.
    pub id: EventId,
    /// Execution this flush belongs to.
    pub exec: ExecId,
    /// Thread that performed the flush.
    pub thread: ThreadId,
    /// The thread's vector clock at execution time.
    pub cv: VectorClock,
    /// The flushing thread's own clock component.
    pub clock: Clock,
    /// Which flush instruction.
    pub kind: FlushKind,
    /// Address whose cache line is flushed.
    pub addr: Addr,
    /// Static site label of the flushing instruction (`""` when the
    /// benchmark used an unlabeled shim); feeds the coverage plane.
    pub label: Label,
}

impl FlushEvent {
    /// The flushed cache line.
    pub fn line(&self) -> CacheLineId {
        self.addr.cache_line()
    }
}

/// Description of a load, passed to the event sink for pre-crash-read checks.
#[derive(Debug, Clone)]
pub struct LoadInfo {
    /// Execution performing the load (the post-crash execution `E'`).
    pub exec: ExecId,
    /// Loading thread.
    pub thread: ThreadId,
    /// First byte read.
    pub addr: Addr,
    /// Number of bytes read.
    pub len: u64,
    /// Language-level atomicity of the load.
    pub atomicity: Atomicity,
    /// Label of the loading site, when provided by the benchmark.
    pub label: Label,
    /// `true` when the load happens inside a checksum-validation scope
    /// (`Ctx::set_checksum_scope`): races it observes are downgraded to
    /// benign reports (§7.5).
    pub validated: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(addr: u64, len: usize) -> StoreEvent {
        StoreEvent {
            id: 1,
            exec: 0,
            thread: ThreadId::MAIN,
            cv: VectorClock::new(),
            clock: 1,
            atomicity: Atomicity::Plain,
            addr: Addr(addr),
            bytes: vec![0; len][..].into(),
            invented: false,
            label: "x",
        }
    }

    #[test]
    fn covers_is_half_open() {
        let s = store(100, 8);
        assert!(s.covers(Addr(100)));
        assert!(s.covers(Addr(107)));
        assert!(!s.covers(Addr(108)));
        assert!(!s.covers(Addr(99)));
        assert_eq!(s.len(), 8);
    }

    #[test]
    fn line_of_store() {
        assert_eq!(store(64, 8).line(), CacheLineId(1));
    }

    #[test]
    fn a_store_event_stays_small_enough_to_move_without_memcpy() {
        // Creating an event moves it into the event table's slot; past
        // ~128 bytes those moves become `memcpy` calls.
        assert!(
            std::mem::size_of::<StoreEvent>() <= 136,
            "StoreEvent is {} bytes",
            std::mem::size_of::<StoreEvent>()
        );
    }
}
