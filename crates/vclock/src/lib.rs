//! Vector clocks, thread identifiers, and sequence numbers.
//!
//! This crate provides the clock machinery used throughout the Yashme
//! reproduction:
//!
//! * [`ThreadId`] — a dense identifier for a simulated thread.
//! * [`Clock`] — a per-thread logical clock value (the labels the paper
//!   assigns to individual events within a thread).
//! * [`Seq`] — a *global* sequence number recording the total order in which
//!   stores, `clflush`, and `sfence` instructions take effect on the cache
//!   (the paper's `σ_curr` counter, §6).
//! * [`VectorClock`] — a map from threads to clocks used to compute the
//!   happens-before relation and the consistent-prefix clock vector `CVpre`.
//!
//! # Examples
//!
//! ```
//! use vclock::{ThreadId, VectorClock};
//!
//! let t0 = ThreadId::new(0);
//! let t1 = ThreadId::new(1);
//! let mut a = VectorClock::new();
//! a.tick(t0); // t0 performs an event
//! let mut b = VectorClock::new();
//! b.tick(t1);
//! b.join(&a); // t1 acquires from t0
//! assert!(a.happens_before(&b));
//! assert!(!b.happens_before(&a));
//! ```

mod clock;
mod vector;

pub use clock::{Clock, Seq, SeqCounter, ThreadId};
pub use vector::VectorClock;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_id_roundtrip() {
        let t = ThreadId::new(7);
        assert_eq!(t.index(), 7);
        assert_eq!(format!("{t}"), "T7");
    }

    #[test]
    fn send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ThreadId>();
        assert_send_sync::<VectorClock>();
        assert_send_sync::<SeqCounter>();
    }
}
