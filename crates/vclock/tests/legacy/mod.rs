//! The original `Vec`-backed vector-clock representation, kept as a
//! differential oracle.
//!
//! [`vclock::VectorClock`] replaced this layout with an inline small-vector
//! plus copy-on-write representation (see `vector.rs`). This module preserves
//! the old implementation bit-for-bit so the differential tests
//! (`differential.rs`) can drive both layouts through identical operation
//! sequences and assert observational equality. It lives on the test side:
//! no library code uses it.

use std::fmt;

use vclock::{Clock, ThreadId};

/// The pre-overhaul vector clock: one heap-allocated `Vec` per clock.
///
/// Semantics are the reference: every operation on [`vclock::VectorClock`]
/// must be observationally identical to the same operation here.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct VectorClock {
    components: Vec<Clock>,
}

impl VectorClock {
    /// Creates an empty clock (all components 0).
    pub fn new() -> Self {
        VectorClock::default()
    }

    /// Creates a clock with a single nonzero component.
    pub fn singleton(thread: ThreadId, clock: Clock) -> Self {
        let mut cv = VectorClock::new();
        cv.set(thread, clock);
        cv
    }

    /// Returns the clock component for `thread` (0 if never set).
    pub fn get(&self, thread: ThreadId) -> Clock {
        self.components.get(thread.as_usize()).copied().unwrap_or(0)
    }

    /// Sets the clock component for `thread`.
    pub fn set(&mut self, thread: ThreadId, clock: Clock) {
        let idx = thread.as_usize();
        if idx >= self.components.len() {
            self.components.resize(idx + 1, 0);
        }
        self.components[idx] = clock;
    }

    /// Increments `thread`'s component and returns the new value.
    pub fn tick(&mut self, thread: ThreadId) -> Clock {
        let next = self.get(thread) + 1;
        self.set(thread, next);
        next
    }

    /// Joins `other` into `self` (component-wise maximum).
    pub fn join(&mut self, other: &VectorClock) {
        if other.components.len() > self.components.len() {
            self.components.resize(other.components.len(), 0);
        }
        for (mine, theirs) in self.components.iter_mut().zip(other.components.iter()) {
            *mine = (*mine).max(*theirs);
        }
    }

    /// Returns the component-wise maximum of two clocks.
    pub fn joined(&self, other: &VectorClock) -> VectorClock {
        let mut out = self.clone();
        out.join(other);
        out
    }

    /// Returns `true` if every component of `self` is `<=` the corresponding
    /// component of `other`.
    pub fn leq(&self, other: &VectorClock) -> bool {
        let shared = self.components.len().min(other.components.len());
        self.components[..shared]
            .iter()
            .zip(&other.components[..shared])
            .all(|(&mine, &theirs)| mine <= theirs)
            && self.components[shared..].iter().all(|&c| c == 0)
    }

    /// Strict happens-before: `self <= other` and `self != other`.
    pub fn happens_before(&self, other: &VectorClock) -> bool {
        self.leq(other) && !other.leq(self)
    }

    /// Returns `true` if neither clock happens before the other.
    pub fn concurrent_with(&self, other: &VectorClock) -> bool {
        !self.leq(other) && !other.leq(self)
    }

    /// Tests whether the single event `(thread, clock)` is contained in the
    /// prefix described by this clock vector.
    pub fn contains(&self, thread: ThreadId, clock: Clock) -> bool {
        clock <= self.get(thread)
    }

    /// Returns `true` if all components are zero.
    pub fn is_empty(&self) -> bool {
        self.components.iter().all(|&c| c == 0)
    }

    /// Number of allocated components (threads seen so far).
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// Iterates over `(thread, clock)` pairs with nonzero clocks.
    pub fn iter(&self) -> impl Iterator<Item = (ThreadId, Clock)> + '_ {
        self.components
            .iter()
            .enumerate()
            .filter(|(_, &c)| c != 0)
            .map(|(i, &c)| (ThreadId::new(i as u32), c))
    }

    /// Resets every component to zero.
    pub fn clear(&mut self) {
        self.components.clear();
    }
}

impl fmt::Display for VectorClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        let mut first = true;
        for (t, c) in self.iter() {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "{t}:{c}")?;
        }
        write!(f, "]")
    }
}

impl FromIterator<(ThreadId, Clock)> for VectorClock {
    fn from_iter<I: IntoIterator<Item = (ThreadId, Clock)>>(iter: I) -> Self {
        let mut cv = VectorClock::new();
        for (t, c) in iter {
            cv.set(t, c);
        }
        cv
    }
}
