//! Named mutexes for lock-order analysis.
//!
//! [`OrderedMutex`] wraps the facade [`Mutex`](crate::Mutex) with a *lock
//! class*: a `&'static str` naming the role of the lock (e.g.
//! `"storage.cluster.port_map"`). Classes are dotted identifiers without
//! whitespace: they are written verbatim into a column of the recorded
//! event log.
//!
//! Two analyses key on the class, never on the instance, so replicas of
//! one structure obey one ordering discipline and classes must name roles,
//! not objects:
//!
//! * the static `syncgraph` scan in dooc-check reads each
//!   `OrderedMutex::new("<class>"` declaration and the `.lock()` nestings
//!   in the source;
//! * while [`record`](crate::record) is armed, every [`OrderedMutex::lock`]
//!   logs its class next to the inner mutex's acquire, and the dooc-race
//!   replay builds the held → acquired class graph from the log, reporting
//!   cycles and same-class nesting with their acquisition sites.
//!
//! Otherwise the wrapper is a plain facade mutex plus a `&'static str` it
//! never consults. The guard is its own type so a classed lock cannot be
//! handed to a condvar wait, which would release and retake it behind the
//! log's back.

use crate::record::{self, RecOp};
use crate::{Mutex, MutexGuard};
use std::ops::{Deref, DerefMut};

/// A mutex carrying a lock-order class (see the module docs).
pub struct OrderedMutex<T> {
    class: &'static str,
    inner: Mutex<T>,
}

impl<T> OrderedMutex<T> {
    /// Wraps `value` under lock class `class`.
    pub const fn new(class: &'static str, value: T) -> Self {
        Self {
            class,
            inner: Mutex::new(value),
        }
    }

    /// The lock class this mutex was declared with.
    pub fn class(&self) -> &'static str {
        self.class
    }

    /// Acquires the lock; while recording is armed, logs the class against
    /// the inner mutex so the race replay can order it.
    #[inline]
    #[track_caller]
    pub fn lock(&self) -> OrderedMutexGuard<'_, T> {
        let inner = self.inner.lock();
        record::ev(RecOp::Class(self.class), record::addr_of(&self.inner));
        OrderedMutexGuard { inner }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }

    /// Consumes the mutex, returning the value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for OrderedMutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OrderedMutex")
            .field("class", &self.class)
            .finish_non_exhaustive()
    }
}

/// Guard returned by [`OrderedMutex::lock`].
pub struct OrderedMutexGuard<'a, T> {
    inner: MutexGuard<'a, T>,
}

impl<T> Deref for OrderedMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> DerefMut for OrderedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_round_trips_value() {
        let m = OrderedMutex::new("test.sync.value", 41);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 42);
        assert_eq!(m.class(), "test.sync.value");
        assert_eq!(m.into_inner(), 42);
    }
}
