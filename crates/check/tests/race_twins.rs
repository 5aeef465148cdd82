//! Seeded-race twin tests for the dooc-race happens-before detector.
//!
//! Every positive harness ("synchronization present, no race") has a
//! negative twin with the synchronization deliberately removed; the
//! detector must flag every twin and stay silent on every positive. Two
//! tiers:
//!
//! * **Recorded real runtime** (feature `record`): sibling OS threads
//!   spawned through the facade annotate conflicting accesses to one
//!   shared address. The racy twins (feature `seeded-race`, never on
//!   outside these tests) skip the lock / use `Relaxed` atomics; the clean
//!   twins hold a facade `Mutex` or use release/acquire edges. The
//!   lock-order twin takes two `OrderedMutex` classes in a consistent
//!   order on both threads; its seeded twin inverts the order on the
//!   second thread, which the replay must report as a cycle.
//! * **Explored model runtime** (feature `model`): the same twins run
//!   under dooc-shuttle, which race-checks every explored schedule. The
//!   racy twin must fail with [`FailureKind::Race`] and a replayable
//!   schedule token across the explored schedules; the locked twin must
//!   stay clean over the same schedule count.
//!
//! Run with:
//!
//! ```text
//! cargo test -p dooc-check --features record,seeded-race --test race_twins
//! cargo test -p dooc-check --features model,seeded-race --test race_twins
//! ```

#![cfg(any(feature = "record", feature = "model"))]

use dooc_sync::record;
use dooc_sync::{thread, Mutex, OrderedMutex};
use std::sync::Arc;

/// Stable per-allocation address for annotation purposes.
fn addr<T>(cell: &Arc<T>) -> usize {
    Arc::as_ptr(cell) as usize
}

/// Runs `f` as a recorded session (exclusive: the recorder is process
/// global) and returns the analyzed report.
fn recorded(f: impl FnOnce()) -> dooc_check::race::RaceReport {
    let _session = record::session();
    record::clear();
    record::arm();
    f();
    record::disarm();
    let log = record::take_log();
    dooc_check::race::analyze(&log).expect("recorded log parses")
}

/// Two sibling threads each write the shared cell under the mutex: every
/// write pair is ordered by the lock's release→acquire edges.
fn locked_siblings() {
    let cell = Arc::new(Mutex::new(0u64));
    let handles: Vec<_> = (0..2)
        .map(|i| {
            let c = Arc::clone(&cell);
            thread::spawn(move || {
                let mut g = c.lock();
                record::data_write(addr(&c));
                *g += i;
            })
        })
        .collect();
    for h in handles {
        h.join().expect("locked sibling");
    }
}

/// Twin of [`locked_siblings`] with the lock deliberately not held around
/// the annotated write: sibling threads have no happens-before edge, so
/// the two writes race.
#[cfg(feature = "seeded-race")]
fn racy_siblings() {
    let cell = Arc::new(Mutex::new(0u64));
    let handles: Vec<_> = (0..2)
        .map(|i| {
            let c = Arc::clone(&cell);
            thread::spawn(move || {
                record::data_write(addr(&c));
                let mut g = c.lock();
                *g += i;
            })
        })
        .collect();
    for h in handles {
        h.join().expect("racy sibling");
    }
}

/// Release/acquire atomic handoff: the writer publishes with a `Release`
/// store, the reader spins on an `Acquire` load — the annotated write and
/// read are ordered through the atomic edge.
fn published_handoff(release: bool) {
    use dooc_sync::atomic::{AtomicBool, Ordering};
    let cell = Arc::new(AtomicBool::new(false));
    let flag = Arc::new(AtomicBool::new(false));
    let (c2, f2) = (Arc::clone(&cell), Arc::clone(&flag));
    let (store, load) = if release {
        (Ordering::Release, Ordering::Acquire)
    } else {
        (Ordering::Relaxed, Ordering::Relaxed)
    };
    let writer = thread::spawn(move || {
        record::data_write(addr(&c2));
        f2.store(true, store);
    });
    while !flag.load(load) {
        std::hint::spin_loop();
    }
    record::data_read(addr(&cell));
    writer.join().expect("writer");
}

/// Two sequential threads each nest two classed mutexes; the second
/// thread takes them in the opposite order when `invert`. The threads never
/// overlap, so the run cannot deadlock: only the recorded order shows it.
fn nested_classes(invert: bool) {
    let a = Arc::new(OrderedMutex::new("twin.order.a", ()));
    let b = Arc::new(OrderedMutex::new("twin.order.b", ()));
    for second in [false, true] {
        let (a, b) = (Arc::clone(&a), Arc::clone(&b));
        thread::spawn(move || {
            if second && invert {
                let _gb = b.lock();
                let _ga = a.lock();
            } else {
                let _ga = a.lock();
                let _gb = b.lock();
            }
        })
        .join()
        .expect("nesting thread");
    }
}

// ---------------------------------------------------------------------------
// Recorded real-runtime twins.
// ---------------------------------------------------------------------------

#[test]
fn recorded_consistent_lock_order_is_clean() {
    let report = recorded(|| nested_classes(false));
    assert!(report.clean(), "{}", report.render());
    assert_eq!(report.lock_edges.len(), 1, "{}", report.render());
}

#[cfg(feature = "seeded-race")]
#[test]
fn recorded_inverted_lock_order_is_caught() {
    let report = recorded(|| nested_classes(true));
    assert!(!report.clean(), "{}", report.render());
    assert_eq!(report.lock_cycles.len(), 1, "{}", report.render());
    let cycle = &report.lock_cycles[0].0;
    assert_eq!(cycle.len(), 2, "{}", report.render());
    // Every acquisition site of the cycle points into this file.
    for e in cycle {
        assert!(
            e.held.site.contains("race_twins.rs") && e.acquired.site.contains("race_twins.rs"),
            "{e}"
        );
    }
}

#[test]
fn recorded_locked_siblings_are_clean() {
    let report = recorded(locked_siblings);
    assert!(report.clean(), "{}", report.render());
}

#[cfg(feature = "seeded-race")]
#[test]
fn recorded_racy_siblings_are_caught() {
    let report = recorded(racy_siblings);
    assert!(!report.races.is_empty(), "{}", report.render());
    let r = &report.races[0];
    assert_eq!(r.kind, dooc_check::race::RaceKind::WriteWrite, "{r}");
    // Both conflicting sites point into this file.
    assert!(
        r.first.site.contains("race_twins.rs") && r.second.site.contains("race_twins.rs"),
        "{r}"
    );
}

#[test]
fn recorded_release_acquire_handoff_is_clean() {
    let report = recorded(|| published_handoff(true));
    assert!(report.clean(), "{}", report.render());
}

#[cfg(feature = "seeded-race")]
#[test]
fn recorded_relaxed_handoff_is_caught() {
    // Relaxed atomics really do order the spin loop at runtime (x86 gives
    // it away for free), but carry no happens-before edge: the detector
    // must still flag the annotated pair.
    let report = recorded(|| published_handoff(false));
    assert!(!report.races.is_empty(), "{}", report.render());
    assert_eq!(
        report.races[0].kind,
        dooc_check::race::RaceKind::WriteRead,
        "{}",
        report.races[0]
    );
}

// ---------------------------------------------------------------------------
// Explored model-runtime twins: dooc-shuttle race-checks every schedule.
// ---------------------------------------------------------------------------

#[cfg(feature = "model")]
mod explored {
    use super::*;
    #[cfg(feature = "seeded-race")]
    use dooc_check::explore::replay;
    use dooc_check::explore::{explore, ExploreOpts};
    #[cfg(feature = "seeded-race")]
    use dooc_sync::model::FailureKind;

    /// At least four distinct schedules per twin (acceptance floor).
    fn opts() -> ExploreOpts {
        ExploreOpts {
            seeds: 8,
            dfs: true,
            dfs_budget: 64,
            ..ExploreOpts::default()
        }
    }

    #[test]
    fn explored_locked_siblings_are_clean_across_schedules() {
        let report = explore("race_twin[locked]", opts(), locked_siblings);
        assert!(
            report.executions >= 4,
            "only {} schedules",
            report.executions
        );
        report.assert_clean("race_twin[locked]");
    }

    #[cfg(feature = "seeded-race")]
    #[test]
    fn explored_racy_siblings_fail_with_race_and_token_replays() {
        let report = explore("race_twin[racy]", opts(), racy_siblings);
        let case = report.expect_failure("race_twin[racy]");
        assert_eq!(case.failure.kind, FailureKind::Race);
        assert!(
            case.failure.message.contains("write/write"),
            "{}",
            case.failure.message
        );
        // The schedule token replays to the same race verdict. `replay`
        // runs outside the explorer, so record the window by hand. (The
        // event-sequence comparison used by the panic twins does not apply:
        // the race verdict is attached after the run, not raised inside it.)
        let replay_report = recorded(|| {
            let outcome = replay(&case.token, racy_siblings);
            assert!(
                outcome.failure.is_none(),
                "racy twin must not fail inside the scheduler: {:?}",
                outcome.failure
            );
        });
        assert!(
            !replay_report.races.is_empty(),
            "{}",
            replay_report.render()
        );
    }
}
