//! Mutation harness: prove the checker has teeth.
//!
//! `ModelSlots::publish_avail_weak` is the real publish sequence with the
//! final `avail` bit-set deliberately weakened from `Release` to `Relaxed`.
//! Without the release edge a racing `claim_warm` may win the bit yet read
//! the entry word stale (zero) — tripping `claim_warm`'s own
//! `debug_assert_ne!(entry, 0, "claimed an avail bit over an empty slot")`.
//! If the checker ever stops finding that schedule, the memory model has
//! silently gone strong and every clean protocol report is worthless.
//!
//! `ModelSlots::hand_back_split_mark` is the real hand-back with its mark
//! RMW split into a load and a store. An eviction drain that clears the
//! key's marks between the two is overwritten, the hand-back (having
//! loaded a nonzero mark) never re-marks the key, and the drain — not
//! synchronized with the hand-back — may read `avail` without its bit:
//! an available container the eviction index never learns about.
//!
//! `ModelSlots::park_split` is the real park with its CAS split into a
//! load and a store. A warm acquire whose increment lands between the two
//! reads no flag and sets no wake bit, and the store overwrites its
//! increment: the key stays parked through an acquisition the controller
//! never sees.
#![cfg(hotc_model)]

use containersim::ContainerId;
use hotc::shard::model_api::ModelSlots;
use hotc_model::{spawn, Checker};
use std::sync::Arc;

const C1: ContainerId = ContainerId(7);

/// The racing shape: one publisher, one claimer, both spawned so the claim
/// carries no spawn-edge visibility of the publish.
fn race(weak: bool) -> impl Fn() + Send + Sync + 'static {
    move || {
        let s = Arc::new(ModelSlots::new(1));
        let s2 = Arc::clone(&s);
        let publisher = spawn(move || {
            let published = if weak {
                s2.publish_avail_weak(C1, true)
            } else {
                s2.publish_avail(C1, true)
            };
            assert!(published.is_some(), "the one slot was free");
        });
        let s3 = Arc::clone(&s);
        let claimer = spawn(move || {
            if let Some((_, c, execed)) = s3.claim_warm() {
                assert_eq!((c, execed), (C1, true), "torn publish observed");
            }
        });
        publisher.join();
        claimer.join();
    }
}

#[test]
fn relaxed_publish_mutation_is_caught() {
    let report = Checker::new().preemption_bound(2).try_check(race(true));
    let v = report
        .violation
        .expect("weakened publish must leak a torn entry to some schedule");
    assert!(
        v.message.contains("empty slot") || v.message.contains("torn publish"),
        "violation names the stale read: {}",
        v.message
    );
    assert!(!v.schedule.is_empty(), "schedule is replayable");
    let rendered = v.render();
    assert!(rendered.contains("replay choice vector"), "{rendered}");
    assert!(rendered.contains("execution trace"), "{rendered}");
}

#[test]
fn release_publish_survives_the_same_race() {
    // Control arm: identical shape, real ordering — the checker must
    // exhaust the tree clean, or the mutation test above proves nothing.
    let report = Checker::new().preemption_bound(2).try_check(race(false));
    assert!(
        report.violation.is_none(),
        "real publish ordering is correct: {:?}",
        report.violation
    );
    assert!(report.complete, "tree exhausted within budget");
}

/// The eviction-dirty race: a hand-back (avail bit-set, then the mark
/// RMW) against the evictor's drain (take the mark set, clear the key's
/// mark count, then read `avail`). The key starts marked by an earlier
/// hand-back — the case where the racing hand-back must not re-mark.
fn mark_race(split: bool) -> impl Fn() + Send + Sync + 'static {
    move || {
        let s = Arc::new(ModelSlots::new(1));
        s.publish_avail(C1, true).expect("free slot");
        let (i, _, _) = s.claim_warm().expect("setup claim");
        assert!(s.try_claim_release(i, C1));
        s.hand_back(i, C1);
        let (i, _, _) = s.claim_warm().expect("setup re-claim");
        assert!(s.try_claim_release(i, C1));
        let s2 = Arc::clone(&s);
        let releaser = spawn(move || {
            if split {
                s2.hand_back_split_mark(i, C1);
            } else {
                s2.hand_back(i, C1);
            }
        });
        let seen = s.drain_marks();
        releaser.join();
        assert!(s.avail_contains(C1), "handed-back container is available");
        assert!(
            seen.contains(&C1) || s.is_marked(),
            "available container lost: the drain missed it and the key is unmarked"
        );
    }
}

#[test]
fn split_mark_mutation_is_caught() {
    let report = Checker::new()
        .preemption_bound(2)
        .try_check(mark_race(true));
    let v = report
        .violation
        .expect("a load-then-store mark must lose a hand-back in some schedule");
    assert!(
        v.message.contains("available container lost"),
        "{}",
        v.message
    );
}

#[test]
fn mark_rmw_survives_the_same_race() {
    // Control arm: the real hand-back must exhaust the tree clean.
    let report = Checker::new()
        .preemption_bound(2)
        .try_check(mark_race(false));
    assert!(report.violation.is_none(), "{:?}", report.violation);
    assert!(report.complete, "tree exhausted within budget");
}

/// The park race: the controller parks an idle key (one available
/// container, in-use count zero, watermark reset by the snapshot) while a
/// request acquires and releases that container lock-free. The acquire
/// must be either seen by the park (which then refuses) or woken by it.
fn park_race(split: bool) -> impl Fn() + Send + Sync + 'static {
    move || {
        let s = Arc::new(ModelSlots::new(1));
        s.publish_avail(C1, true).expect("free slot");
        let s2 = Arc::clone(&s);
        let request = spawn(move || {
            let (i, c, _) = s2.claim_warm().expect("the idle container is available");
            assert!(s2.try_claim_release(i, c));
            s2.hand_back(i, c);
        });
        let parked = if split { s.park_split() } else { s.park() };
        request.join();
        assert_eq!(s.in_use_total(), 0, "in-use count lost an update");
        assert!(
            !parked || s.is_woken(),
            "acquire lost: the key parked and nothing woke it"
        );
    }
}

#[test]
fn split_park_mutation_is_caught() {
    let report = Checker::new()
        .preemption_bound(2)
        .try_check(park_race(true));
    let v = report
        .violation
        .expect("a load-then-store park must lose an acquire in some schedule");
    assert!(
        v.message.contains("acquire lost") || v.message.contains("lost an update"),
        "{}",
        v.message
    );
}

#[test]
fn park_cas_survives_the_same_race() {
    // Control arm: the real park must exhaust the tree clean.
    let report = Checker::new()
        .preemption_bound(2)
        .try_check(park_race(false));
    assert!(report.violation.is_none(), "{:?}", report.violation);
    assert!(report.complete, "tree exhausted within budget");
}
