//! Property test of the armed handle's per-kind index: over random plans,
//! [`FaultHandle::active`] must return exactly the event a linear scan of
//! the whole plan returns — the first event of the kind, in plan order,
//! covering the current time — for every kind and every probed time.

use pv_faults::{
    FaultEvent, FaultHandle, FaultKind, FaultPlan, ALL_KINDS, SESSION_KINDS, STORAGE_KINDS,
};
use pv_rng::{Rng, SeedableRng, StdRng};

/// Every kind, instrument, session and storage alike.
fn every_kind() -> Vec<FaultKind> {
    ALL_KINDS
        .iter()
        .chain(SESSION_KINDS.iter())
        .chain(STORAGE_KINDS.iter())
        .copied()
        .collect()
}

/// The reference: a linear scan of the whole plan.
fn linear_find(plan: &FaultPlan, kind: FaultKind, t: f64) -> Option<FaultEvent> {
    plan.events
        .iter()
        .find(|e| e.kind == kind && e.active_at(t))
        .cloned()
}

/// A plan drawing its kinds from a few of the 18, so windows of one kind
/// overlap and most kinds are absent. Start times and durations (at least
/// 0.5 s) sit on a 0.5 s grid, so clock steps of 0.25 s land exactly on
/// window edges; each event carries a distinct magnitude, so the test can
/// tell overlapping events apart. `sorted` decides whether the events are kept
/// in start order ([`FaultPlan::with_event`]) or left as drawn, the way a
/// hand-built plan may be.
fn random_plan(rng: &mut StdRng, sorted: bool) -> FaultPlan {
    let kinds = every_kind();
    let palette: Vec<FaultKind> = (0..rng.gen_range(1..5usize))
        .map(|_| kinds[rng.gen_range(0..kinds.len())])
        .collect();
    let mut plan = FaultPlan {
        seed: rng.gen_range(0..u64::MAX),
        events: Vec::new(),
    };
    for i in 0..rng.gen_range(0..40usize) {
        let event = FaultEvent {
            at: 0.5 * rng.gen_range(0..100u32) as f64,
            duration: 0.5 * rng.gen_range(1..40u32) as f64,
            kind: palette[rng.gen_range(0..palette.len())],
            magnitude: i as f64,
        };
        if sorted {
            plan = plan.with_event(event);
        } else {
            plan.events.push(event);
        }
    }
    plan
}

/// Walks the handle's clock over the plan's span and checks every kind at
/// every step against the linear scan.
fn check_walk(plan: &FaultPlan, handle: &FaultHandle, dt: f64, steps: usize, tag: &str) {
    let kinds = every_kind();
    for step in 0..steps {
        let t = handle.now();
        for &kind in &kinds {
            assert_eq!(
                handle.active(kind),
                linear_find(plan, kind, t),
                "{tag}: {kind} at t={t} (step {step})"
            );
        }
        handle.advance(dt);
    }
}

#[test]
fn indexed_active_matches_the_linear_scan() {
    let mut rng = StdRng::seed_from_u64(0xFA017);
    let mut hits = 0usize;
    for case in 0..300 {
        let plan = random_plan(&mut rng, case % 2 == 0);
        let handle = FaultHandle::armed(plan.clone());
        check_walk(&plan, &handle, 0.25, 260, &format!("case {case}"));

        // Count that the walks really hit events.
        for step in 0..260 {
            let t = step as f64 * 0.25;
            for e in &plan.events {
                hits += usize::from(e.active_at(t));
            }
        }
    }
    assert!(hits > 10_000, "walks rarely met an active window: {hits}");
}

#[test]
fn generated_plans_match_the_linear_scan() {
    for seed in 0..20 {
        let plan = FaultPlan::generate(seed, 2_000.0, 40.0, &ALL_KINDS);
        let handle = FaultHandle::armed(plan.clone());
        check_walk(&plan, &handle, 0.5, 4_100, &format!("seed {seed}"));
    }
}

#[test]
fn unsorted_overlapping_windows_answer_in_plan_order() {
    let event = |at: f64, magnitude: f64| FaultEvent {
        at,
        duration: 10.0,
        kind: FaultKind::ProbeSpike,
        magnitude,
    };
    // The later-starting window comes first in the plan, so it wins where
    // the two overlap, exactly as a linear scan would have it.
    let plan = FaultPlan {
        seed: 0,
        events: vec![
            event(5.0, 2.0),
            FaultEvent {
                at: 0.0,
                duration: 100.0,
                kind: FaultKind::MeterDisconnect,
                magnitude: 0.0,
            },
            event(0.0, 1.0),
        ],
    };
    let handle = FaultHandle::armed(plan);
    assert_eq!(handle.active(FaultKind::ProbeSpike).unwrap().magnitude, 1.0);
    handle.advance(5.0);
    assert_eq!(handle.active(FaultKind::ProbeSpike).unwrap().magnitude, 2.0);
    handle.advance(7.0);
    assert_eq!(handle.active(FaultKind::ProbeSpike).unwrap().magnitude, 2.0);
    handle.advance(3.0);
    assert_eq!(handle.active(FaultKind::ProbeSpike), None);
    assert_eq!(handle.active(FaultKind::ProbeStuck), None, "absent kind");
    assert!(handle.active(FaultKind::MeterDisconnect).is_some());
}
