//! Property test: under arbitrary sequences of buffer-manager operations
//! (allocate, pin, unpin, destroy, reserve, resize, limit changes), the
//! accounting invariants hold:
//!
//! * `memory_used` never exceeds the limit after a successful operation,
//! * gauges decompose: used = persistent + temporary + non-paged,
//! * pinned pages are never evicted (their contents survive),
//! * after dropping everything, used == 0 and the temp file is empty.

use proptest::prelude::*;
use rexa_buffer::{BlockHandle, BufferManager, BufferManagerConfig, MemoryReservation, PinGuard};
use rexa_storage::scratch_dir;
use std::sync::Arc;

#[derive(Debug, Clone)]
enum Op {
    AllocPage,
    AllocVariable(usize),
    Pin(usize),
    Unpin(usize),
    Destroy(usize),
    Reserve(usize),
    ResizeReservation(usize, usize),
    DropReservation(usize),
    SetLimit(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => Just(Op::AllocPage),
        1 => (1usize..5).prop_map(|p| Op::AllocVariable(p * 1500)),
        4 => any::<prop::sample::Index>().prop_map(|i| Op::Pin(i.index(64))),
        4 => any::<prop::sample::Index>().prop_map(|i| Op::Unpin(i.index(64))),
        2 => any::<prop::sample::Index>().prop_map(|i| Op::Destroy(i.index(64))),
        1 => (0usize..8).prop_map(|p| Op::Reserve(p * 1024)),
        1 => (any::<prop::sample::Index>(), 0usize..8)
            .prop_map(|(i, p)| Op::ResizeReservation(i.index(8), p * 1024)),
        1 => any::<prop::sample::Index>().prop_map(|i| Op::DropReservation(i.index(8))),
        1 => (4usize..64).prop_map(|p| Op::SetLimit(p * 1024)),
    ]
}

const PAGE: usize = 1024;

struct Tracked {
    handle: Arc<BlockHandle>,
    pin: Option<PinGuard>,
    fill: u8,
}

fn check_invariants(mgr: &BufferManager) {
    let s = mgr.stats();
    assert_eq!(
        s.memory_used,
        s.persistent_resident + s.temporary_resident + s.non_paged,
        "gauge decomposition: {s:?}"
    );
}

fn small_mgr(limit_pages: usize) -> Arc<BufferManager> {
    BufferManager::new(
        BufferManagerConfig::with_limit(limit_pages * PAGE)
            .page_size(PAGE)
            .temp_dir(scratch_dir("acct-reg").unwrap()),
    )
    .unwrap()
}

/// Regression: lowering the limit below current usage must not panic or
/// underflow, must evict what is evictable, and must not let new
/// reservations succeed against headroom that no longer exists.
#[test]
fn lowering_limit_below_usage_is_safe() {
    let mgr = small_mgr(16);

    // 4 pages pinned (unreclaimable), 8 pages unpinned (evictable), plus a
    // 2-page reservation: 14 pages in use against a 16-page limit.
    let pinned: Vec<_> = (0..4).map(|_| mgr.allocate_page().unwrap()).collect();
    let unpinned: Vec<_> = (0..8)
        .map(|_| {
            let (handle, pin) = mgr.allocate_page().unwrap();
            drop(pin);
            handle
        })
        .collect();
    let reservation = mgr.reserve(2 * PAGE).unwrap();
    assert_eq!(mgr.memory_used(), 14 * PAGE);

    // Lower the limit to 3 pages — below even the unreclaimable part.
    mgr.set_memory_limit(3 * PAGE);

    // The unpinned pages were evicted right away; the pins and the
    // reservation keep their 6 pages, still above the new limit.
    assert_eq!(mgr.memory_used(), 6 * PAGE);
    let s = mgr.stats();
    assert_eq!(
        s.memory_used,
        s.persistent_resident + s.temporary_resident + s.non_paged
    );

    // No new reservation may be admitted while usage exceeds the limit.
    assert!(mgr.reserve(PAGE).unwrap_err().is_oom());

    // Releasing the old holders brings usage back under the limit and
    // reservations work again.
    drop(reservation);
    drop(pinned);
    assert_eq!(mgr.memory_used(), 0);
    let r = mgr.reserve(2 * PAGE).unwrap();
    assert_eq!(mgr.memory_used(), 2 * PAGE);
    drop(r);

    // The evicted pages are still intact (spilled, not lost).
    for handle in &unpinned {
        mgr.pin(handle).unwrap();
    }
}

/// Regression: a reservation so large that `used + size` would wrap must
/// fail with OOM, not wrap around and succeed.
#[test]
fn absurd_reservation_size_fails_cleanly() {
    let mgr = small_mgr(8);
    let _held = mgr.reserve(2 * PAGE).unwrap();
    let err = mgr.reserve(usize::MAX - PAGE).unwrap_err();
    assert!(err.is_oom(), "expected OOM, got {err}");
    // Accounting is untouched by the failed attempt.
    assert_eq!(mgr.memory_used(), 2 * PAGE);
    let s = mgr.stats();
    assert_eq!(
        s.memory_used,
        s.persistent_resident + s.temporary_resident + s.non_paged
    );
}

/// Lowering the limit with only unpinned pages resident brings usage under
/// the new limit immediately, without waiting for the next reservation.
#[test]
fn lowering_limit_evicts_promptly() {
    let mgr = small_mgr(12);
    let handles: Vec<_> = (0..10)
        .map(|_| {
            let (handle, pin) = mgr.allocate_page().unwrap();
            drop(pin);
            handle
        })
        .collect();
    assert_eq!(mgr.memory_used(), 10 * PAGE);
    mgr.set_memory_limit(4 * PAGE);
    assert!(mgr.memory_used() <= 4 * PAGE);
    drop(handles);
}

/// Regression: `stats()` must be an internally consistent snapshot even while
/// other threads allocate, pin-load, evict, and resize reservations. Before
/// the single-lock accounting, the gauges were independent atomics updated
/// one after another and a concurrent reader could observe `memory_used`
/// off from the category sum by a page.
#[test]
fn every_snapshot_is_internally_consistent_under_load() {
    use std::sync::atomic::{AtomicBool, Ordering};
    let mgr = small_mgr(8);
    let stop = AtomicBool::new(false);

    std::thread::scope(|s| {
        // Mutators: page churn (temporary bytes), repin-after-spill (load
        // path), and non-paged reservations growing and shrinking. All three
        // categories move concurrently.
        for t in 0..3u32 {
            let mgr = Arc::clone(&mgr);
            let stop = &stop;
            s.spawn(move || {
                let mut handles = Vec::new();
                let mut round = 0u32;
                while !stop.load(Ordering::Relaxed) {
                    round += 1;
                    if let Ok((h, p)) = mgr.allocate_page() {
                        drop(p);
                        handles.push(h);
                    }
                    if handles.len() > 6 {
                        handles.drain(0..3);
                    }
                    if round % 3 == t % 3 {
                        if let Some(h) = handles.first() {
                            let _ = mgr.pin(h);
                        }
                    }
                    if round.is_multiple_of(4) {
                        if let Ok(mut r) = mgr.reserve(PAGE / 2) {
                            let _ = r.resize(PAGE);
                        }
                    }
                }
            });
        }

        // Observers: hammer stats() and assert the invariant on every
        // single snapshot.
        let mut observers = Vec::new();
        for _ in 0..2 {
            let mgr = Arc::clone(&mgr);
            let stop = &stop;
            observers.push(s.spawn(move || {
                let mut snapshots = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let st = mgr.stats();
                    assert_eq!(
                        st.memory_used,
                        st.persistent_resident + st.temporary_resident + st.non_paged,
                        "inconsistent snapshot: {st:?}"
                    );
                    assert!(st.memory_used <= st.memory_limit, "over limit: {st:?}");
                    snapshots += 1;
                }
                snapshots
            }));
        }

        std::thread::sleep(std::time::Duration::from_millis(500));
        stop.store(true, Ordering::Relaxed);
        for obs in observers {
            let seen = obs.join().unwrap();
            assert!(seen > 100, "observer starved: only {seen} snapshots");
        }
    });

    let st = mgr.stats();
    assert_eq!(st.memory_used, 0, "leak: {st:?}");
    assert_eq!(st.temp_bytes_on_disk, 0, "leaked spill space: {st:?}");
}

/// A one-page pool forces every allocation through the evict-and-reuse path,
/// which hands the victim's bytes to the new owner by a category transfer in
/// one critical section; a reader racing that handoff must still see a
/// consistent sum.
#[test]
fn snapshot_consistent_across_eviction_reuse_handoff() {
    use std::sync::atomic::{AtomicBool, Ordering};
    let mgr = small_mgr(1);
    let stop = AtomicBool::new(false);

    std::thread::scope(|s| {
        for _ in 0..2 {
            let mgr = Arc::clone(&mgr);
            let stop = &stop;
            s.spawn(move || {
                let mut last = None;
                while !stop.load(Ordering::Relaxed) {
                    if let Ok((h, p)) = mgr.allocate_page() {
                        drop(p);
                        last = Some(h);
                    }
                }
                drop(last);
            });
        }
        let mgr2 = Arc::clone(&mgr);
        let stopr = &stop;
        let obs = s.spawn(move || {
            while !stopr.load(Ordering::Relaxed) {
                let st = mgr2.stats();
                assert_eq!(
                    st.memory_used,
                    st.persistent_resident + st.temporary_resident + st.non_paged,
                    "inconsistent snapshot during reuse handoff: {st:?}"
                );
            }
        });
        std::thread::sleep(std::time::Duration::from_millis(300));
        stop.store(true, Ordering::Relaxed);
        obs.join().unwrap();
    });
    assert!(mgr.stats().buffer_reuses > 0, "reuse path never exercised");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_op_sequences_preserve_invariants(
        ops in prop::collection::vec(op_strategy(), 1..120),
        limit_pages in 4usize..32,
    ) {
        let mgr = BufferManager::new(
            BufferManagerConfig::with_limit(limit_pages * PAGE)
                .page_size(PAGE)
                .temp_dir(scratch_dir("acct").unwrap()),
        ).unwrap();
        let mut blocks: Vec<Tracked> = Vec::new();
        let mut reservations: Vec<MemoryReservation> = Vec::new();
        let mut next_fill = 1u8;

        for op in ops {
            match op {
                Op::AllocPage => {
                    if let Ok((handle, pin)) = mgr.allocate_page() {
                        pin.write_at(0, &[next_fill; PAGE]);
                        blocks.push(Tracked { handle, pin: Some(pin), fill: next_fill });
                        next_fill = next_fill.wrapping_add(1).max(1);
                    }
                }
                Op::AllocVariable(size) => {
                    if let Ok((handle, pin)) = mgr.allocate_variable(size) {
                        pin.write_at(0, &vec![next_fill; size]);
                        blocks.push(Tracked { handle, pin: Some(pin), fill: next_fill });
                        next_fill = next_fill.wrapping_add(1).max(1);
                    }
                }
                Op::Pin(i) => {
                    if let Some(t) = blocks.get_mut(i) {
                        if t.pin.is_none() {
                            if let Ok(pin) = mgr.pin(&t.handle) {
                                // Contents must have survived any spill.
                                let mut b = [0u8; 8];
                                pin.read_at(0, &mut b);
                                prop_assert!(b.iter().all(|&x| x == t.fill),
                                    "content lost for fill {}", t.fill);
                                t.pin = Some(pin);
                            }
                        }
                    }
                }
                Op::Unpin(i) => {
                    if let Some(t) = blocks.get_mut(i) {
                        t.pin = None;
                    }
                }
                Op::Destroy(i) => {
                    if i < blocks.len() {
                        blocks.swap_remove(i);
                    }
                }
                Op::Reserve(size) => {
                    if let Ok(r) = mgr.reserve(size) {
                        reservations.push(r);
                    }
                }
                Op::ResizeReservation(i, size) => {
                    if let Some(r) = reservations.get_mut(i) {
                        let _ = r.resize(size);
                    }
                }
                Op::DropReservation(i) => {
                    if i < reservations.len() {
                        reservations.swap_remove(i);
                    }
                }
                Op::SetLimit(bytes) => mgr.set_memory_limit(bytes),
            }
            check_invariants(&mgr);
        }

        // Every surviving block must still hold its contents.
        // (Raise the limit so pins cannot fail for lack of room —
        // everything unpinned is evictable.)
        mgr.set_memory_limit(usize::MAX);
        for t in &mut blocks {
            if t.pin.is_none() {
                let pin = mgr.pin(&t.handle).unwrap();
                let mut b = [0u8; 8];
                pin.read_at(0, &mut b);
                prop_assert!(b.iter().all(|&x| x == t.fill));
                t.pin = Some(pin);
            }
        }

        drop(blocks);
        drop(reservations);
        let s = mgr.stats();
        prop_assert_eq!(s.memory_used, 0, "leaked accounting: {:?}", s);
        prop_assert_eq!(s.temp_bytes_on_disk, 0, "leaked spill space: {:?}", s);
    }
}
