//! The one work-stealing helper behind every parallel loop in the
//! workspace: the scenario's shard phase and per-slot round-tail fills,
//! the refresh walk's ratee blocks, the sweep runner's cells and the
//! trust service's per-shard commit staging. [`join`] is its two-task sibling (the scenario's merge
//! barrier); every thread the workspace spawns is spawned here.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Runs `work(offset, piece)` once for every `chunk`-sized piece of
/// `items` (the last piece may be shorter); `offset` is the index of
/// the piece's first item in `items`.
///
/// With `workers <= 1` the pieces run inline, in order, on the calling
/// thread — no thread is spawned. Otherwise the calling thread and up
/// to `workers - 1` scoped threads (none for a single piece) claim
/// pieces off an atomic cursor until none is left, so unevenly
/// priced pieces balance out. The caller works rather than waits, so
/// one thread fewer is spawned, and fewer threads allocate from heap
/// arenas of their own (which inflated the scenario engine's peak
/// resident set). Each piece goes to exactly one worker; results land
/// in the items themselves, so nothing is merged after the join. A
/// panic in `work` re-raises on the calling thread.
pub fn for_each_chunk_mut<T: Send>(
    items: &mut [T],
    chunk: usize,
    workers: usize,
    work: impl Fn(usize, &mut [T]) + Sync,
) {
    let chunk = chunk.max(1);
    if workers <= 1 {
        for (i, piece) in items.chunks_mut(chunk).enumerate() {
            work(i * chunk, piece);
        }
        return;
    }
    // One slot per piece. The cursor hands each index out once, so every
    // lock is taken exactly once, uncontended; it only proves the
    // exclusive access to the borrow checker, and poisoning can never
    // be observed.
    let slots: Vec<Mutex<&mut [T]>> = items.chunks_mut(chunk).map(Mutex::new).collect();
    let cursor = AtomicUsize::new(0);
    let claim = || loop {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        let Some(slot) = slots.get(i) else { break };
        let mut piece = slot.lock().unwrap_or_else(PoisonError::into_inner);
        work(i * chunk, &mut piece);
    };
    std::thread::scope(|scope| {
        for _ in 1..workers.min(slots.len()) {
            scope.spawn(claim);
        }
        claim();
    });
}

/// Runs `inline` on the calling thread and `helper` alongside it, and
/// returns both results once both are done.
///
/// With `workers <= 1` no thread is spawned: `inline` runs, then
/// `helper`, both on the calling thread. Otherwise `helper` runs on one
/// scoped thread while `inline` runs on the caller, so state that must
/// stay on the calling thread (say, one whose allocations should stay
/// in the caller's heap arena) belongs in `inline`. A panic in either
/// re-raises on the calling thread.
pub fn join<A, B: Send>(
    workers: usize,
    inline: impl FnOnce() -> A,
    helper: impl FnOnce() -> B + Send,
) -> (A, B) {
    if workers <= 1 {
        let a = inline();
        return (a, helper());
    }
    std::thread::scope(|scope| {
        let helper = scope.spawn(helper);
        let a = inline();
        match helper.join() {
            Ok(b) => (a, b),
            Err(panic) => std::panic::resume_unwind(panic),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every item is visited exactly once, at the offset that matches
    /// its index, for any chunk size and worker count.
    #[test]
    fn every_item_runs_once_at_its_offset() {
        for workers in [0usize, 1, 2, 5] {
            for chunk in [0usize, 1, 3, 64] {
                let mut items: Vec<(usize, u32)> = (0..37).map(|i| (i, 0)).collect();
                for_each_chunk_mut(&mut items, chunk, workers, |offset, piece| {
                    for (j, (index, visits)) in piece.iter_mut().enumerate() {
                        assert_eq!(*index, offset + j);
                        *visits += 1;
                    }
                });
                assert!(
                    items.iter().all(|&(_, visits)| visits == 1),
                    "workers {workers}, chunk {chunk}"
                );
            }
        }
    }

    #[test]
    fn join_runs_both_tasks_once_for_any_worker_count() {
        for workers in [0usize, 1, 2, 4] {
            let (mut left, mut right) = (Vec::new(), Vec::new());
            let (a, b) = join(
                workers,
                || {
                    left.push(workers);
                    "inline"
                },
                || {
                    right.push(workers);
                    7
                },
            );
            assert_eq!((a, b), ("inline", 7));
            assert_eq!((left, right), (vec![workers], vec![workers]));
        }
    }

    #[test]
    #[should_panic(expected = "helper failed")]
    fn join_reraises_a_helper_panic() {
        join(2, || (), || panic!("helper failed"));
    }

    #[test]
    fn empty_input_runs_nothing() {
        let mut items: Vec<u8> = Vec::new();
        for_each_chunk_mut(&mut items, 4, 3, |_, _| unreachable!("no pieces"));
    }
}
