//! The workspace's one fan-out: apply a pure function to every item of a
//! slice on a bounded pool of scoped threads, results in input order.
//!
//! Sweeps, portfolio races and the experiment tables are all
//! embarrassingly parallel over independent constructions, so they all go
//! through [`par_map`]. Output never depends on the thread count: item
//! `i`'s result lands in slot `i` whichever worker ran it.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Default worker count: the machine's available parallelism (1 when it
/// cannot be queried).
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Apply `f` to every item and return the results in input order.
///
/// Starts at most `min(threads, items.len())` scoped workers, which claim
/// items from a shared counter. With `threads <= 1` or a single item, `f`
/// runs inline on the caller's thread — serial timings and the
/// process-global allocation counters then see exactly one construction
/// at a time.
///
/// Every item runs even if others panic: each call is isolated with
/// `catch_unwind`, and once all items are done the panic of the
/// lowest-index panicking item is re-raised.
pub fn par_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let run = |item: &T| catch_unwind(AssertUnwindSafe(|| f(item)));
    let workers = threads.min(items.len());
    let outcomes: Vec<std::thread::Result<R>> = if workers <= 1 {
        items.iter().map(run).collect()
    } else {
        // `Relaxed`: the counter only hands out indices; results reach the
        // caller through `join`, which synchronizes
        let next = AtomicUsize::new(0);
        let mut done: Vec<(usize, std::thread::Result<R>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut mine = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(item) = items.get(i) else { break };
                            mine.push((i, run(item)));
                        }
                        mine
                    })
                })
                .collect();
            handles
                .into_iter()
                // a worker only panics outside `f` if the runtime does
                .flat_map(|h| h.join().unwrap_or_else(|payload| resume_unwind(payload)))
                .collect()
        });
        done.sort_unstable_by_key(|&(i, _)| i);
        done.into_iter().map(|(_, outcome)| outcome).collect()
    };
    outcomes
        .into_iter()
        .map(|outcome| outcome.unwrap_or_else(|payload| resume_unwind(payload)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::atomic::AtomicUsize;

    proptest! {
        #[test]
        fn par_map_equals_a_serial_map(
            items in proptest::collection::vec(0u32..1_000_000, 0..64),
            threads in 1usize..=8,
        ) {
            let serial: Vec<u64> = items.iter().map(|&x| u64::from(x) * 3 + 1).collect();
            let parallel = par_map(&items, threads, |&x| u64::from(x) * 3 + 1);
            prop_assert_eq!(parallel, serial);
        }
    }

    #[test]
    fn every_item_runs_and_the_lowest_panic_resurfaces() {
        let ran = AtomicUsize::new(0);
        let items: Vec<usize> = (0..10).collect();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            par_map(&items, 4, |&i| {
                if i == 3 || i == 5 {
                    std::panic::panic_any(i);
                }
                ran.fetch_add(1, Ordering::Relaxed);
                i
            })
        }));
        let payload = caught.expect_err("items 3 and 5 panic");
        assert_eq!(payload.downcast_ref::<usize>(), Some(&3));
        assert_eq!(ran.load(Ordering::Relaxed), 8, "every other item ran");
    }

    #[test]
    fn one_thread_runs_inline_on_the_caller() {
        let caller = std::thread::current().id();
        let ids = par_map(&[1, 2, 3], 1, |_| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == caller));
        // with more threads the items leave the caller's thread
        let ids = par_map(&[1, 2, 3], 2, |_| std::thread::current().id());
        assert!(ids.iter().all(|&id| id != caller));
    }
}
