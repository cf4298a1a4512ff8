//! Deterministic fork-join for the world's parallel grid query.
//!
//! The simulator's parallelism contract is *bit-identical results at
//! any thread count*, so this is deliberately not a work-stealing
//! scheduler: work is partitioned into contiguous index bands up front
//! (a pure function of `(item_count, thread_count)`), every band writes
//! only its own output slot, and callers merge outputs in band order.
//! Because per-item work never depends on which band (or thread) ran
//! it, the merged result is identical to a serial left-to-right pass —
//! that is the whole determinism argument, and the thread-count
//! differential tests in `dtn-sim` enforce it end to end.
//!
//! A [`Pool`] is only a width. Each region is a `std::thread::scope`:
//! the caller spawns one scoped helper per band after the first, runs
//! band 0 itself and joins the helpers in band order, so no thread
//! outlives the region and a panic in any band reaches the caller with
//! that band's own payload. The price is a thread spawn per helper per
//! region (about 40 µs for a 2-thread region on a 2-vCPU host), so
//! only work that costs more than that is worth splitting. A pool of
//! one thread runs its one band on the caller and spawns nothing — the
//! serial reference path.

use std::ops::Range;

/// A fork-join width: the number of threads a region spreads its bands
/// over, the caller included. See the module docs for the determinism
/// contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// A pool of `threads` participants (clamped to at least 1).
    /// Making one spawns nothing; each region spawns its own helpers.
    pub fn new(threads: usize) -> Pool {
        Pool {
            threads: threads.max(1),
        }
    }

    /// Total participants, the calling thread included.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Partitions `0..n` into one contiguous band per participant and
    /// returns `f(band)` for every non-empty band, in band (= index)
    /// order. The band boundaries depend on the thread count but the
    /// concatenated coverage is always exactly `0..n` left to right, so
    /// order-preserving merges are thread-count-invariant.
    pub fn map_bands<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(Range<usize>) -> R + Sync,
    {
        fork_join(bands(n, self.threads), &f)
    }

    /// Runs `f(offset, a_band, b_band)` over matching contiguous bands
    /// of two equal-length slices, one band per participant. Each item
    /// is visited exactly once; which thread visits it must not matter
    /// (per-item outputs only), which is what keeps the result
    /// identical at any thread count.
    ///
    /// # Panics
    /// Panics if the slices differ in length.
    pub fn zip_for_each<A, B, F>(&self, a: &mut [A], b: &mut [B], f: F)
    where
        A: Send,
        B: Send,
        F: Fn(usize, &mut [A], &mut [B]) + Sync,
    {
        assert_eq!(a.len(), b.len(), "zip_for_each slice length mismatch");
        let mut tasks = Vec::new();
        let (mut rest_a, mut rest_b) = (a, b);
        for range in bands(rest_a.len(), self.threads) {
            let (band_a, ra) = rest_a.split_at_mut(range.len());
            let (band_b, rb) = rest_b.split_at_mut(range.len());
            tasks.push((range.start, band_a, band_b));
            (rest_a, rest_b) = (ra, rb);
        }
        fork_join(tasks, &|(offset, band_a, band_b)| f(offset, band_a, band_b));
    }
}

/// Runs `f` on every task and returns the results in task order: the
/// first task on the caller, each later one on a scoped helper thread.
/// A panicking task's payload is re-raised on the caller, the first
/// task's first, then the helpers' in task order; the scope joins
/// every helper before the panic leaves it.
fn fork_join<T, R, F>(tasks: Vec<T>, f: &F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let mut tasks = tasks.into_iter();
    let Some(first) = tasks.next() else {
        return Vec::new();
    };
    std::thread::scope(|scope| {
        let helpers: Vec<_> = tasks.map(|task| scope.spawn(move || f(task))).collect();
        let mut out = Vec::with_capacity(helpers.len() + 1);
        out.push(f(first));
        for helper in helpers {
            out.push(
                helper
                    .join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload)),
            );
        }
        out
    })
}

/// Splits `0..n` into up to `parts` contiguous near-equal ranges
/// (larger ranges first), skipping empty ones. Pure in `(n, parts)`:
/// the same inputs always produce the same partition.
pub fn bands(n: usize, parts: usize) -> Vec<Range<usize>> {
    let parts = parts.max(1).min(n.max(1));
    let base = n / parts;
    let extra = n % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let len = base + usize::from(i < extra);
        if len == 0 {
            continue;
        }
        out.push(start..start + len);
        start += len;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::mpsc;
    use std::thread::{self, ThreadId};
    use std::time::Duration;

    #[test]
    fn bands_cover_exactly_once() {
        for n in [0usize, 1, 2, 7, 64, 1000] {
            for parts in [1usize, 2, 3, 8, 17] {
                let ranges = bands(n, parts);
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next, "gap before {r:?} (n={n}, parts={parts})");
                    assert!(!r.is_empty());
                    next = r.end;
                }
                assert_eq!(next, n, "coverage short (n={n}, parts={parts})");
                assert!(ranges.len() <= parts.max(1));
            }
        }
    }

    #[test]
    fn single_thread_pool_runs_every_band_on_the_caller() {
        let caller = thread::current().id();
        let pool = Pool::new(1);
        assert_eq!(pool.threads(), 1);
        let ran = pool.map_bands(10, |r| (r, thread::current().id()));
        assert_eq!(ran, vec![(0..10, caller)]);
        let mut items = vec![0u8; 10];
        let mut ids: Vec<Option<ThreadId>> = vec![None; 10];
        pool.zip_for_each(&mut items, &mut ids, |_, _, band| {
            band.fill(Some(thread::current().id()))
        });
        assert!(ids.iter().all(|&id| id == Some(caller)));
    }

    #[test]
    fn band_zero_runs_on_the_caller_and_each_band_once() {
        let caller = thread::current().id();
        let pool = Pool::new(4);
        for _ in 0..20 {
            let ran = pool.map_bands(10, |r| (r, thread::current().id()));
            let ranges: Vec<_> = ran.iter().map(|(r, _)| r.clone()).collect();
            assert_eq!(ranges, bands(10, 4));
            assert_eq!(ran[0].1, caller);
            for (k, (_, id)) in ran.iter().enumerate().skip(1) {
                assert_ne!(*id, caller, "band {k} ran on the caller");
                assert!(ran[k + 1..].iter().all(|(_, other)| other != id));
            }
            let mut items = vec![0u32; 10];
            let mut ids: Vec<Option<ThreadId>> = vec![None; 10];
            pool.zip_for_each(&mut items, &mut ids, |_, hits, band| {
                hits.iter_mut().for_each(|h| *h += 1);
                band.fill(Some(thread::current().id()));
            });
            assert!(items.iter().all(|&h| h == 1));
            for (k, r) in bands(10, 4).into_iter().enumerate() {
                let id = ids[r.start].expect("band ran");
                assert!(ids[r].iter().all(|&other| other == Some(id)));
                assert_eq!(id == caller, k == 0, "band {k}");
            }
        }
    }

    /// The message a caught panic carried.
    fn payload<T>(result: thread::Result<T>) -> Option<String> {
        result.err()?.downcast_ref::<String>().cloned()
    }

    #[test]
    fn a_panicking_band_reaches_the_caller_with_its_own_payload() {
        // On a spawned thread, so a region that never returns fails the
        // test on the timeout instead of hanging the suite.
        let (tx, rx) = mpsc::channel();
        thread::spawn(move || {
            let pool = Pool::new(2);
            let helper = catch_unwind(AssertUnwindSafe(|| {
                pool.map_bands(10, |r| match r.start {
                    0 => r.len(),
                    start => panic!("band at {start}"),
                })
            }));
            let caller = catch_unwind(AssertUnwindSafe(|| {
                pool.map_bands(10, |r| match r.start {
                    0 => panic!("band at {}", r.start),
                    _ => r.len(),
                })
            }));
            let zipped = catch_unwind(AssertUnwindSafe(|| {
                let (mut a, mut b) = (vec![0u8; 10], vec![0u8; 10]);
                pool.zip_for_each(&mut a, &mut b, |offset, _, _| {
                    if offset > 0 {
                        panic!("zip band at {offset}");
                    }
                });
            }));
            let _ = tx.send([payload(helper), payload(caller), payload(zipped)]);
        });
        let got = rx
            .recv_timeout(Duration::from_secs(5))
            .expect("a region with a panicking band never returned");
        assert_eq!(
            got,
            [
                Some("band at 5".to_string()),
                Some("band at 0".to_string()),
                Some("zip band at 5".to_string()),
            ]
        );
    }

    #[test]
    fn map_bands_is_thread_count_invariant() {
        let square = |r: Range<usize>| -> Vec<usize> { r.map(|i| i * i).collect() };
        let serial: Vec<usize> = (0..1000).map(|i| i * i).collect();
        for threads in [1usize, 2, 3, 4, 8] {
            let pool = Pool::new(threads);
            let merged: Vec<usize> = pool.map_bands(1000, square).into_iter().flatten().collect();
            assert_eq!(merged, serial, "threads={threads}");
        }
    }

    #[test]
    fn zip_for_each_visits_every_item_once() {
        for threads in [1usize, 2, 4, 8] {
            let pool = Pool::new(threads);
            let mut a: Vec<u64> = (0..777).collect();
            let mut b: Vec<u64> = vec![0; 777];
            pool.zip_for_each(&mut a, &mut b, |offset, aa, bb| {
                for (k, (x, y)) in aa.iter_mut().zip(bb.iter_mut()).enumerate() {
                    *x += 1;
                    *y = (offset + k) as u64;
                }
            });
            assert!(a.iter().enumerate().all(|(i, &x)| x == i as u64 + 1));
            assert!(b.iter().enumerate().all(|(i, &y)| y == i as u64));
        }
    }

    #[test]
    fn map_bands_handles_fewer_items_than_threads() {
        let pool = Pool::new(8);
        let out = pool.map_bands(3, |r| r.collect::<Vec<_>>());
        let flat: Vec<usize> = out.into_iter().flatten().collect();
        assert_eq!(flat, vec![0, 1, 2]);
        let empty = pool.map_bands(0, |r| r.len());
        assert!(empty.is_empty());
    }
}
