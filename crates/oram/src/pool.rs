//! A small persistent worker pool used by the parallel ORAM executor (§7).
//!
//! Physical slot reads of a batch are independent of each other (Ring ORAM
//! never reads the same physical slot twice between reshuffles, and write
//! deduplication guarantees each bucket is written at most once per epoch),
//! so they can all be issued concurrently.  Workers are plain OS threads
//! that sit blocked on round trips, so a generous count is cheap — which is
//! why the split client sizes a pool past one only over a store that waits
//! ([`UntrustedStore::waits`](obladi_storage::UntrustedStore::waits)): a
//! socket or a latency model.  Over an in-memory store the work is sealing
//! and opening slots, pure CPU, and a hand-off to a worker only adds a
//! context switch; there the client asks for a pool of one, which spawns no
//! thread and runs every job on its caller.  Either way the pool's own cost
//! stays off the per-slot path: [`ThreadPool::map`] dispatches one job per
//! *worker*, not one per item.

use crossbeam::channel::{unbounded, Sender};
use std::ops::Range;
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A fixed-size pool of worker threads with a scatter/gather helper.
pub struct ThreadPool {
    sender: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
    size: usize,
}

impl ThreadPool {
    /// Creates a pool of `size` (at least 1).  A pool of one spawns no
    /// thread: [`ThreadPool::map`] runs its one range on the caller.
    pub fn new(size: usize) -> Self {
        let size = size.max(1);
        let (sender, receiver) = unbounded::<Job>();
        let spawned = if size == 1 { 0 } else { size };
        let mut workers = Vec::with_capacity(spawned);
        for i in 0..spawned {
            let receiver = receiver.clone();
            let handle = std::thread::Builder::new()
                .name(format!("oram-worker-{i}"))
                .spawn(move || {
                    while let Ok(job) = receiver.recv() {
                        job();
                    }
                })
                .expect("failed to spawn ORAM worker thread");
            workers.push(handle);
        }
        ThreadPool {
            sender: Some(sender),
            workers,
            size,
        }
    }

    /// How many ranges [`ThreadPool::map`] cuts a job into.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Computes `len` results in index order: `0..len` is cut into one
    /// contiguous range per worker, `f` runs once on each range — so it can
    /// hand a whole chunk to the store in one call — and must return one
    /// result per index of its range, in order.  Blocks until every range
    /// has completed.
    ///
    /// A worker costs one boxed job and one reply message however long its
    /// range is.  A single range runs on the calling thread.
    pub fn map<R, F>(&self, len: usize, f: F) -> Vec<R>
    where
        R: Send + 'static,
        F: Fn(Range<usize>) -> Vec<R> + Send + Sync + 'static,
    {
        if len == 0 {
            return Vec::new();
        }
        let chunk = len.div_ceil(self.size);
        let chunks = len.div_ceil(chunk);
        let range_of = move |index: usize| index * chunk..((index + 1) * chunk).min(len);
        if chunks == 1 {
            let results = f(range_of(0));
            assert_eq!(results.len(), len, "one result per index");
            return results;
        }

        let shared = Arc::new(f);
        let (result_tx, result_rx) = mpsc::channel::<(usize, Vec<R>)>();
        let sender = self.sender.as_ref().expect("pool not shut down");
        for index in 0..chunks {
            let f = shared.clone();
            let tx = result_tx.clone();
            let job: Job = Box::new(move || {
                // The receiver only disappears if the caller panicked.
                let _ = tx.send((index, f(range_of(index))));
            });
            sender.send(job).expect("worker pool channel closed");
        }
        drop(result_tx);

        let mut parts: Vec<Vec<R>> = (0..chunks).map(|_| Vec::new()).collect();
        for _ in 0..chunks {
            let (index, part) = result_rx.recv().expect("worker dropped result");
            assert_eq!(part.len(), range_of(index).len(), "one result per index");
            parts[index] = part;
        }
        parts.into_iter().flatten().collect()
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // Closing the channel makes the workers exit their recv loop.
        self.sender.take();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;
    use std::time::{Duration, Instant};

    /// `map` with a per-index function, the shape most tests want.
    fn map_each<R: Send + 'static>(
        pool: &ThreadPool,
        len: usize,
        f: impl Fn(usize) -> R + Send + Sync + 'static,
    ) -> Vec<R> {
        pool.map(len, move |range| range.map(&f).collect())
    }

    #[test]
    fn map_preserves_order() {
        let pool = ThreadPool::new(4);
        let results = map_each(&pool, 100, |x| x * 2);
        assert_eq!(results, (0..100).map(|x| x * 2).collect::<Vec<usize>>());
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let pool = ThreadPool::new(2);
        assert!(map_each(&pool, 0, |x| x).is_empty());
        assert_eq!(map_each(&pool, 1, |x| x + 6), vec![6]);
    }

    #[test]
    fn ranges_are_contiguous_disjoint_and_one_per_worker() {
        for (size, len) in [(1, 7), (3, 7), (4, 4), (4, 5), (8, 3), (2, 2_386)] {
            let pool = ThreadPool::new(size);
            let seen = Arc::new(Mutex::new(Vec::new()));
            let log = seen.clone();
            let results = pool.map(len, move |range| {
                log.lock().unwrap().push(range.clone());
                range.collect()
            });
            assert_eq!(results, (0..len).collect::<Vec<usize>>());
            let mut ranges = seen.lock().unwrap().clone();
            ranges.sort_by_key(|r| r.start);
            assert!(ranges.len() <= size, "{size} workers, {len} items");
            assert_eq!(ranges.first().map(|r| r.start), Some(0));
            assert_eq!(ranges.last().map(|r| r.end), Some(len));
            assert!(ranges.windows(2).all(|w| w[0].end == w[1].start));
            assert!(ranges.iter().all(|r| !r.is_empty()));
        }
    }

    #[test]
    fn work_actually_runs_concurrently() {
        let pool = ThreadPool::new(8);
        let start = Instant::now();
        map_each(&pool, 8, |_| {
            std::thread::sleep(Duration::from_millis(50));
        });
        // Eight 50 ms sleeps on eight workers should take well under 400 ms.
        assert!(
            start.elapsed() < Duration::from_millis(200),
            "elapsed {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn all_items_processed_exactly_once() {
        let pool = ThreadPool::new(3);
        let counter = Arc::new(AtomicUsize::new(0));
        let c = counter.clone();
        map_each(&pool, 500, move |_| {
            c.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(counter.load(Ordering::SeqCst), 500);
    }

    #[test]
    fn pool_of_size_zero_is_clamped_to_one() {
        let pool = ThreadPool::new(0);
        assert_eq!(pool.size(), 1);
        assert_eq!(map_each(&pool, 3, |x| x), vec![0, 1, 2]);
    }

    #[test]
    fn a_pool_of_one_runs_on_the_caller() {
        let pool = ThreadPool::new(1);
        assert!(pool.workers.is_empty(), "a pool of one spawns no worker");
        let caller = std::thread::current().id();
        let seen = pool.map(5, |range| {
            range.map(|_| std::thread::current().id()).collect()
        });
        assert!(seen.iter().all(|&id| id == caller));
        assert!(ThreadPool::new(0).workers.is_empty());
    }

    #[test]
    fn pool_can_be_reused_across_many_batches() {
        let pool = ThreadPool::new(4);
        for round in 0..20 {
            let results = map_each(&pool, 50, move |x| x + round);
            assert_eq!(results.len(), 50);
            assert_eq!(results[0], round);
        }
    }
}
