//! Deterministic fork–join parallelism for the workspace.
//!
//! This is the single execution-model seam every layer above threads
//! through: GEMM row partitioning, batched convolution lowering and
//! device-parallel federated training all dispatch here. The design is
//! deliberately minimal — scoped `std::thread` chunking with **no work
//! stealing** — because static partitioning is what makes the determinism
//! guarantee cheap to state:
//!
//! * work is split into *contiguous index ranges*, one per worker;
//! * every item (output row, sample, device) is computed by exactly the
//!   same sequence of floating-point operations regardless of which worker
//!   runs it;
//! * results are merged back in index order.
//!
//! Consequently every public helper in this module is bit-deterministic
//! with respect to the thread count: `threads = 1` and `threads = 64`
//! produce identical bytes. The test suite enforces this end to end (see
//! `tests/determinism.rs` at the workspace root).
//!
//! ## Thread-count resolution
//!
//! [`max_threads`] resolves, in order: a programmatic override set via
//! [`set_threads`], the `FEDZKT_THREADS` environment variable, and finally
//! [`std::thread::available_parallelism`]. Nested parallel regions run
//! serially (a worker that reaches another `par` call just executes it
//! inline), so device-level parallelism does not multiply with kernel-level
//! parallelism.
//!
//! ## Resident workers
//!
//! [`map_indexed`] rebuilds whatever state its items need on every call.
//! When the same fixed set of models is asked many small questions (the
//! FedZKT server scoring one synthetic batch per distillation iteration
//! against every teacher), [`with_resident`] keeps each item's state on
//! one worker for the duration of a scope and streams messages to it,
//! with the same contiguous-range split and item-order merge.

use crate::compute::{current_format, with_format};
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};

/// Programmatic thread-count override; 0 means "not set".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// True on worker threads spawned by this module: nested parallel
    /// regions detect it and degrade to serial execution.
    static IN_PARALLEL: Cell<bool> = const { Cell::new(false) };
}

/// Override the workspace-wide thread count (0 clears the override and
/// returns resolution to `FEDZKT_THREADS` / available parallelism).
///
/// Intended for benchmarks and tests that compare thread counts within one
/// process; long-running programs should prefer the environment variable.
pub fn set_threads(threads: usize) {
    THREAD_OVERRIDE.store(threads, Ordering::Relaxed);
}

/// The number of worker threads parallel regions may use.
///
/// Resolution order: [`set_threads`] override, then the `FEDZKT_THREADS`
/// environment variable (a positive integer), then
/// [`std::thread::available_parallelism`]. Never returns 0.
pub fn max_threads() -> usize {
    let overridden = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if overridden > 0 {
        return overridden;
    }
    if let Ok(s) = std::env::var("FEDZKT_THREADS") {
        if let Ok(n) = s.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Resolve a configured thread count: 0 means "workspace default"
/// ([`max_threads`]), any other value is used as-is. This is the single
/// definition of the resolution rule shared by every orchestrator config.
pub fn resolve_threads(configured: usize) -> usize {
    if configured == 0 {
        max_threads()
    } else {
        configured
    }
}

/// Minimum number of output elements a memory-bound parallel region (im2col
/// lowering, col2im scatter) should cover before forking; below this the
/// scoped-thread spawn cost outweighs the copy work. Compute-bound GEMM uses
/// its own multiply–accumulate threshold (`ops::gemm::PAR_MIN_MACS`).
pub const PAR_MIN_ELEMS: usize = 1 << 16;

/// True when called from inside a worker spawned by this module.
pub fn in_parallel() -> bool {
    IN_PARALLEL.with(Cell::get)
}

fn mark_worker() {
    IN_PARALLEL.with(|f| f.set(true));
}

/// Split `data` into up to `threads` contiguous chunks of whole `unit`-sized
/// records and run `f(first_record_index, chunk)` on each chunk, possibly
/// concurrently.
///
/// `data.len()` must be a multiple of `unit`. Chunk boundaries depend on
/// `threads`, but since `f` receives the absolute index of its first record
/// and records are disjoint, any `f` that computes each record independently
/// is bit-deterministic with respect to the thread count.
///
/// Runs inline (single-threaded) when `threads <= 1`, when there are fewer
/// than two records, or when already inside a parallel region.
///
/// # Panics
/// Panics when `unit` is 0 while `data` is non-empty, when `data.len()` is
/// not a multiple of `unit`, or when a worker panics.
pub fn for_each_chunk_mut<T, F>(data: &mut [T], unit: usize, threads: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    if data.is_empty() {
        return;
    }
    assert!(unit > 0, "record size must be positive");
    assert!(data.len().is_multiple_of(unit), "data must hold whole records");
    let records = data.len() / unit;
    let workers = threads.min(records).max(1);
    if workers <= 1 || in_parallel() {
        f(0, data);
        return;
    }
    let per_worker = records.div_ceil(workers);
    std::thread::scope(|scope| {
        for (w, chunk) in data.chunks_mut(per_worker * unit).enumerate() {
            let f = &f;
            scope.spawn(move || {
                mark_worker();
                f(w * per_worker, chunk);
            });
        }
    });
}

/// Map `f` over `0..n`, returning results in index order.
///
/// Indices are split into up to `threads` contiguous ranges, each evaluated
/// on its own scoped thread; per-range result vectors are concatenated in
/// range order, so the output is identical to `(0..n).map(f).collect()` for
/// every thread count (provided `f(i)` itself is a pure function of `i`).
///
/// Runs inline when `threads <= 1`, `n < 2`, or when already inside a
/// parallel region.
///
/// # Panics
/// Panics when a worker panics.
pub fn map_indexed<R, F>(n: usize, threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = threads.min(n).max(1);
    if workers <= 1 || in_parallel() {
        return (0..n).map(f).collect();
    }
    let per_worker = n.div_ceil(workers);
    // Rounding up per_worker can leave trailing workers with empty ranges;
    // don't spawn those.
    let workers = n.div_ceil(per_worker);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let f = &f;
                let lo = w * per_worker;
                let hi = ((w + 1) * per_worker).min(n);
                scope.spawn(move || {
                    mark_worker();
                    (lo..hi).map(f).collect::<Vec<R>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("parallel worker panicked"))
            .collect()
    })
}

/// One spawned resident worker: its message inbox, its result outbox and
/// its join handle (taken when its panic is propagated).
struct Link<'scope, M, R> {
    inbox: mpsc::Sender<Arc<M>>,
    outbox: mpsc::Receiver<Vec<R>>,
    handle: Option<std::thread::ScopedJoinHandle<'scope, ()>>,
}

/// Serves one message to every item, returning the results in item order.
type ServeAll<'a, M, R> = Box<dyn FnMut(&M) -> Vec<R> + 'a>;

enum Crew<'a, M, R> {
    /// Serial fallback: the per-item states live on the caller's thread and
    /// each submitted message is served immediately.
    Inline { serve_all: ServeAll<'a, M, R>, ready: VecDeque<Vec<R>> },
    Workers { links: Vec<Link<'a, M, R>>, pending: usize },
}

/// Handle to the workers of a [`with_resident`] region: stream messages to
/// every item's resident state and gather the per-item results in item
/// order.
pub struct Resident<'a, M, R> {
    crew: Crew<'a, M, R>,
}

impl<M, R> Resident<'_, M, R> {
    /// Queue `msg` for every item without waiting, so the caller can work
    /// while the workers serve it. Results are gathered by [`collect`]
    /// (one call per submitted message, first in first out).
    ///
    /// [`collect`]: Resident::collect
    pub fn submit(&mut self, msg: M) {
        match &mut self.crew {
            Crew::Inline { serve_all, ready } => ready.push_back(serve_all(&msg)),
            Crew::Workers { links, pending } => {
                let msg = Arc::new(msg);
                for link in links.iter_mut() {
                    if link.inbox.send(Arc::clone(&msg)).is_err() {
                        propagate(link);
                    }
                }
                *pending += 1;
            }
        }
    }

    /// Wait for the oldest submitted message's results: one per item, in
    /// item order.
    ///
    /// # Panics
    /// Panics when nothing is pending, or with the worker's own payload
    /// when a worker panicked.
    pub fn collect(&mut self) -> Vec<R> {
        match &mut self.crew {
            Crew::Inline { ready, .. } => ready.pop_front().expect("collect without a submit"),
            Crew::Workers { links, pending } => {
                assert!(*pending > 0, "collect without a submit");
                *pending -= 1;
                let mut out = Vec::new();
                for link in links.iter_mut() {
                    match link.outbox.recv() {
                        Ok(part) => out.extend(part),
                        Err(_) => propagate(link),
                    }
                }
                out
            }
        }
    }

    /// [`submit`](Resident::submit) then [`collect`](Resident::collect).
    pub fn broadcast(&mut self, msg: M) -> Vec<R> {
        self.submit(msg);
        self.collect()
    }
}

/// A worker whose channel closed has exited by panicking: re-raise its
/// payload on the caller's thread.
fn propagate<M, R>(link: &mut Link<'_, M, R>) -> ! {
    let handle = link.handle.take().expect("a worker's panic is propagated once");
    match handle.join() {
        Err(payload) => std::panic::resume_unwind(payload),
        Ok(()) => unreachable!("a resident worker exits only when its inbox closes"),
    }
}

/// Run `body` with `n` items' state held resident on up to `threads`
/// scoped workers.
///
/// Items are split into contiguous ranges, one per worker, as in
/// [`map_indexed`]. Each worker builds `init(i)` for its items once, on its
/// own thread (so the state need not be `Send` — an `Rc`-based autodiff
/// model is the intended use), then serves every message `body` sends
/// through the [`Resident`] handle with `serve(i, &mut state_i, &msg)`.
/// Results come back in item order, so a `serve` that computes each item
/// independently is bit-deterministic with respect to the thread count.
///
/// Workers are marked as inside a parallel region (their kernels run
/// serially) and run in the caller's
/// [`ComputeFormat`](crate::ComputeFormat) scope, which threads do not
/// inherit. When `threads <= 1`, `n == 0`, or when already inside a
/// parallel region, everything runs inline on the caller's thread and no
/// thread is spawned: each submitted message is served on the spot.
///
/// # Panics
/// A panic in `init` or `serve` is re-raised on the caller's thread with
/// its original payload by the next [`Resident`] call that needs that
/// worker; a panic in `body` stops the workers and propagates.
pub fn with_resident<S, M, R, T>(
    n: usize,
    threads: usize,
    init: impl Fn(usize) -> S + Sync,
    serve: impl Fn(usize, &mut S, &M) -> R + Sync,
    body: impl FnOnce(&mut Resident<'_, M, R>) -> T,
) -> T
where
    M: Send + Sync,
    R: Send,
{
    if threads <= 1 || n == 0 || in_parallel() {
        let mut states: Vec<S> = (0..n).map(&init).collect();
        let serve_all = move |msg: &M| -> Vec<R> {
            states.iter_mut().enumerate().map(|(i, s)| serve(i, s, msg)).collect()
        };
        let crew = Crew::Inline { serve_all: Box::new(serve_all), ready: VecDeque::new() };
        return body(&mut Resident { crew });
    }
    let per_worker = n.div_ceil(threads.min(n));
    let workers = n.div_ceil(per_worker);
    let format = current_format();
    std::thread::scope(|scope| {
        let (init, serve) = (&init, &serve);
        let links = (0..workers)
            .map(|w| {
                let (inbox, messages) = mpsc::channel::<Arc<M>>();
                let (results, outbox) = mpsc::channel::<Vec<R>>();
                let items = w * per_worker..((w + 1) * per_worker).min(n);
                let handle = scope.spawn(move || {
                    mark_worker();
                    with_format(format, || {
                        let mut states: Vec<S> = items.clone().map(init).collect();
                        for msg in messages {
                            let part = items
                                .clone()
                                .zip(states.iter_mut())
                                .map(|(i, s)| serve(i, s, &msg))
                                .collect();
                            if results.send(part).is_err() {
                                break;
                            }
                        }
                    });
                });
                Link { inbox, outbox, handle: Some(handle) }
            })
            .collect();
        // Dropping `resident` (normal return or unwind out of `body`)
        // closes every inbox, so the workers exit and the scope can join.
        let mut resident = Resident { crew: Crew::Workers { links, pending: 0 } };
        body(&mut resident)
    })
}

/// Serialises unit tests that mutate the process-global [`set_threads`]
/// override, so they cannot race each other when libtest runs the crate's
/// tests concurrently. Lock it in any test that calls `set_threads`.
#[cfg(test)]
pub(crate) static TEST_OVERRIDE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_threads_is_positive_and_overridable() {
        let _guard =
            TEST_OVERRIDE_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        assert!(max_threads() >= 1);
        set_threads(3);
        assert_eq!(max_threads(), 3);
        set_threads(0);
        assert!(max_threads() >= 1);
    }

    #[test]
    fn chunks_cover_all_records_exactly_once() {
        for threads in [1usize, 2, 3, 8] {
            let mut data = vec![0u32; 7 * 4];
            for_each_chunk_mut(&mut data, 4, threads, |first, chunk| {
                for (r, rec) in chunk.chunks_mut(4).enumerate() {
                    for v in rec.iter_mut() {
                        *v += (first + r) as u32 + 1;
                    }
                }
            });
            let expected: Vec<u32> =
                (0..7).flat_map(|r| std::iter::repeat_n(r + 1, 4)).collect();
            assert_eq!(data, expected, "threads={threads}");
        }
    }

    #[test]
    fn chunks_handle_empty_and_single_record() {
        let mut empty: Vec<f32> = Vec::new();
        for_each_chunk_mut(&mut empty, 4, 4, |_, _| panic!("no records to visit"));
        let mut one = vec![0.0f32; 5];
        for_each_chunk_mut(&mut one, 5, 4, |first, chunk| {
            assert_eq!(first, 0);
            chunk[0] = 1.0;
        });
        assert_eq!(one[0], 1.0);
    }

    #[test]
    fn map_preserves_index_order_for_all_thread_counts() {
        let serial: Vec<usize> = (0..23).map(|i| i * i).collect();
        for threads in [1usize, 2, 4, 23, 64] {
            assert_eq!(map_indexed(23, threads, |i| i * i), serial, "threads={threads}");
        }
        assert!(map_indexed(0, 4, |i: usize| i).is_empty());
    }

    #[test]
    fn nested_regions_run_serially() {
        let out = map_indexed(4, 4, |i| {
            assert!(in_parallel());
            // The nested call must not spawn (and must still be correct).
            map_indexed(3, 4, move |j| i * 10 + j)
        });
        assert_eq!(out[1], vec![10, 11, 12]);
        assert!(!in_parallel());
    }

    #[test]
    fn resident_results_come_back_in_item_order() {
        // State is per item and persists across messages.
        let serial: Vec<Vec<usize>> =
            (1..=3).map(|m| (0..7).map(|i| i * 100 + m * (i + 1)).collect()).collect();
        for threads in [1usize, 2, 3, 8] {
            let got = with_resident(
                7,
                threads,
                |i| i * 100,
                |i, acc: &mut usize, _: &()| {
                    *acc += i + 1;
                    *acc
                },
                |crew| (1..=3).map(|_| crew.broadcast(())).collect::<Vec<_>>(),
            );
            assert_eq!(got, serial, "threads={threads}");
        }
    }

    #[test]
    fn resident_state_is_built_and_served_on_its_worker() {
        // Rc is !Send: the state can only exist on the thread that built it.
        let caller = std::thread::current().id();
        let homes = with_resident(
            4,
            2,
            |_| std::rc::Rc::new(std::thread::current().id()),
            |_, home: &mut std::rc::Rc<_>, _: &()| {
                assert!(in_parallel());
                assert_eq!(**home, std::thread::current().id(), "served where built");
                **home
            },
            |crew| crew.broadcast(()),
        );
        assert!(homes.iter().all(|&h| h != caller));
        assert_eq!(homes[0], homes[1]);
        assert_ne!(homes[1], homes[2]);
        assert!(!in_parallel());
    }

    #[test]
    fn resident_runs_inline_at_one_thread_and_when_nested() {
        let caller = std::thread::current().id();
        let on_caller = |threads: usize| {
            with_resident(
                3,
                threads,
                |_| (),
                |_, _, _: &()| std::thread::current().id(),
                |crew| crew.broadcast(()),
            )
        };
        assert!(on_caller(1).iter().all(|&t| t == caller));
        assert!(on_caller(0).iter().all(|&t| t == caller));
        let nested = map_indexed(2, 2, |_| {
            let worker = std::thread::current().id();
            on_caller(4).iter().all(|&t| t == worker)
        });
        assert_eq!(nested, vec![true, true]);
        let none: Vec<()> = with_resident(0, 4, |_| (), |_, _, _: &()| (), |c| c.broadcast(()));
        assert!(none.is_empty());
    }

    #[test]
    fn resident_submit_overlaps_and_collects_fifo() {
        for threads in [1usize, 2] {
            let got = with_resident(
                3,
                threads,
                |_| 0usize,
                |i, seen: &mut usize, m: &usize| {
                    *seen += 1;
                    (i, *m, *seen)
                },
                |crew| {
                    crew.submit(10);
                    crew.submit(20);
                    let first = crew.collect();
                    crew.submit(30);
                    let second = crew.collect();
                    let third = crew.collect();
                    (first, second, third)
                },
            );
            assert_eq!(got.0, vec![(0, 10, 1), (1, 10, 1), (2, 10, 1)]);
            assert_eq!(got.1[2], (2, 20, 2));
            assert_eq!(got.2[0], (0, 30, 3));
        }
    }

    #[test]
    fn resident_workers_reenter_the_callers_compute_format() {
        use crate::compute::{current_format, with_format};
        use crate::ComputeFormat;
        let formats = with_format(ComputeFormat::Int8, || {
            with_resident(3, 2, |_| (), |_, _, _: &()| current_format(), |c| c.broadcast(()))
        });
        assert_eq!(formats, vec![ComputeFormat::Int8; 3]);
    }

    #[test]
    #[should_panic(expected = "item 2 failed")]
    fn resident_worker_panic_propagates_its_payload() {
        with_resident(
            3,
            2,
            |_| (),
            |i, _, _: &()| {
                assert!(i != 2, "item {i} failed");
            },
            |crew| crew.broadcast(()),
        );
    }

    #[test]
    #[should_panic(expected = "init of 1 failed")]
    fn resident_init_panic_propagates_its_payload() {
        with_resident(
            2,
            2,
            |i| assert!(i != 1, "init of {i} failed"),
            |_, _, _: &()| (),
            |crew| crew.broadcast(()),
        );
    }

    #[test]
    #[should_panic(expected = "caller gave up")]
    fn resident_body_panic_stops_the_workers() {
        with_resident(4, 2, |_| (), |_, _, _: &()| (), |crew| {
            crew.submit(());
            panic!("caller gave up");
        });
    }

    #[test]
    #[should_panic(expected = "whole records")]
    fn rejects_partial_records() {
        let mut data = vec![0u8; 5];
        for_each_chunk_mut(&mut data, 2, 2, |_, _| {});
    }
}
