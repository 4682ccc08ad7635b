//! Offline stand-in for the subset of [`futures-lite`] this workspace uses,
//! following the repo's no-registry discipline (same crate name and module
//! paths as the real crate, nothing that isn't needed here).
//!
//! Two layers:
//!
//! * [`future`] — the real futures-lite surface: [`future::block_on`],
//!   [`future::yield_now`] and [`future::poll_fn`], implemented on
//!   `std::task` with a thread-parking waker.
//! * [`executor`] — *not* part of real futures-lite (which delegates to
//!   async-executor): a minimal scoped multi-task executor,
//!   [`executor::run_all`], that drives a batch of non-`'static` futures on
//!   a small worker pool until all complete. This is the piece the async
//!   ingest driver needs: thousands of in-flight transactions overlapping
//!   without a thread each, with futures that borrow the workload and the
//!   backend from the caller's stack.
//!
//! [`futures-lite`]: https://docs.rs/futures-lite

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod future {
    //! Future combinators and blocking entry points.

    use std::future::Future;
    use std::pin::Pin;
    use std::sync::Arc;
    use std::task::{Context, Poll, Wake, Waker};

    /// Wakes a parked thread; the waker behind [`block_on`].
    struct ThreadWaker(std::thread::Thread);

    impl Wake for ThreadWaker {
        fn wake(self: Arc<Self>) {
            self.0.unpark();
        }
        fn wake_by_ref(self: &Arc<Self>) {
            self.0.unpark();
        }
    }

    /// Runs a future to completion on the current thread, parking between
    /// polls.
    pub fn block_on<F: Future>(fut: F) -> F::Output {
        let mut fut = std::pin::pin!(fut);
        let waker = Waker::from(Arc::new(ThreadWaker(std::thread::current())));
        let mut cx = Context::from_waker(&waker);
        loop {
            match fut.as_mut().poll(&mut cx) {
                Poll::Ready(out) => return out,
                Poll::Pending => std::thread::park(),
            }
        }
    }

    /// A future that is pending exactly once, waking itself immediately —
    /// the cooperative scheduling point of the async drivers.
    pub fn yield_now() -> YieldNow {
        YieldNow { yielded: false }
    }

    /// Future returned by [`yield_now`].
    #[derive(Debug)]
    pub struct YieldNow {
        yielded: bool,
    }

    impl Future for YieldNow {
        type Output = ();
        fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
            if self.yielded {
                Poll::Ready(())
            } else {
                self.yielded = true;
                cx.waker().wake_by_ref();
                Poll::Pending
            }
        }
    }

    /// Creates a future from a closure returning [`Poll`].
    pub fn poll_fn<T, F: FnMut(&mut Context<'_>) -> Poll<T>>(f: F) -> PollFn<F> {
        PollFn { f }
    }

    /// Future returned by [`poll_fn`].
    pub struct PollFn<F> {
        f: F,
    }

    impl<F> std::fmt::Debug for PollFn<F> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("PollFn").finish_non_exhaustive()
        }
    }

    impl<T, F: FnMut(&mut Context<'_>) -> Poll<T>> Future for PollFn<F> {
        type Output = T;
        fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
            // Safe un-pinned access: `PollFn` owns only the closure and is
            // structurally Unpin when F is (closures here always are).
            let this = self.get_mut();
            (this.f)(cx)
        }
    }

    impl<F> Unpin for PollFn<F> {}
}

pub mod executor {
    //! A minimal scoped multi-task executor.
    //!
    //! [`run_all`] drives `tasks` — futures that may borrow from the
    //! caller's stack — on `workers` OS threads inside a
    //! [`std::thread::scope`], returning once every task has completed.
    //!
    //! The waker problem: a [`std::task::Waker`] must be `'static`, but the
    //! task futures are not. The waker therefore carries only a task index
    //! plus an [`Arc`]-shared [`WakeState`] (run queue, per-task "already
    //! queued" flags, a remaining-task counter); the futures themselves live
    //! in per-task slots that only the scoped worker threads touch. A task
    //! is polled by exactly one worker at a time (it must be popped from the
    //! queue to be polled, and wakes arriving *during* a poll re-queue it
    //! rather than handing it to a second worker).

    use std::collections::VecDeque;
    use std::future::Future;
    use std::pin::Pin;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex};
    use std::task::{Context, Poll, Wake, Waker};

    /// Shared scheduler state: which tasks are runnable and how many remain.
    struct WakeState {
        queue: Mutex<VecDeque<usize>>,
        queued: Vec<AtomicBool>,
        remaining: AtomicUsize,
        cv: Condvar,
    }

    impl WakeState {
        fn enqueue(&self, idx: usize) {
            if !self.queued[idx].swap(true, Ordering::AcqRel) {
                self.queue
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .push_back(idx);
                self.cv.notify_one();
            }
        }
    }

    /// The `'static` waker: a task index plus the shared scheduler state.
    struct TaskWaker {
        idx: usize,
        state: Arc<WakeState>,
    }

    impl Wake for TaskWaker {
        fn wake(self: Arc<Self>) {
            self.state.enqueue(self.idx);
        }
        fn wake_by_ref(self: &Arc<Self>) {
            self.state.enqueue(self.idx);
        }
    }

    /// A spawnable task: a pinned, boxed future any worker thread may poll.
    pub type BoxedTask<'env, T> = Pin<Box<dyn Future<Output = T> + Send + 'env>>;

    /// Drives every future in `tasks` to completion on at most `workers`
    /// threads (clamped to at least one) and returns their outputs in task
    /// order. Futures may borrow from the caller's stack; they must be
    /// [`Send`] because any worker may poll them.
    pub fn run_all<'env, T: Send + 'env>(tasks: Vec<BoxedTask<'env, T>>, workers: usize) -> Vec<T> {
        let n = tasks.len();
        if n == 0 {
            return Vec::new();
        }
        let workers = workers.clamp(1, n);

        let state = Arc::new(WakeState {
            queue: Mutex::new((0..n).collect()),
            queued: (0..n).map(|_| AtomicBool::new(true)).collect(),
            remaining: AtomicUsize::new(n),
            cv: Condvar::new(),
        });
        let slots: Vec<Mutex<Option<BoxedTask<'env, T>>>> =
            tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
        let outputs: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();

        std::thread::scope(|scope| {
            for _ in 0..workers {
                let state = Arc::clone(&state);
                let slots = &slots;
                let outputs = &outputs;
                scope.spawn(move || loop {
                    let idx = {
                        let mut queue = state.queue.lock().unwrap_or_else(|e| e.into_inner());
                        loop {
                            if let Some(idx) = queue.pop_front() {
                                break idx;
                            }
                            if state.remaining.load(Ordering::Acquire) == 0 {
                                return;
                            }
                            queue = state.cv.wait(queue).unwrap_or_else(|e| e.into_inner());
                        }
                    };
                    // Clear the flag *before* polling so wakes that arrive
                    // mid-poll re-queue the task instead of being lost.
                    state.queued[idx].store(false, Ordering::Release);
                    let waker = Waker::from(Arc::new(TaskWaker {
                        idx,
                        state: Arc::clone(&state),
                    }));
                    let mut cx = Context::from_waker(&waker);
                    let mut slot = slots[idx].lock().unwrap_or_else(|e| e.into_inner());
                    let Some(fut) = slot.as_mut() else {
                        continue; // already completed; spurious wake
                    };
                    if let Poll::Ready(out) = fut.as_mut().poll(&mut cx) {
                        *slot = None;
                        *outputs[idx].lock().unwrap_or_else(|e| e.into_inner()) = Some(out);
                        if state.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                            // Notify under the queue lock: a peer that read
                            // `remaining != 0` under it is then already
                            // waiting, not about to wait and miss this.
                            let _queue = state.queue.lock().unwrap_or_else(|e| e.into_inner());
                            state.cv.notify_all();
                        }
                    }
                });
            }
        });

        outputs
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .unwrap_or_else(|e| e.into_inner())
                    .expect("executor exited with an incomplete task")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::executor::run_all;
    use super::future::{block_on, poll_fn, yield_now};
    use std::future::Future;
    use std::pin::Pin;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::task::Poll;

    #[test]
    fn block_on_runs_a_yielding_future() {
        let out = block_on(async {
            let mut acc = 0u32;
            for i in 0..10 {
                yield_now().await;
                acc += i;
            }
            acc
        });
        assert_eq!(out, 45);
    }

    #[test]
    fn poll_fn_completes_after_pending() {
        let mut polls = 0;
        let out = block_on(poll_fn(move |cx| {
            polls += 1;
            if polls < 3 {
                cx.waker().wake_by_ref();
                Poll::Pending
            } else {
                Poll::Ready(polls)
            }
        }));
        assert_eq!(out, 3);
    }

    #[test]
    fn run_all_interleaves_borrowing_tasks() {
        let counter = AtomicUsize::new(0);
        let counter_ref = &counter;
        let n = 32;
        for workers in [1, 4] {
            counter.store(0, Ordering::SeqCst);
            let outputs = run_all(
                (0..n)
                    .map(|i| {
                        let fut = async move {
                            for _ in 0..5 {
                                counter_ref.fetch_add(1, Ordering::SeqCst);
                                yield_now().await;
                            }
                            i
                        };
                        Box::pin(fut) as Pin<Box<dyn Future<Output = usize> + Send + '_>>
                    })
                    .collect(),
                workers,
            );
            assert_eq!(outputs, (0..n).collect::<Vec<_>>());
            assert_eq!(counter.load(Ordering::SeqCst), n * 5);
        }
    }

    /// The worker that finishes the last task must not lose the wakeup of a
    /// peer about to sleep: two yielding tasks on two workers, many times,
    /// under a watchdog (a lost wakeup hangs `run_all` forever).
    #[test]
    fn run_all_never_loses_the_final_wakeup() {
        let (done, watchdog) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            for _ in 0..20_000 {
                let tasks = (0..2u8)
                    .map(|i| {
                        let fut = async move {
                            yield_now().await;
                            i
                        };
                        Box::pin(fut) as Pin<Box<dyn Future<Output = u8> + Send>>
                    })
                    .collect();
                assert_eq!(run_all(tasks, 2), vec![0, 1]);
            }
            let _ = done.send(());
        });
        watchdog
            .recv_timeout(std::time::Duration::from_secs(300))
            .expect("run_all hung: a worker slept through the final wakeup");
    }

    #[test]
    fn run_all_handles_empty_and_single() {
        let empty: Vec<Pin<Box<dyn Future<Output = u8> + Send>>> = Vec::new();
        assert!(run_all(empty, 4).is_empty());
        let one: Vec<Pin<Box<dyn Future<Output = u8> + Send>>> = vec![Box::pin(async { 7u8 })];
        assert_eq!(run_all(one, 8), vec![7]);
    }
}
