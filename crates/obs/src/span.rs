//! Scoped span timers with thread-local sample buffers.
//!
//! A [`span`] captures `Instant::now()` when created (only if
//! observability is on — otherwise it is `None` and costs one branch) and
//! on drop pushes its elapsed microseconds into a thread-local buffer.
//! The buffer flushes into the target histograms every
//! [`FLUSH_EVERY`] samples and when the thread exits, so a burst of short
//! spans amortizes the shared-atomic traffic instead of paying it per
//! span. Call [`flush_spans`] before snapshotting if the last few samples
//! on the current thread matter.

use crate::metrics::Histogram;
use std::cell::RefCell;
use std::time::Instant;

/// Buffered samples per thread before an automatic flush.
const FLUSH_EVERY: usize = 64;

struct SpanBuf {
    samples: Vec<(&'static Histogram, u64)>,
}

impl SpanBuf {
    fn push(&mut self, hist: &'static Histogram, sample: u64) {
        self.samples.push((hist, sample));
        if self.samples.len() >= FLUSH_EVERY {
            self.flush();
        }
    }

    fn flush(&mut self) {
        for (hist, sample) in self.samples.drain(..) {
            // `record_always`: the sample was admitted while the switch
            // was on; a concurrent disable must not drop it.
            hist.record_always(sample);
        }
    }
}

impl Drop for SpanBuf {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static BUF: RefCell<SpanBuf> = RefCell::new(SpanBuf {
        samples: Vec::with_capacity(FLUSH_EVERY),
    });
}

/// A live span: observes its elapsed wall-clock microseconds (nanoseconds
/// for a [`sampled_span!`](crate::sampled_span)) into the target histogram
/// when dropped.
pub struct SpanTimer {
    hist: &'static Histogram,
    start: Instant,
    nanos: bool,
}

impl Drop for SpanTimer {
    fn drop(&mut self) {
        let elapsed = self.start.elapsed();
        let sample = if self.nanos {
            elapsed.as_nanos()
        } else {
            elapsed.as_micros()
        } as u64;
        let _ = BUF.try_with(|b| b.borrow_mut().push(self.hist, sample));
    }
}

/// Starts a span against `hist`. Returns `None` (and reads no clock) while
/// observability is disabled — bind the result to keep the span alive:
///
/// ```
/// let hist = mtc_obs::registry().histogram("doc.work_micros");
/// let _span = mtc_obs::span(hist);
/// // ... timed work ...
/// ```
#[inline]
pub fn span(hist: &'static Histogram) -> Option<SpanTimer> {
    if !crate::enabled() {
        return None;
    }
    Some(SpanTimer {
        hist,
        start: Instant::now(),
        nanos: false,
    })
}

/// What [`sampled_span!`](crate::sampled_span) starts once its call site's
/// turn has come: a span that records **nanoseconds**.
#[doc(hidden)]
pub fn span_nanos(hist: &'static Histogram) -> SpanTimer {
    SpanTimer {
        hist,
        start: Instant::now(),
        nanos: true,
    }
}

/// Drains the calling thread's span buffer into its histograms. Snapshots
/// only see flushed samples; call this before scraping if the tail of a
/// burst matters (the daemons do it at the end of each drain pass).
pub fn flush_spans() {
    let _ = BUF.try_with(|b| b.borrow_mut().flush());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::with_enabled;

    #[test]
    fn a_sampled_span_times_every_sixteenth_call_of_its_site_in_nanoseconds() {
        let _on = with_enabled(true);
        let hist = crate::registry().histogram("test.span.sampled");
        let before = hist.count();
        for _ in 0..64 {
            let _span = crate::sampled_span!("test.span.sampled");
            std::hint::black_box(0u64);
        }
        // A second site keeps its own count: 15 calls never reach a turn.
        for _ in 0..15 {
            let _span = crate::sampled_span!("test.span.sampled");
        }
        flush_spans();
        assert_eq!(hist.count() - before, 4);
        {
            let _span = span_nanos(hist);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        flush_spans();
        assert!(hist.snapshot().max >= 2_000_000, "nanoseconds, not micros");
    }

    #[test]
    fn spans_record_after_flush() {
        let _on = with_enabled(true);
        let hist = crate::registry().histogram("test.span.lat");
        hist.reset();
        for _ in 0..10 {
            let _span = span(hist);
        }
        flush_spans();
        assert_eq!(hist.count(), 10);
    }

    #[test]
    fn buffer_auto_flushes_when_full() {
        let _on = with_enabled(true);
        let hist = crate::registry().histogram("test.span.auto");
        hist.reset();
        for _ in 0..FLUSH_EVERY {
            let _span = span(hist);
        }
        // The 64th drop crossed the threshold — no explicit flush needed.
        assert_eq!(hist.count(), FLUSH_EVERY as u64);
    }

    #[test]
    fn disabled_span_is_none() {
        let _off = with_enabled(false);
        let hist = crate::registry().histogram("test.span.off");
        assert!(span(hist).is_none());
    }
}
