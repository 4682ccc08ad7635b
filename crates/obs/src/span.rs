//! Scoped span timers.
//!
//! A [`span`] captures `Instant::now()` when created (only if
//! observability is on — otherwise it is `None` and costs one branch) and
//! records its elapsed microseconds into the target histogram when it is
//! dropped, so a scrape sees every span that has ended, whichever thread
//! timed it.

use crate::metrics::Histogram;
use std::time::Instant;

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
        // The span was started while the switch was on; a disable since
        // must not drop it.
        self.hist.record_always(sample);
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
        assert_eq!(hist.count() - before, 4);
        {
            let _span = span_nanos(hist);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        assert!(hist.snapshot().max >= 2_000_000, "nanoseconds, not micros");
    }

    #[test]
    fn spans_record_when_they_end() {
        let _on = with_enabled(true);
        let hist = crate::registry().histogram("test.span.lat");
        hist.reset();
        for i in 0..10 {
            let _span = span(hist);
            assert_eq!(hist.count(), i, "nothing recorded before the end");
        }
        assert_eq!(hist.count(), 10);
        // A span started while recording was on records even if the
        // switch goes off before it ends.
        let started = span(hist);
        crate::set_enabled(false);
        drop(started);
        assert_eq!(hist.count(), 11);
    }

    #[test]
    fn disabled_span_is_none() {
        let _off = with_enabled(false);
        let hist = crate::registry().histogram("test.span.off");
        assert!(span(hist).is_none());
    }
}
