//! Process-wide metrics and tracing for the MTC stack.
//!
//! Everything here is built around one invariant: **when observability is
//! disabled, instrumented code must behave exactly like uninstrumented
//! code** — the hot paths pay one relaxed [`AtomicBool`] load and a
//! predictable branch, nothing else. Flip the switch with [`set_enabled`]
//! (the daemons do it at startup; libraries never touch it) and the same
//! call sites start recording.
//!
//! The building blocks:
//!
//! * [`Counter`] — monotone event count, one relaxed `fetch_add` per add.
//! * [`Gauge`] — instantaneous level (queue depth, live connections), one
//!   signed atomic.
//! * [`Histogram`] — fixed-footprint log-linear buckets (32 sub-buckets
//!   per power-of-two octave, ≤ ~1.6% quantile quantization) with lock-free
//!   recording and p50/p90/p99 snapshots.
//! * [`span`] / [`SpanTimer`] — scoped wall-clock timers that record their
//!   elapsed time into a histogram when they end, so a scrape sees what a
//!   long-lived thread timed as soon as the span closes;
//!   [`sampled_span!`] is the 1-in-16, nanosecond form for work too short
//!   to pay two clock reads every time.
//! * [`registry`] — the global name → metric table. Handles are
//!   `&'static` (metrics are leaked once and live forever), so call sites
//!   resolve a name once and then touch pure atomics. The [`counter!`],
//!   [`gauge!`] and [`histogram!`] macros cache the lookup in a per-site
//!   `OnceLock` for static names; per-tenant metrics resolve dynamically
//!   and store the handle in the tenant struct.
//! * [`MetricsSnapshot`] — a serializable point-in-time view of every
//!   registered metric, served over the wire by the daemons.
//! * [`events`] — a structured JSONL event log (startup, connections,
//!   tenant lifecycle, violations) that is off by default and goes to
//!   stderr when a binary opts in.
//!
//! [`AtomicBool`]: std::sync::atomic::AtomicBool

mod metrics;
mod registry;
mod span;

pub mod events;

pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
pub use registry::{registry, MetricsSnapshot, Registry};
pub use span::{span, span_nanos, SpanTimer};

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Test-only support for flipping the global switch without races: tests
/// that toggle [`set_enabled`] run in parallel threads within one binary,
/// so they serialize on this guard. Not part of the public API.
#[doc(hidden)]
pub mod test_support {
    use std::sync::{Mutex, MutexGuard, OnceLock};

    fn lock() -> &'static Mutex<()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(()))
    }

    /// Holds the toggle lock, sets the switch, and restores the previous
    /// state on drop.
    pub struct EnabledGuard {
        was: bool,
        _guard: MutexGuard<'static, ()>,
    }

    /// Serializes the caller against other switch-toggling tests and sets
    /// the switch to `on` until the guard drops.
    pub fn with_enabled(on: bool) -> EnabledGuard {
        let guard = lock().lock().unwrap_or_else(|e| e.into_inner());
        let was = crate::enabled();
        crate::set_enabled(on);
        EnabledGuard { was, _guard: guard }
    }

    impl Drop for EnabledGuard {
        fn drop(&mut self) {
            crate::set_enabled(self.was);
        }
    }
}

/// Turns metric recording on or off process-wide.
///
/// Off (the default) every [`Counter::add`], [`Gauge::add`],
/// [`Histogram::record`] and [`span`] is a relaxed load plus an untaken
/// branch. Binaries that want observability (the daemons, the bench
/// gate's instrumented series) flip this once at startup; libraries never
/// call it.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

/// Whether metric recording is currently on.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Resolves (once per call site) a named [`Counter`] from the global
/// registry. The name must be a `&'static str`-valued expression that is
/// stable across calls — the lookup is cached in a per-site `OnceLock`.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static SITE: std::sync::OnceLock<&'static $crate::Counter> = std::sync::OnceLock::new();
        *SITE.get_or_init(|| $crate::registry().counter($name))
    }};
}

/// Resolves (once per call site) a named [`Gauge`] from the global
/// registry. See [`counter!`] for the caching contract.
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static SITE: std::sync::OnceLock<&'static $crate::Gauge> = std::sync::OnceLock::new();
        *SITE.get_or_init(|| $crate::registry().gauge($name))
    }};
}

/// A [`span`] for work of a few hundred nanoseconds, where an unsampled
/// pair of clock reads would cost as much as what they time: starts a span
/// against the named histogram on every 16th call from this call site and
/// thread (`None` otherwise, and always while observability is off), and
/// that span records **nanoseconds**. Bind the result to keep it alive.
#[macro_export]
macro_rules! sampled_span {
    ($name:expr) => {{
        thread_local! {
            static TICK: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
        }
        let due = $crate::enabled()
            && TICK.with(|t| {
                t.set(t.get().wrapping_add(1));
                t.get() % 16 == 0
            });
        due.then(|| $crate::span_nanos($crate::histogram!($name)))
    }};
}

/// Resolves (once per call site) a named [`Histogram`] from the global
/// registry. See [`counter!`] for the caching contract.
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static SITE: std::sync::OnceLock<&'static $crate::Histogram> = std::sync::OnceLock::new();
        *SITE.get_or_init(|| $crate::registry().histogram($name))
    }};
}
