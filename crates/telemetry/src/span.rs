//! Scoped spans: RAII timers that nest into dotted paths.
//!
//! `span!("build.topology")` starts a timer; when the guard drops, the
//! elapsed time lands in the global histogram `span.<path>_us`. Spans
//! opened while another span is live on the same thread nest under it
//! (`outer.inner`), so a registry snapshot shows the overlay build's
//! stage breakdown (`span.build.<stage>_us`).
//!
//! The span stack is thread-local; guards must drop in LIFO order (the
//! natural order for lexically scoped guards). When telemetry is
//! disabled the guard is inert and costs one atomic load.

use std::cell::RefCell;
use std::time::Instant;

thread_local! {
    static STACK: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

/// An RAII span guard. Records its elapsed microseconds on drop.
pub struct Span {
    inner: Option<SpanInner>,
}

struct SpanInner {
    path: String,
    start: Instant,
}

impl Span {
    /// Opens a span named `name`, nested under the innermost live span
    /// on this thread (if any). Inert when telemetry is disabled.
    pub fn enter(name: &str) -> Span {
        if !crate::enabled() {
            return Span { inner: None };
        }
        let path = STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let path = match stack.last() {
                Some(parent) => format!("{parent}.{name}"),
                None => name.to_string(),
            };
            stack.push(path.clone());
            path
        });
        Span {
            inner: Some(SpanInner {
                path,
                start: Instant::now(),
            }),
        }
    }

    /// Full dotted path of this span (`None` when inert).
    pub fn path(&self) -> Option<&str> {
        self.inner.as_ref().map(|i| i.path.as_str())
    }

    /// Elapsed time so far, in microseconds (zero when inert).
    pub fn elapsed_us(&self) -> f64 {
        self.inner
            .as_ref()
            .map(|i| i.start.elapsed().as_secs_f64() * 1e6)
            .unwrap_or(0.0)
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else {
            return;
        };
        let elapsed_us = inner.start.elapsed().as_secs_f64() * 1e6;
        STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            // LIFO in practice; tolerate out-of-order drops by removing
            // the matching entry rather than blindly popping.
            if let Some(pos) = stack.iter().rposition(|p| *p == inner.path) {
                stack.remove(pos);
            }
        });
        crate::global()
            .histogram(&format!("span.{}_us", inner.path))
            .record(elapsed_us);
    }
}

/// Opens a [`Span`] and binds it to a guard expression:
/// `let _span = span!("engine.serve");`
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::Span::enter($name)
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    /// The disabled-spans test flips the global enable flag, so span
    /// tests must not interleave with each other.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn serialize() -> MutexGuard<'static, ()> {
        TEST_LOCK
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn spans_nest_into_dotted_paths() {
        let _guard = serialize();
        let outer = Span::enter("span_test_outer");
        assert_eq!(outer.path(), Some("span_test_outer"));
        {
            let inner = Span::enter("inner");
            assert_eq!(inner.path(), Some("span_test_outer.inner"));
            let deeper = Span::enter("deep");
            assert_eq!(deeper.path(), Some("span_test_outer.inner.deep"));
        }
        // Stack unwound: a sibling nests under the outer span again.
        let sibling = Span::enter("sibling");
        assert_eq!(sibling.path(), Some("span_test_outer.sibling"));
    }

    #[test]
    fn outer_span_time_dominates_inner() {
        let _guard = serialize();
        {
            let _outer = span!("span_test_mono");
            {
                let _inner = span!("inner");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let reg = crate::global();
        let outer = reg.histogram("span.span_test_mono_us");
        let inner = reg.histogram("span.span_test_mono.inner_us");
        assert_eq!(outer.count(), 1);
        assert_eq!(inner.count(), 1);
        assert!(
            outer.sum() >= inner.sum(),
            "outer {} < inner {}",
            outer.sum(),
            inner.sum()
        );
        assert!(inner.sum() >= 2_000.0, "inner span missed its sleep");
    }

    #[test]
    fn disabled_spans_are_inert() {
        let _guard = serialize();
        crate::set_enabled(false);
        let span = Span::enter("span_test_disabled");
        assert_eq!(span.path(), None);
        drop(span);
        crate::set_enabled(true);
        assert_eq!(
            crate::global()
                .histogram("span.span_test_disabled_us")
                .count(),
            0
        );
    }
}
