//! Minimal fork/join helpers over `std::thread::scope`.
//!
//! The workspace is offline (no rayon), but the one overlay build
//! stage still worth fanning out — the per-host embedding solves,
//! two thirds of a 10k-proxy build — is embarrassingly parallel over
//! a contiguous index range. This crate
//! provides exactly that shape and nothing else: split `0..n` into
//! per-thread chunks, run a closure per chunk on scoped threads, and
//! concatenate the results **in range order**, so the output is
//! bit-identical to a sequential left-to-right pass regardless of
//! thread count or scheduling.
//!
//! # Example
//!
//! ```
//! let squares = son_par::par_map_chunks(4, 10, |range| {
//!     range.map(|i| i * i).collect::<Vec<_>>()
//! });
//! assert_eq!(squares, (0..10).map(|i| i * i).collect::<Vec<_>>());
//! ```

use std::ops::Range;

/// Resolves a requested thread count: `0` means "use the machine",
/// anything else is taken literally (minimum 1).
fn effective_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    } else {
        requested
    }
}

/// Splits `0..n` into at most `threads` contiguous chunks of
/// near-equal size (first chunks one longer when `n % threads != 0`).
/// Empty ranges are never produced.
fn chunk_ranges(threads: usize, n: usize) -> Vec<Range<usize>> {
    let threads = effective_threads(threads).min(n.max(1));
    let base = n / threads;
    let extra = n % threads;
    let mut out = Vec::with_capacity(threads);
    let mut start = 0;
    for t in 0..threads {
        let len = base + usize::from(t < extra);
        if len == 0 {
            continue;
        }
        out.push(start..start + len);
        start += len;
    }
    out
}

/// Maps `f` over contiguous chunks of `0..n` on scoped threads and
/// concatenates the per-chunk results in range order.
///
/// With `threads <= 1` (or `n <= 1`) this is a plain sequential call —
/// no threads are spawned — so callers get one code path whose output
/// is independent of the thread count by construction, provided `f`
/// itself only depends on the indices it is handed.
pub fn par_map_chunks<R, F>(threads: usize, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> Vec<R> + Sync,
{
    let threads = effective_threads(threads);
    if threads <= 1 || n <= 1 {
        return f(0..n);
    }
    let ranges = chunk_ranges(threads, n);
    if ranges.len() <= 1 {
        return f(0..n);
    }
    let mut parts: Vec<Vec<R>> = std::thread::scope(|scope| {
        let handles: Vec<_> = ranges
            .into_iter()
            .map(|range| scope.spawn(|| f(range)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });
    let mut out = Vec::with_capacity(n);
    for part in parts.iter_mut() {
        out.append(part);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_threads_resolves_zero() {
        assert!(effective_threads(0) >= 1);
        assert_eq!(effective_threads(3), 3);
        assert_eq!(effective_threads(1), 1);
    }

    #[test]
    fn chunks_cover_the_range_in_order() {
        for threads in 1..6 {
            for n in 0..20 {
                let ranges = chunk_ranges(threads, n);
                let flat: Vec<usize> = ranges.iter().cloned().flatten().collect();
                assert_eq!(flat, (0..n).collect::<Vec<_>>(), "t={threads} n={n}");
                assert!(ranges.iter().all(|r| !r.is_empty()));
                assert!(ranges.len() <= threads.max(1));
            }
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let work = |range: Range<usize>| range.map(|i| i * 7 + 1).collect::<Vec<_>>();
        let seq = par_map_chunks(1, 100, work);
        for threads in [2, 3, 8, 64] {
            assert_eq!(par_map_chunks(threads, 100, work), seq);
        }
    }

    #[test]
    fn variable_length_chunk_outputs_concatenate() {
        // Each index yields a different number of outputs; order must
        // still match the sequential pass.
        let work = |range: Range<usize>| {
            let mut out = Vec::new();
            for i in range {
                for k in 0..(i % 3) {
                    out.push((i, k));
                }
            }
            out
        };
        assert_eq!(par_map_chunks(4, 50, work), par_map_chunks(1, 50, work));
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let work = |range: Range<usize>| range.collect::<Vec<_>>();
        assert_eq!(par_map_chunks(8, 0, work), Vec::<usize>::new());
        assert_eq!(par_map_chunks(8, 1, work), vec![0]);
    }
}
