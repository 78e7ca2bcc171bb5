//! Minimal data-parallel helpers built on scoped threads.
//!
//! The simulations are round-synchronous, so all parallelism is simple
//! fork-join over per-user work; no async runtime is warranted.

/// Number of worker threads to use.
///
/// The `CIA_THREADS` environment variable pins the count explicitly (CI and
/// golden-transcript jobs set `CIA_THREADS=2` so runs are reproducible and
/// cheap regardless of the host); `1` disables worker spawning entirely.
/// Unset — or set to `0` or garbage — falls back to available parallelism,
/// capped at 16. Every helper in this module produces results that are
/// byte-identical for *any* thread count (fixed work assignment, ordered
/// reduction), so the variable only affects wall-clock time.
///
/// The variable is re-read on every call (a few times per protocol round —
/// negligible) so tests can flip it at runtime.
pub fn num_threads() -> usize {
    if let Ok(v) = std::env::var("CIA_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n.min(64);
            }
        }
    }
    std::thread::available_parallelism().map(std::num::NonZero::get).unwrap_or(4).min(16)
}

/// Applies `f` to every element of `items` in parallel, mutating in place.
///
/// Chunks are distributed contiguously across [`num_threads`] workers; `f`
/// receives the element's index and a mutable reference.
pub fn par_for_each_mut<T: Send, F>(items: &mut [T], f: F)
where
    F: Fn(usize, &mut T) + Sync,
{
    // One item never fans out, so it skips the environment read.
    let threads = if items.len() > 1 { num_threads() } else { 1 };
    if threads <= 1 {
        for (i, item) in items.iter_mut().enumerate() {
            f(i, item);
        }
        return;
    }
    let chunk = items.len().div_ceil(threads);
    std::thread::scope(|s| {
        for (c, slice) in items.chunks_mut(chunk).enumerate() {
            let f = &f;
            s.spawn(move || {
                for (i, item) in slice.iter_mut().enumerate() {
                    f(c * chunk + i, item);
                }
            });
        }
    });
}

/// Computes `f(i)` for `i in 0..n` in parallel and returns the results in
/// index order.
///
/// Workers each fill a per-chunk `Vec<R>` which are concatenated in chunk
/// order, so results need no `Option` wrapping or unwrap re-scan.
pub fn par_map<R: Send, F>(n: usize, f: F) -> Vec<R>
where
    F: Fn(usize) -> R + Sync,
{
    let threads = num_threads();
    if n <= 1 || threads <= 1 {
        return (0..n).map(f).collect();
    }
    let chunk = n.div_ceil(threads);
    let mut out: Vec<R> = Vec::with_capacity(n);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..n)
            .step_by(chunk)
            .map(|start| {
                let f = &f;
                let end = (start + chunk).min(n);
                s.spawn(move || (start..end).map(f).collect::<Vec<R>>())
            })
            .collect();
        for handle in handles {
            out.extend(handle.join().expect("par_map worker panicked"));
        }
    });
    out
}

/// Applies `f` to consecutive `chunk`-sized windows of `items` in parallel;
/// `f` receives the chunk index and the chunk (the last one may be shorter).
/// Used to fill row-major matrices row-by-row without collecting row
/// references.
///
/// # Panics
///
/// Panics if `chunk` is zero.
pub fn par_chunks_mut<T: Send, F>(items: &mut [T], chunk: usize, f: F)
where
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk > 0, "chunk size must be positive");
    let total = items.len().div_ceil(chunk);
    let threads = num_threads();
    if total <= 1 || threads <= 1 {
        for (i, c) in items.chunks_mut(chunk).enumerate() {
            f(i, c);
        }
        return;
    }
    // Chunks-per-thread groups stay contiguous so indices are recoverable.
    let per_thread = total.div_ceil(threads);
    std::thread::scope(|s| {
        for (g, group) in items.chunks_mut(chunk * per_thread).enumerate() {
            let f = &f;
            s.spawn(move || {
                for (i, c) in group.chunks_mut(chunk).enumerate() {
                    f(g * per_thread + i, c);
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_for_each_mut_touches_every_element_once() {
        let mut v: Vec<u64> = vec![0; 1000];
        par_for_each_mut(&mut v, |i, x| *x = i as u64 * 2);
        for (i, x) in v.iter().enumerate() {
            assert_eq!(*x, i as u64 * 2);
        }
    }

    #[test]
    fn par_map_preserves_order() {
        let out = par_map(257, |i| i * i);
        for (i, x) in out.iter().enumerate() {
            assert_eq!(*x, i * i);
        }
    }

    #[test]
    fn par_map_empty_and_single() {
        assert!(par_map(0, |i| i).is_empty());
        assert_eq!(par_map(1, |i| i + 5), vec![5]);
    }

    #[test]
    fn par_chunks_mut_indexes_every_chunk() {
        let mut v: Vec<u64> = vec![0; 103]; // deliberately not a multiple
        par_chunks_mut(&mut v, 10, |ci, chunk| {
            for (o, x) in chunk.iter_mut().enumerate() {
                *x = (ci * 10 + o) as u64;
            }
        });
        for (i, x) in v.iter().enumerate() {
            assert_eq!(*x, i as u64);
        }
        // Degenerate cases: empty slice, chunk larger than the slice.
        par_chunks_mut(&mut [] as &mut [u64], 4, |_, _| panic!("no chunks"));
        let mut one = vec![7u64; 3];
        par_chunks_mut(&mut one, 100, |ci, c| {
            assert_eq!(ci, 0);
            assert_eq!(c.len(), 3);
        });
    }
}
