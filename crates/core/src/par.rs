//! The workspace's one fork-join and its one reading of the host's cores.
//!
//! Every parallel path — a union's disjuncts and a join step's morsels in
//! the executor, a program stratum's rules, a rewriting frontier round —
//! splits its items through [`fan_out`], and every default worker count is
//! [`cores`].

use std::sync::OnceLock;

/// The worker count every parallel path defaults to: the host's available
/// parallelism, read once per process (the read costs cgroup file reads,
/// about 12 µs), and never below 2 so that which paths split, and the
/// counters that report it, are the same on every host.
pub fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(2, |n| n.get().max(2)))
}

/// Fold contiguous chunks of `items` into per-worker accumulators on up to
/// `workers` scoped threads, then concatenate the accumulators in item
/// order. Returns the merged accumulator and the number of workers that
/// actually ran.
///
/// The budget is clamped to the item count and then to the chunks
/// ceil-division really produces (72 items over 10 workers chunk by 8,
/// which leaves 9), so callers report the workers used, not requested.
/// With one worker `fold` streams all of `items` into the single
/// accumulator on the caller's thread — no spawn, no per-chunk result.
/// A worker's panic is re-raised here with its original payload.
pub fn fan_out<T, A, F>(items: &[T], workers: usize, fold: F) -> (A, usize)
where
    T: Sync,
    A: Default + Extend<<A as IntoIterator>::Item> + IntoIterator + Send,
    F: Fn(&mut A, &[T]) + Sync,
{
    let requested = workers.clamp(1, items.len().max(1));
    let mut out = A::default();
    if requested <= 1 {
        fold(&mut out, items);
        return (out, 1);
    }
    let chunk_size = items.len().div_ceil(requested);
    let used = std::thread::scope(|scope| {
        let fold = &fold;
        let handles: Vec<_> = items
            .chunks(chunk_size)
            .map(|chunk| {
                scope.spawn(move || {
                    let mut local = A::default();
                    fold(&mut local, chunk);
                    local
                })
            })
            .collect();
        let used = handles.len();
        for handle in handles {
            match handle.join() {
                Ok(local) => out.extend(local),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        used
    });
    (out, used)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cores_is_read_once_and_floored_at_two() {
        assert!(cores() >= 2);
        assert_eq!(cores(), cores());
    }

    #[test]
    fn fan_out_chunks_contiguously_and_reports_workers_used() {
        let items: Vec<u32> = (0..72).collect();
        let collect = |out: &mut Vec<u32>, chunk: &[u32]| out.extend(chunk);
        for (workers, used) in [(0, 1), (1, 1), (3, 3), (10, 9), (500, 72)] {
            let (out, ran): (Vec<u32>, usize) = fan_out(&items, workers, collect);
            assert_eq!((out, ran), (items.clone(), used), "workers={workers}");
        }
        let (out, ran): (Vec<u32>, usize) = fan_out(&[], 4, collect);
        assert_eq!((out, ran), (Vec::new(), 1));
    }

    /// A worker's panic reaches the caller with its original payload, not
    /// a message made up at the join site.
    #[test]
    fn fan_out_re_raises_a_worker_panic_with_its_payload() {
        let caught = std::panic::catch_unwind(|| {
            fan_out(&[1, 2], 2, |_: &mut Vec<u32>, chunk: &[u32]| {
                if chunk == [2] {
                    panic!("boom");
                }
            })
        })
        .expect_err("the worker's panic must propagate");
        assert_eq!(caught.downcast_ref::<&str>(), Some(&"boom"));
    }
}
