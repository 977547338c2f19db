//! Work in parts across cores: the one helper behind the `ss` scan in
//! text-range parts ([`crate::ss`]) and the agent's tick in key-range
//! parts (`riptide::agent`).
//!
//! Callers decide how many parts a job is worth; this module reads how
//! many cores there are, once per process, and runs the parts on scoped
//! threads.

use std::sync::OnceLock;

/// Hardware threads, read once per process: the most parts any job runs
/// in. One when the platform cannot say.
pub fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from))
}

/// Runs `work` on each of `parts`, the first on this thread and every
/// other on a scoped thread of its own. Returns the first part's result
/// and the others', in part order, or `None` for no parts. One part
/// spawns nothing. A panic in any part resumes here with that part's own
/// payload.
pub fn in_parts<T: Send, R: Send>(
    parts: impl IntoIterator<Item = T>,
    work: impl Fn(T) -> R + Sync,
) -> Option<(R, Vec<R>)> {
    let mut parts = parts.into_iter();
    let first = parts.next()?;
    let mut others = parts.peekable();
    if others.peek().is_none() {
        return Some((work(first), Vec::new()));
    }
    std::thread::scope(|scope| {
        let work = &work;
        let others: Vec<_> = others.map(|part| scope.spawn(move || work(part))).collect();
        let first = work(first);
        let others = others
            .into_iter()
            .map(|other| {
                other
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect();
        Some((first, others))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_part_order() {
        assert_eq!(in_parts(0..0, |i: u32| i), None);
        assert_eq!(in_parts([7], |i: u32| i * 2), Some((14, Vec::new())));
        assert_eq!(
            in_parts(1..=4, |i: u32| i * 10),
            Some((10, vec![20, 30, 40]))
        );
    }

    #[test]
    fn a_panicking_part_resumes_with_its_own_message() {
        let caught = std::panic::catch_unwind(|| {
            in_parts(0..3, |i: u32| {
                assert!(i != 2, "part {i} failed");
                i
            })
        });
        let payload = caught.expect_err("the panic reaches the caller");
        let message = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied());
        assert_eq!(message, Some("part 2 failed"));
    }
}
