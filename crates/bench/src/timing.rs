//! Wall-clock measurement shared by `amo` and `amo-benchmark`.

use std::time::Instant;

/// Run `f` and return its value together with the elapsed wall-clock
/// seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let value = f();
    (value, t0.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_returns_value_and_nonnegative_seconds() {
        let (v, secs) = timed(|| 6 * 7);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
    }
}
