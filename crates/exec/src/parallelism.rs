//! Worker-count configuration for the [`ThreadPool`](crate::ThreadPool).

use std::num::NonZeroUsize;

/// Environment variable controlling the default worker count.
///
/// Set `POWERMOVE_THREADS=1` to force fully sequential execution (useful for
/// determinism checks and profiling) or to any positive integer to pin the
/// pool size. Unset or unparseable values fall back to the number of
/// available CPU cores.
pub const THREADS_ENV: &str = "POWERMOVE_THREADS";

/// How many worker threads a [`ThreadPool`](crate::ThreadPool) uses.
///
/// The default (`Parallelism::from_env`) honours [`THREADS_ENV`] and
/// otherwise matches the number of available cores, so the pipeline and the
/// experiment harness scale with the machine without any configuration.
///
/// # Example
///
/// ```
/// use powermove_exec::Parallelism;
///
/// assert_eq!(Parallelism::fixed(4).threads(), 4);
/// assert!(Parallelism::available().threads() >= 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Parallelism {
    threads: NonZeroUsize,
}

impl Parallelism {
    /// Exactly `threads` workers; `0` is clamped to `1`.
    #[must_use]
    pub fn fixed(threads: usize) -> Self {
        Parallelism {
            threads: NonZeroUsize::new(threads.max(1)).expect("clamped to at least 1"),
        }
    }

    /// One worker per available CPU core (at least one).
    #[must_use]
    pub fn available() -> Self {
        let threads = std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1);
        Parallelism::fixed(threads)
    }

    /// Reads [`THREADS_ENV`]; unset, unparseable or zero values fall back to
    /// [`Parallelism::available`].
    #[must_use]
    pub fn from_env() -> Self {
        match std::env::var(THREADS_ENV) {
            Ok(value) => match value.trim().parse::<usize>() {
                Ok(threads) if threads > 0 => Parallelism::fixed(threads),
                _ => Parallelism::available(),
            },
            Err(_) => Parallelism::available(),
        }
    }

    /// Interprets a configuration knob: `0` means "automatic" (environment,
    /// then core count), any other value pins the worker count.
    #[must_use]
    pub fn from_setting(threads: usize) -> Self {
        if threads == 0 {
            Parallelism::from_env()
        } else {
            Parallelism::fixed(threads)
        }
    }

    /// The configured worker count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads.get()
    }
}

impl Default for Parallelism {
    fn default() -> Self {
        Parallelism::from_env()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_clamps_zero_to_one() {
        assert_eq!(Parallelism::fixed(0).threads(), 1);
        assert_eq!(Parallelism::fixed(3).threads(), 3);
    }

    #[test]
    fn available_is_at_least_one() {
        assert!(Parallelism::available().threads() >= 1);
    }

    #[test]
    fn from_setting_pins_nonzero_values() {
        // Only the pinned branch here: `from_setting(0)` reads the
        // environment and is covered by `env_variable_controls_default`,
        // the single test allowed to touch THREADS_ENV.
        assert_eq!(Parallelism::from_setting(5).threads(), 5);
        assert_eq!(Parallelism::from_setting(1).threads(), 1);
    }

    #[test]
    fn env_variable_controls_default() {
        // All `THREADS_ENV` mutation lives in this single test: tests run on
        // parallel threads and the environment is process-global.
        std::env::set_var(THREADS_ENV, "3");
        assert_eq!(Parallelism::from_env().threads(), 3);
        assert_eq!(Parallelism::from_setting(0).threads(), 3);
        assert_eq!(Parallelism::from_setting(2).threads(), 2);

        std::env::set_var(THREADS_ENV, "0");
        assert!(Parallelism::from_env().threads() >= 1);

        std::env::set_var(THREADS_ENV, "not-a-number");
        assert!(Parallelism::from_env().threads() >= 1);

        std::env::remove_var(THREADS_ENV);
        assert_eq!(
            Parallelism::from_env().threads(),
            Parallelism::available().threads()
        );
    }
}
