//! Shared helpers for the benchmark harness binaries: the
//! dependency-free CLI parser, wall-clock timing and steady-state host
//! profiling. The experiment profiles live in
//! `amo_campaign::ArtifactProfile`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hostprof;
pub mod timing;

pub use timing::{timed, Stopwatch};

/// Minimal command-line parsing for the `experiment` binary: `--name
/// value` flags and `--bare` switches, no external dependencies.
pub mod cli {
    /// Parsed flags, in order of appearance.
    pub struct Args {
        flags: Vec<(String, Option<String>)>,
        /// Positional arguments that looked malformed.
        pub errors: Vec<String>,
    }

    impl Args {
        /// Parse raw arguments (everything after the subcommand).
        pub fn parse(raw: &[String]) -> Self {
            let mut flags = Vec::new();
            let mut errors = Vec::new();
            let mut it = raw.iter().peekable();
            while let Some(a) = it.next() {
                if let Some(name) = a.strip_prefix("--") {
                    let value = match it.peek() {
                        Some(v) if !v.starts_with("--") => Some(it.next().unwrap().clone()),
                        _ => None,
                    };
                    flags.push((name.to_string(), value));
                } else {
                    errors.push(a.clone());
                }
            }
            Args { flags, errors }
        }

        /// Value of `--name value`, if present.
        pub fn get(&self, name: &str) -> Option<&str> {
            self.flags
                .iter()
                .find(|(n, _)| n == name)
                .and_then(|(_, v)| v.as_deref())
        }

        /// Whether `--name` appeared (with or without a value).
        pub fn has(&self, name: &str) -> bool {
            self.flags.iter().any(|(n, _)| n == name)
        }

        /// Parse `--name` as a number, with a default and an error sink.
        pub fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
            match self.get(name) {
                None => Ok(default),
                Some(v) => v
                    .parse()
                    .map_err(|_| format!("--{name}: cannot parse '{v}'")),
            }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        fn s(v: &[&str]) -> Vec<String> {
            v.iter().map(|x| x.to_string()).collect()
        }

        #[test]
        fn flags_with_and_without_values() {
            let a = Args::parse(&s(&["--mech", "amo", "--csv", "--procs", "64"]));
            assert_eq!(a.get("mech"), Some("amo"));
            assert!(a.has("csv"));
            assert_eq!(a.get("csv"), None);
            assert_eq!(a.num("procs", 0u16), Ok(64));
            assert!(a.errors.is_empty());
        }

        #[test]
        fn defaults_and_parse_errors() {
            let a = Args::parse(&s(&["--rounds", "eight"]));
            assert!(a.num::<u32>("rounds", 8).is_err());
            assert_eq!(a.num("episodes", 10u32), Ok(10));
        }

        #[test]
        fn positional_arguments_are_reported() {
            let a = Args::parse(&s(&["oops", "--x", "1"]));
            assert_eq!(a.errors, vec!["oops".to_string()]);
            assert_eq!(a.get("x"), Some("1"));
        }

        #[test]
        fn consecutive_switches_do_not_eat_each_other() {
            let a = Args::parse(&s(&["--csv", "--quick", "--procs", "4"]));
            assert!(a.has("csv") && a.has("quick"));
            assert_eq!(a.num("procs", 0u16), Ok(4));
        }
    }
}
