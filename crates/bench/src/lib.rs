//! Shared helpers for the `amo` command and `amo-benchmark`: the
//! dependency-free CLI parser and wall-clock timing. The experiment
//! profiles live in `amo_campaign::ArtifactProfile`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod timing;

pub use timing::timed;

/// Minimal command-line parsing: `--name value` flags and `--bare`
/// switches, no external dependencies. [`cli::Args::parse`] accepts any
/// flag (and guesses from the next token whether it takes a value);
/// [`cli::Command::parse`] checks the line against a declared grammar.
pub mod cli {
    /// One command, declared by the synopsis its usage text shows —
    /// which is also the grammar [`Command::parse`] checks a command
    /// line against, so the two cannot disagree.
    pub struct Command {
        /// The words that select the command (`"chaos"`, `"experiment
        /// barrier"`).
        pub name: &'static str,
        /// The arguments, in usage notation: `[--name]` is a switch,
        /// `[--name VALUE]` a flag with a value, either without the
        /// brackets is required; any other word is a positional
        /// argument, and one containing `...` may repeat.
        pub synopsis: &'static str,
        /// What the command does, for the usage text.
        pub about: &'static str,
    }

    impl Command {
        /// Parse `raw` (everything after the command's name). Unlike
        /// [`Args::parse`], a switch never swallows the token after it,
        /// and an undeclared flag, a value flag without a value, a
        /// surplus positional or a missing required flag is an error
        /// naming the offending token.
        pub fn parse(&self, raw: &[String]) -> Result<Args, String> {
            // The grammar: (flag, value placeholder if it takes one,
            // required) and how many positionals fit.
            let mut flags: Vec<(&str, Option<&str>, bool)> = Vec::new();
            let mut max_positionals = 0usize;
            let mut words = self.synopsis.split_whitespace();
            while let Some(word) = words.next() {
                let Some(name) = word.trim_start_matches('[').strip_prefix("--") else {
                    let n = if word.contains("...") { usize::MAX } else { 1 };
                    max_positionals = max_positionals.saturating_add(n);
                    continue;
                };
                let value = match name.strip_suffix(']') {
                    Some(_) => None,
                    None => words.next().map(|v| v.trim_end_matches(']')),
                };
                flags.push((name.trim_end_matches(']'), value, !word.starts_with('[')));
            }

            let mut args = Args {
                flags: Vec::new(),
                errors: Vec::new(),
            };
            let mut it = raw.iter();
            while let Some(a) = it.next() {
                let Some(name) = a.strip_prefix("--") else {
                    if args.errors.len() == max_positionals {
                        return Err(format!("unexpected argument '{a}'"));
                    }
                    args.errors.push(a.clone());
                    continue;
                };
                let Some(&(_, placeholder, _)) = flags.iter().find(|f| f.0 == name) else {
                    return Err(format!("unknown flag '{a}'"));
                };
                let value = match placeholder.map(|p| (p, it.next())) {
                    None => None,
                    Some((_, Some(v))) if !v.starts_with("--") => Some(v.clone()),
                    Some((p, _)) => return Err(format!("{a} needs a value ({p})")),
                };
                args.flags.push((name.to_string(), value));
            }
            match flags.iter().find(|f| f.2 && !args.has(f.0)) {
                Some(missing) => Err(format!("--{} is required", missing.0)),
                None => Ok(args),
            }
        }

        /// `amo <name> <synopsis>` and the description, indented.
        pub fn usage(&self) -> String {
            let mut out = format!("  amo {}", self.name);
            for (i, line) in self.synopsis.lines().enumerate() {
                out.push_str(if i == 0 { " " } else { "\n        " });
                out.push_str(line.trim_start());
            }
            for line in self.about.lines() {
                out.push_str("\n      ");
                out.push_str(line.trim_start());
            }
            out.push('\n');
            out
        }
    }

    /// Parsed flags, in order of appearance.
    pub struct Args {
        flags: Vec<(String, Option<String>)>,
        /// Positional arguments, in order. Commands that take none
        /// report them as errors.
        pub errors: Vec<String>,
    }

    impl Args {
        /// Parse raw arguments without a grammar: any `--name` is a
        /// flag, and takes the next token as its value unless that
        /// token is a flag too.
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

        /// Parse `--name a,b,..` as a list of numbers, with a default.
        pub fn list<T: std::str::FromStr>(
            &self,
            name: &str,
            default: Vec<T>,
        ) -> Result<Vec<T>, String> {
            let Some(v) = self.get(name) else {
                return Ok(default);
            };
            v.split(',')
                .map(|s| {
                    s.trim()
                        .parse()
                        .map_err(|_| format!("--{name}: cannot parse '{s}'"))
                })
                .collect()
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
