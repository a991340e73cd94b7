//! Strict command-line parsing shared by `cv-serve` and `cv-submit`.
//!
//! Each binary declares the flags it knows. An unknown flag, a flag without
//! its value, a value that does not parse and a flag given twice are all a
//! [`UsageError`], which the binaries print beside their usage text before
//! exiting with [`EXIT_USAGE`]. Nothing falls back to a default silently:
//! a default applies only to a flag that is absent.

use std::collections::HashMap;
use std::fmt;
use std::str::FromStr;

/// Process exit code for a rejected command line (`EX_USAGE` of
/// `sysexits.h`), distinct from every [`crate::ClientError::exit_code`].
pub const EXIT_USAGE: i32 = 64;

/// Why a command line was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UsageError(pub String);

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for UsageError {}

/// A parsed command line: `--flag VALUE` pairs, bare `--switch`es, and the
/// positional arguments in order.
#[derive(Debug, Default)]
pub struct Args {
    values: HashMap<String, String>,
    switches: Vec<String>,
    positionals: Vec<String>,
}

impl Args {
    /// Parses `args` (program name excluded). `valued` lists the flags that
    /// take the next argument as their value, `switches` the flags that
    /// take none; any other argument starting with `--` is an error.
    ///
    /// # Errors
    ///
    /// [`UsageError`] for an unknown flag, a repeated flag, or a valued
    /// flag followed by nothing or by another flag.
    pub fn parse(
        args: impl IntoIterator<Item = String>,
        valued: &[&str],
        switches: &[&str],
    ) -> Result<Self, UsageError> {
        let mut parsed = Args::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            if !arg.starts_with("--") {
                parsed.positionals.push(arg);
            } else if parsed.has(&arg) {
                return Err(UsageError(format!("{arg} given twice")));
            } else if switches.contains(&arg.as_str()) {
                parsed.switches.push(arg);
            } else if valued.contains(&arg.as_str()) {
                match args.next() {
                    Some(value) if !value.starts_with("--") => {
                        parsed.values.insert(arg, value);
                    }
                    _ => return Err(UsageError(format!("{arg} needs a value"))),
                }
            } else {
                return Err(UsageError(format!("unknown flag {arg}")));
            }
        }
        Ok(parsed)
    }

    /// Whether `flag` was given, as a switch or with a value.
    pub fn has(&self, flag: &str) -> bool {
        self.values.contains_key(flag) || self.switches.iter().any(|s| s == flag)
    }

    /// The raw value of a valued `flag`, if given.
    pub fn get(&self, flag: &str) -> Option<&str> {
        self.values.get(flag).map(String::as_str)
    }

    /// The value of `flag` parsed as `T`, or `default` when it is absent.
    ///
    /// # Errors
    ///
    /// [`UsageError`] when the value is given but does not parse.
    pub fn value<T: FromStr>(&self, flag: &str, default: T) -> Result<T, UsageError> {
        match self.get(flag) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| UsageError(format!("{flag}: invalid value '{raw}'"))),
        }
    }

    /// The positional arguments, in order.
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, UsageError> {
        let args = line.split_whitespace().map(String::from);
        Args::parse(args, &["--episodes", "--addr"], &["--quiet"])
    }

    #[test]
    fn flags_switches_and_positionals_parse_anywhere() {
        let args = parse("status --addr 127.0.0.1:1 --quiet --episodes 12").unwrap();
        assert_eq!(args.positionals(), ["status"]);
        assert_eq!(args.get("--addr"), Some("127.0.0.1:1"));
        assert!(args.has("--quiet") && args.has("--episodes") && !args.has("--seed"));
        assert_eq!(args.value("--episodes", 16usize), Ok(12));
        assert_eq!(
            args.value("--seed", 7u64),
            Ok(7),
            "absent flag takes its default"
        );
    }

    #[test]
    fn bad_command_lines_are_usage_errors() {
        for (line, why) in [
            ("--bogus", "unknown flag --bogus"),
            ("--episodes", "--episodes needs a value"),
            ("--episodes --quiet", "--episodes needs a value"),
            ("--quiet --quiet", "--quiet given twice"),
            ("--episodes 1 --episodes 2", "--episodes given twice"),
        ] {
            assert_eq!(parse(line).unwrap_err().0, why, "{line}");
        }
        let args = parse("--episodes ten").unwrap();
        assert_eq!(
            args.value("--episodes", 16usize).unwrap_err().0,
            "--episodes: invalid value 'ten'"
        );
    }
}
