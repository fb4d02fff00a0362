//! The one command-line flag reader of the workspace's binaries.
//!
//! A command declares its switches (`--progress`) and its valued flags
//! (`--rows N` or `--rows=N`) as whitespace-separated names, and
//! [`Flags::parse`] reads the argument list once against them. These are
//! errors, never a default: an unknown flag or argument (a switch given a
//! value among them), and a valued flag with no value or whose value
//! starts with `--` (that is the next flag). Reading a value that does not
//! parse, or one given twice, is an error too; a flag that may repeat
//! (`--append`) is read with [`Flags::all`].

use std::str::FromStr;

use crate::{Error, Result};

/// One command line, parsed against the flags its command declares:
/// `(flag, value)` in command-line order, a switch with no value.
#[derive(Debug)]
pub struct Flags(Vec<(String, Option<String>)>);

impl Flags {
    /// Parse `args` (the program name already dropped).
    pub fn parse(args: &[String], switches: &str, valued: &str) -> Result<Flags> {
        let declared = |names: &str, name: &str| names.split_whitespace().any(|n| n == name);
        let mut given = Vec::new();
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            let (name, inline) = match arg.split_once('=') {
                Some((name, value)) => (name, Some(value)),
                None => (arg.as_str(), None),
            };
            let value = if inline.is_none() && declared(switches, name) {
                None
            } else if declared(valued, name) {
                match inline.or_else(|| args.next().map(String::as_str)) {
                    Some(v) if !v.is_empty() && !v.starts_with("--") => Some(v.to_string()),
                    _ => return Err(Error::config(format!("{name} expects a value"))),
                }
            } else {
                return Err(Error::config(format!("unknown flag or argument '{arg}'")));
            };
            given.push((name.to_string(), value));
        }
        Ok(Flags(given))
    }

    /// Whether the switch `name` was given.
    pub fn on(&self, name: &str) -> bool {
        self.0.contains(&(name.to_string(), None))
    }

    /// Every value of `name`, in command-line order.
    pub fn all<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a str> {
        let given = self.0.iter().filter(move |(flag, _)| flag == name);
        given.filter_map(|(_, value)| value.as_deref())
    }

    /// The value of `name` parsed as `T`, if it was given.
    pub fn value<T: FromStr>(&self, name: &str) -> Result<Option<T>> {
        match self.all(name).collect::<Vec<_>>()[..] {
            [] => Ok(None),
            [value] => value
                .parse()
                .map(Some)
                .map_err(|_| Error::config(format!("bad {name} '{value}'"))),
            _ => Err(Error::config(format!("{name} given more than once"))),
        }
    }

    /// The value of `name` parsed as `T`, or `default` if it was not given.
    pub fn value_or<T: FromStr>(&self, name: &str, default: T) -> Result<T> {
        Ok(self.value(name)?.unwrap_or(default))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Flags> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        Flags::parse(&args, "--progress", "--rows --append")
    }

    fn message(args: &[&str]) -> String {
        parse(args).unwrap_err().to_string()
    }

    #[test]
    fn equals_and_space_forms_read_the_same() {
        for args in [&["--rows=5"][..], &["--rows", "5"]] {
            let flags = parse(args).unwrap();
            assert_eq!(flags.value::<usize>("--rows").unwrap(), Some(5));
            assert!(!flags.on("--progress"));
        }
        let flags = parse(&["--progress"]).unwrap();
        assert!(flags.on("--progress"));
        assert_eq!(flags.value::<usize>("--rows").unwrap(), None);
        assert_eq!(flags.value_or("--rows", 7usize).unwrap(), 7);
    }

    #[test]
    fn a_repeated_flag_reads_in_order_but_not_as_one_value() {
        let flags = parse(&["--append", "a=x", "--append=b=y", "--rows", "1"]).unwrap();
        assert_eq!(flags.all("--append").collect::<Vec<_>>(), ["a=x", "b=y"]);
        let once = flags.value::<String>("--append").unwrap_err().to_string();
        assert!(once.contains("--append given more than once"), "{once}");
    }

    #[test]
    fn a_trailing_flag_has_no_value() {
        assert!(message(&["--progress", "--rows"]).contains("--rows expects a value"));
        assert!(message(&["--rows="]).contains("--rows expects a value"));
    }

    #[test]
    fn a_value_that_starts_with_two_dashes_is_the_next_flag() {
        assert!(message(&["--append", "--rows", "2"]).contains("--append expects a value"));
        assert!(message(&["--rows=--progress"]).contains("--rows expects a value"));
        // A single dash is a value (a negative number, say), parsed on read.
        let flags = parse(&["--rows", "-1"]).unwrap();
        let bad = flags.value::<usize>("--rows").unwrap_err().to_string();
        assert!(bad.contains("bad --rows '-1'"), "{bad}");
    }

    #[test]
    fn unknown_flags_and_stray_arguments_are_refused() {
        for (args, arg) in [
            (&["--row", "2"][..], "--row"),
            (&["--help"], "--help"),
            (&["--rows", "2", "3"], "3"),
            (&["--progress=yes"], "--progress=yes"),
        ] {
            let e = message(args);
            assert!(
                e.contains(&format!("unknown flag or argument '{arg}'")),
                "{e}"
            );
        }
    }
}
