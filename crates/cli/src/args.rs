//! Minimal `--flag value` argument parsing (no external dependencies).

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};

/// Parsed command-line options: a map from flag name (without the leading
/// dashes) to value.
#[derive(Debug, Default, Clone)]
pub struct Options {
    values: BTreeMap<String, String>,
    /// Every flag name looked up so far, for [`Options::reject_unread`].
    read: RefCell<BTreeSet<String>>,
}

impl Options {
    /// Parse `--name value` pairs. A flag without a value is an error, as is
    /// a bare value without a flag.
    pub fn parse(args: &[String]) -> Result<Options, String> {
        let mut values = BTreeMap::new();
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            let Some(name) = arg.strip_prefix("--") else {
                return Err(format!("expected a --flag, found {arg}"));
            };
            let Some(value) = iter.next() else {
                return Err(format!("flag --{name} needs a value"));
            };
            values.insert(name.to_string(), value.clone());
        }
        Ok(Options { values, read: RefCell::default() })
    }

    /// Look a flag up, recording that the command reads it.
    fn lookup(&self, name: &str) -> Option<&String> {
        self.read.borrow_mut().insert(name.to_string());
        self.values.get(name)
    }

    /// Fail on the first given flag that no lookup has asked for, naming
    /// it: called once a command has read all its flags, it turns a
    /// misspelt or retired flag into an error instead of a silent default.
    pub fn reject_unread(&self, command: &str) -> Result<(), String> {
        let read = self.read.borrow();
        match self.values.keys().find(|name| !read.contains(*name)) {
            Some(name) => Err(format!("{command} does not take the flag --{name}")),
            None => Ok(()),
        }
    }

    /// A required string option.
    pub fn required(&self, name: &str) -> Result<&str, String> {
        self.lookup(name)
            .map(String::as_str)
            .ok_or_else(|| format!("missing required flag --{name}"))
    }

    /// An optional string option with a default.
    pub fn string_or(&self, name: &str, default: &str) -> String {
        self.lookup(name).cloned().unwrap_or_else(|| default.to_string())
    }

    /// An optional string option with no default (`None` when the flag was
    /// not given).
    pub fn get(&self, name: &str) -> Option<&str> {
        self.lookup(name).map(String::as_str)
    }

    /// An optional parsed option with a default.
    pub fn parse_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.lookup(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("flag --{name} has an invalid value: {v}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(std::string::ToString::to_string).collect()
    }

    #[test]
    fn parses_flag_value_pairs() {
        let o = Options::parse(&argv(&["--k", "10", "--out", "a.csv"])).unwrap();
        assert_eq!(o.required("k").unwrap(), "10");
        assert_eq!(o.string_or("out", "x"), "a.csv");
        assert_eq!(o.parse_or("k", 0usize).unwrap(), 10);
        assert_eq!(o.parse_or("eta", 77u64).unwrap(), 77);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(Options::parse(&argv(&["k", "10"])).is_err());
        assert!(Options::parse(&argv(&["--k"])).is_err());
        let o = Options::parse(&argv(&["--k", "ten"])).unwrap();
        assert!(o.parse_or("k", 0usize).is_err());
        assert!(o.required("missing").is_err());
    }
}
