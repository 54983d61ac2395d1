//! Minimal `--key value` / `--key=value` / `--flag` argument parsing (the
//! workspace's dependency policy excludes argument-parsing crates).

use std::collections::HashMap;

/// Parsed command-line arguments: `--key value` options and bare `--flag`s.
#[derive(Debug, Default)]
pub struct Args {
    opts: HashMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    /// Parses the raw argument list. Accepted token shapes:
    ///
    /// * `--key=value` — one token, split at the first `=`;
    /// * `--key value` — `--key` consumes the next token as its value
    ///   unless that token also starts with `--`;
    /// * `--flag` — a `--` token not followed by a value.
    ///
    /// Any other token is a hard error (a stray positional is almost
    /// always a typo — e.g. `--scale0.5` or a forgotten `--`).
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut args = Args::default();
        let mut i = 0;
        while i < argv.len() {
            let token = &argv[i];
            let Some(key) = token.strip_prefix("--") else {
                return Err(format!(
                    "unexpected positional argument: {token} (options are --key value or --key=value)"
                ));
            };
            if key.is_empty() {
                return Err("bare -- is not a valid option".into());
            }
            if let Some((k, v)) = key.split_once('=') {
                if k.is_empty() {
                    return Err(format!("malformed option: {token}"));
                }
                args.opts.insert(k.to_string(), v.to_string());
                i += 1;
            } else if i + 1 < argv.len() && !argv[i + 1].starts_with("--") {
                args.opts.insert(key.to_string(), argv[i + 1].clone());
                i += 2;
            } else {
                args.flags.push(key.to_string());
                i += 1;
            }
        }
        Ok(args)
    }

    /// String option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.opts.get(key).map(String::as_str)
    }

    /// Required string option.
    pub fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key)
            .ok_or_else(|| format!("missing required option --{key}"))
    }

    /// Parsed option with a default.
    pub fn parse_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value for --{key}: {v}")),
        }
    }

    /// Whether a bare flag was given.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// Fails on the first option or flag (in name order) that is not in
    /// `accepted`, so a mistyped or retired flag is an error rather than
    /// silently ignored.
    pub fn reject_unknown(&self, accepted: &[&str]) -> Result<(), String> {
        let mut given: Vec<&str> = self
            .opts
            .keys()
            .chain(&self.flags)
            .map(String::as_str)
            .collect();
        given.sort_unstable();
        match given.into_iter().find(|k| !accepted.contains(k)) {
            Some(k) => Err(format!("unknown option --{k}")),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &[&str]) -> Args {
        Args::parse(&s.iter().map(|x| x.to_string()).collect::<Vec<_>>()).unwrap()
    }

    fn parse_err(s: &[&str]) -> String {
        Args::parse(&s.iter().map(|x| x.to_string()).collect::<Vec<_>>()).unwrap_err()
    }

    #[test]
    fn options_and_flags() {
        let a = parse(&["--scale", "0.5", "--str", "--seed", "7"]);
        assert_eq!(a.get("scale"), Some("0.5"));
        assert_eq!(a.get("seed"), Some("7"));
        assert!(a.flag("str"));
        assert!(!a.flag("missing"));
    }

    #[test]
    fn equals_syntax() {
        let a = parse(&["--scale=0.5", "--out=a=b.bin", "--str"]);
        assert_eq!(a.get("scale"), Some("0.5"));
        // Only the first = splits; values may contain =.
        assert_eq!(a.get("out"), Some("a=b.bin"));
        assert!(a.flag("str"));
    }

    #[test]
    fn equals_with_empty_value() {
        let a = parse(&["--tag="]);
        assert_eq!(a.get("tag"), Some(""));
    }

    #[test]
    fn stray_positional_is_a_hard_error() {
        let e = parse_err(&["--scale", "0.5", "oops"]);
        assert!(e.contains("oops"), "{e}");
        assert!(parse_err(&["build", "--map", "x"]).contains("build"));
    }

    #[test]
    fn malformed_dashes_are_errors() {
        assert!(Args::parse(&["--".to_string()]).is_err());
        assert!(Args::parse(&["--=v".to_string()]).is_err());
    }

    #[test]
    fn parse_or_defaults() {
        let a = parse(&["--procs", "12"]);
        assert_eq!(a.parse_or("procs", 1usize).unwrap(), 12);
        assert_eq!(a.parse_or("disks", 4usize).unwrap(), 4);
        assert!(a.parse_or::<usize>("procs", 0).is_ok());
    }

    #[test]
    fn invalid_value_is_an_error() {
        let a = parse(&["--procs", "twelve"]);
        assert!(a.parse_or::<usize>("procs", 1).is_err());
    }

    #[test]
    fn require_reports_missing() {
        let a = parse(&[]);
        assert!(a.require("tree").is_err());
    }

    #[test]
    fn reject_unknown_names_the_first_stray_key() {
        let a = parse(&["--trees", "t.psjt", "--lenient", "--workers=2"]);
        assert!(a.reject_unknown(&["trees", "lenient", "workers"]).is_ok());
        let e = parse(&["--trees", "t.psjt", "--zeta", "1", "--beta"])
            .reject_unknown(&["trees"])
            .unwrap_err();
        assert_eq!(e, "unknown option --beta");
    }

    #[test]
    fn flag_followed_by_option() {
        let a = parse(&["--str", "--out", "x.bin"]);
        assert!(a.flag("str"));
        assert_eq!(a.get("out"), Some("x.bin"));
    }
}
