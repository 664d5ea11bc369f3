//! Minimal `--flag value` argument parsing (no external dependencies).

use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap};

/// Parsed command line: a subcommand plus `--key value` options and
/// boolean `--flag`s. Every lookup records the name it asked for, so
/// [`Args::reject_unread`] can refuse whatever the command never read.
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// The subcommand (first positional token).
    pub command: String,
    options: HashMap<String, String>,
    flags: Vec<String>,
    read: RefCell<BTreeSet<String>>,
}

impl Args {
    /// Parse `argv` (without the program name).
    pub fn parse(argv: &[String]) -> Result<Self, String> {
        let mut args = Args::default();
        let mut it = argv.iter().peekable();
        args.command = it
            .next()
            .cloned()
            .ok_or_else(|| "missing subcommand".to_string())?;
        while let Some(tok) = it.next() {
            let Some(name) = tok.strip_prefix("--") else {
                return Err(format!("unexpected positional argument {tok:?}"));
            };
            if name.is_empty() {
                return Err("empty flag name".into());
            }
            // A flag followed by another --flag (or nothing) is boolean.
            match it.peek() {
                Some(next) if !next.starts_with("--") => {
                    let value = it.next().expect("peeked").clone();
                    if args.options.insert(name.to_string(), value).is_some() {
                        return Err(format!("duplicate option --{name}"));
                    }
                }
                _ => args.flags.push(name.to_string()),
            }
        }
        Ok(args)
    }

    /// Look up an option's raw value, recording that it was read.
    fn value(&self, name: &str) -> Option<&String> {
        self.read.borrow_mut().insert(name.to_string());
        self.options.get(name)
    }

    /// Fail on the first option or flag (in name order) that the
    /// command never read, naming it: a typo or a flag the command does
    /// not take must not pass silently. Call after the command ran.
    pub fn reject_unread(&self) -> Result<(), String> {
        let read = self.read.borrow();
        let unread = self
            .options
            .keys()
            .chain(&self.flags)
            .filter(|name| !read.contains(*name))
            .min();
        match unread {
            Some(name) => Err(format!("`{}` does not take --{name}", self.command)),
            None => Ok(()),
        }
    }

    /// A required string option.
    pub fn required(&self, name: &str) -> Result<&str, String> {
        self.value(name)
            .map(String::as_str)
            .ok_or_else(|| format!("missing required option --{name}"))
    }

    /// An optional option interpreted as a filesystem path.
    pub fn optional_path(&self, name: &str) -> Option<std::path::PathBuf> {
        self.value(name).map(std::path::PathBuf::from)
    }

    /// An optional parsed option with a default.
    pub fn get_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value for --{name}: {v:?}")),
        }
    }

    /// An optional parsed option: `Ok(None)` when absent, an error only
    /// when present but unparseable.
    pub fn get_optional<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.value(name) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("invalid value for --{name}: {v:?}")),
        }
    }

    /// A required parsed option.
    pub fn get_required<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        let v = self.required(name)?;
        v.parse()
            .map_err(|_| format!("invalid value for --{name}: {v:?}"))
    }

    /// Whether a boolean `--flag` was given.
    pub fn flag(&self, name: &str) -> bool {
        self.read.borrow_mut().insert(name.to_string());
        self.flags.iter().any(|f| f == name)
    }

    /// An optional probability/rate option that must lie in `[0, 1]`.
    /// Rejects NaN and out-of-range values with an error naming the
    /// flag, so a typo like `--fault-rate 10` fails loudly instead of
    /// arming a nonsensical fault plan.
    pub fn fraction_or(&self, name: &str, default: f64) -> Result<f64, String> {
        let v: f64 = self.get_or(name, default)?;
        if !(0.0..=1.0).contains(&v) {
            return Err(format!("--{name} must be within [0, 1], got {v}",));
        }
        Ok(v)
    }

    /// An optional count option that must be nonzero: "after 0 events"
    /// is never what anyone means, and silently treating it as "never"
    /// or "immediately" hides the mistake.
    pub fn nonzero_or(&self, name: &str, default: u64) -> Result<u64, String> {
        let v: u64 = self.get_or(name, default)?;
        if v == 0 {
            return Err(format!("--{name} must be nonzero"));
        }
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Result<Args, String> {
        let v: Vec<String> = tokens.iter().map(|s| s.to_string()).collect();
        Args::parse(&v)
    }

    #[test]
    fn parses_command_options_and_flags() {
        let a = parse(&["simulate", "--servers", "70", "--burst", "--qos", "3.0"]).unwrap();
        assert_eq!(a.command, "simulate");
        assert_eq!(a.get_required::<usize>("servers").unwrap(), 70);
        assert!(a.flag("burst"));
        assert!(!a.flag("exact"));
        assert_eq!(a.get_or::<f64>("qos", 1.0).unwrap(), 3.0);
        assert_eq!(a.get_or::<f64>("margin", 0.65).unwrap(), 0.65);
    }

    #[test]
    fn missing_subcommand_is_an_error() {
        assert!(parse(&[]).is_err());
    }

    #[test]
    fn rejects_positionals_and_duplicates() {
        assert!(parse(&["x", "stray"]).is_err());
        assert!(parse(&["x", "--a", "1", "--a", "2"]).is_err());
        assert!(parse(&["x", "--"]).is_err());
    }

    #[test]
    fn required_option_errors_when_absent() {
        let a = parse(&["info"]).unwrap();
        assert!(a.required("db-dir").is_err());
        assert!(a.get_required::<u64>("seed").is_err());
    }

    #[test]
    fn invalid_numeric_value_is_reported() {
        let a = parse(&["x", "--n", "abc"]).unwrap();
        assert!(a.get_or::<u32>("n", 1).is_err());
        assert!(a.get_optional::<u32>("n").is_err());
    }

    #[test]
    fn optional_option_distinguishes_absent_from_present() {
        let a = parse(&["x", "--queue", "2"]).unwrap();
        assert_eq!(a.get_optional::<usize>("queue").unwrap(), Some(2));
        assert_eq!(a.get_optional::<usize>("cache").unwrap(), None);
    }

    #[test]
    fn unread_options_and_flags_are_rejected_by_name() {
        let a = parse(&[
            "gen-trace",
            "--out",
            "t.swf",
            "--bogus-flag",
            "3",
            "--paced",
        ])
        .unwrap();
        assert_eq!(a.required("out").unwrap(), "t.swf");
        // Asking about an absent name counts as reading it.
        assert_eq!(a.get_or::<u64>("seed", 7).unwrap(), 7);
        let err = a.reject_unread().unwrap_err();
        assert_eq!(err, "`gen-trace` does not take --bogus-flag");
        assert!(!a.flag("bogus-flag"));
        let err = a.reject_unread().unwrap_err();
        assert_eq!(err, "`gen-trace` does not take --paced");
        assert!(a.flag("paced"));
        assert!(a.reject_unread().is_ok());
    }

    #[test]
    fn trailing_flag_is_boolean() {
        let a = parse(&["x", "--exact"]).unwrap();
        assert!(a.flag("exact"));
    }

    #[test]
    fn fraction_enforces_the_unit_interval() {
        let a = parse(&["x", "--fault-rate", "0.25"]).unwrap();
        assert_eq!(a.fraction_or("fault-rate", 0.0).unwrap(), 0.25);
        assert_eq!(a.fraction_or("other-rate", 0.5).unwrap(), 0.5);
        for bad in ["1.5", "-0.1", "10", "NaN"] {
            let a = parse(&["x", "--fault-rate", bad]).unwrap();
            let err = a.fraction_or("fault-rate", 0.0).unwrap_err();
            assert!(
                err.contains("fault-rate") && (err.contains("[0, 1]") || err.contains("invalid")),
                "unhelpful error for {bad:?}: {err}"
            );
        }
        // Boundary values are legal.
        for ok in ["0", "1", "0.0", "1.0"] {
            let a = parse(&["x", "--fault-rate", ok]).unwrap();
            assert!(a.fraction_or("fault-rate", 0.0).is_ok(), "{ok} rejected");
        }
    }

    #[test]
    fn nonzero_rejects_zero_counts() {
        let a = parse(&["x", "--checkpoint-every", "0"]).unwrap();
        let err = a.nonzero_or("checkpoint-every", 16).unwrap_err();
        assert!(
            err.contains("checkpoint-every") && err.contains("nonzero"),
            "{err}"
        );
        let a = parse(&["x", "--checkpoint-every", "3"]).unwrap();
        assert_eq!(a.nonzero_or("checkpoint-every", 16).unwrap(), 3);
        let a = parse(&["x"]).unwrap();
        assert_eq!(a.nonzero_or("checkpoint-every", 16).unwrap(), 16);
    }
}
