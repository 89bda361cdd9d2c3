//! A tiny strict `--key value` / `--flag` argument parser for the
//! binaries (the workspace is hermetic — no clap).
//!
//! Each binary declares its [`Syntax`]: the switches it takes, the keys
//! that take a value, and how many bare arguments it accepts. Anything
//! else — an unknown `--name`, a key without its value, a stray bare
//! argument, a value that does not parse — is an [`OptsError`], which
//! [`Syntax::fail`] turns into the usage text and exit code 2. A
//! misspelt option can therefore never run as if it were absent.

use std::collections::BTreeSet;
use std::fmt;
use std::str::FromStr;

/// What a binary accepts on its command line.
#[derive(Debug, Clone, Copy)]
pub struct Syntax<'a> {
    /// Switches that take no value (`--name`), space-separated.
    pub flags: &'a str,
    /// Options that take exactly one value (`--name value`),
    /// space-separated.
    pub keys: &'a str,
    /// The most bare (non-`--`) arguments the binary accepts.
    pub positional: usize,
    /// The usage text: printed to stdout on `--help`, to stderr on an
    /// error.
    pub usage: &'a str,
}

/// Why a command line was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OptsError {
    /// `--help` / `-h`: not a failure — print usage, exit 0.
    Help,
    /// An option name the binary does not know.
    Unknown(String),
    /// A valued option at the end of the line, or followed by another
    /// option instead of its value.
    MissingValue(String),
    /// A bare argument beyond the binary's positional slots.
    Positional(String),
    /// A value that does not parse as the option's type.
    BadValue {
        /// The option name (without `--`).
        key: String,
        /// The raw value given.
        raw: String,
    },
    /// A value that parses but lies outside the option's domain.
    OutOfRange {
        /// The option name (without `--`).
        key: String,
        /// The raw value given.
        raw: String,
        /// The domain, for the message.
        domain: &'static str,
    },
    /// A required option or mode that was not given.
    Required(&'static str),
}

impl fmt::Display for OptsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Help => f.write_str("help requested"),
            Self::Unknown(name) => write!(f, "unknown option --{name}"),
            Self::MissingValue(name) => write!(f, "option --{name} needs a value"),
            Self::Positional(arg) => write!(f, "unexpected argument {arg:?}"),
            Self::BadValue { key, raw } => write!(f, "--{key} got unparsable value {raw:?}"),
            Self::OutOfRange { key, raw, domain } => {
                write!(f, "--{key} {raw} is outside {domain}")
            }
            Self::Required(what) => write!(f, "need {what}"),
        }
    }
}

impl std::error::Error for OptsError {}

impl Syntax<'_> {
    /// Parses an explicit argument list (without the program name).
    ///
    /// # Errors
    ///
    /// [`OptsError::Help`] when `--help` or `-h` appears anywhere;
    /// otherwise the first unknown option, dangling value or surplus
    /// bare argument.
    pub fn parse<I: IntoIterator<Item = String>>(&self, args: I) -> Result<Opts, OptsError> {
        let args: Vec<String> = args.into_iter().collect();
        if args.iter().any(|arg| arg == "--help" || arg == "-h") {
            return Err(OptsError::Help);
        }
        let mut opts = Opts::default();
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            let Some(name) = arg.strip_prefix("--") else {
                if opts.positional.len() == self.positional {
                    return Err(OptsError::Positional(arg));
                }
                opts.positional.push(arg);
                continue;
            };
            if self.flags.split_whitespace().any(|f| f == name) {
                opts.flags.push(name.to_string());
            } else if self.keys.split_whitespace().any(|k| k == name) {
                match iter.next() {
                    Some(value) if !value.starts_with("--") => {
                        opts.pairs.push((name.to_string(), value));
                    }
                    _ => return Err(OptsError::MissingValue(name.to_string())),
                }
            } else {
                return Err(OptsError::Unknown(name.to_string()));
            }
        }
        Ok(opts)
    }

    /// Parses the process arguments, or [`Syntax::fail`]s.
    #[must_use]
    pub fn parse_env(&self) -> Opts {
        self.parse(std::env::args().skip(1))
            .unwrap_or_else(|err| self.fail(&err))
    }

    /// Ends the process for a refused command line: usage on stdout and
    /// exit 0 for [`OptsError::Help`], else the error and usage on
    /// stderr and exit 2.
    pub fn fail(&self, err: &OptsError) -> ! {
        if *err == OptsError::Help {
            println!("{}", self.usage);
            std::process::exit(0);
        }
        eprintln!("error: {err}\n{}", self.usage);
        std::process::exit(2);
    }
}

/// A parsed command line.
#[derive(Debug, Default)]
pub struct Opts {
    pairs: Vec<(String, String)>,
    flags: Vec<String>,
    positional: Vec<String>,
}

impl Opts {
    /// The value of `--key`, if given (last occurrence wins).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// The value of `--key`, or [`OptsError::Required`] naming `what`.
    ///
    /// # Errors
    ///
    /// When `--key` was not given.
    pub fn require(&self, key: &str, what: &'static str) -> Result<&str, OptsError> {
        self.get(key).ok_or(OptsError::Required(what))
    }

    /// The value of `--key` parsed as `T`, if given.
    ///
    /// # Errors
    ///
    /// [`OptsError::BadValue`] when the value does not parse.
    pub fn parsed<T: FromStr>(&self, key: &str) -> Result<Option<T>, OptsError> {
        self.get(key)
            .map(|raw| {
                raw.parse().map_err(|_| OptsError::BadValue {
                    key: key.to_string(),
                    raw: raw.to_string(),
                })
            })
            .transpose()
    }

    /// The value of `--key` parsed as `T`, or `default` when absent.
    ///
    /// # Errors
    ///
    /// [`OptsError::BadValue`] when the value does not parse.
    pub fn get_or<T: FromStr>(&self, key: &str, default: T) -> Result<T, OptsError> {
        Ok(self.parsed(key)?.unwrap_or(default))
    }

    /// `--key` as a share in `[0, 1)` — a bandwidth fraction the
    /// flooder can actually leave to genuine traffic.
    ///
    /// # Errors
    ///
    /// [`OptsError::BadValue`] when the value does not parse,
    /// [`OptsError::OutOfRange`] for `1`, negatives and NaN.
    pub fn share(&self, key: &str) -> Result<Option<f64>, OptsError> {
        match self.parsed::<f64>(key)? {
            Some(p) if !(0.0..1.0).contains(&p) => Err(self.out_of_range(key, "[0, 1)")),
            share => Ok(share),
        }
    }

    /// `--key` as a probability in `[0, 1]`, or `0` when absent.
    ///
    /// # Errors
    ///
    /// [`OptsError::BadValue`] when the value does not parse,
    /// [`OptsError::OutOfRange`] above `1`, for negatives and NaN.
    pub fn probability(&self, key: &str) -> Result<f64, OptsError> {
        match self.parsed::<f64>(key)? {
            Some(p) if !(0.0..=1.0).contains(&p) => Err(self.out_of_range(key, "[0, 1]")),
            p => Ok(p.unwrap_or(0.0)),
        }
    }

    /// `--key` as a count of at least one (buffers, shards, a queue
    /// depth), or `default` when absent.
    ///
    /// # Errors
    ///
    /// [`OptsError::BadValue`] when the value does not parse,
    /// [`OptsError::OutOfRange`] for `0`.
    pub fn count<T: FromStr + PartialOrd + From<u8>>(
        &self,
        key: &str,
        default: T,
    ) -> Result<T, OptsError> {
        match self.parsed::<T>(key)? {
            Some(n) if n < T::from(1) => Err(self.out_of_range(key, "1 or more")),
            n => Ok(n.unwrap_or(default)),
        }
    }

    fn out_of_range(&self, key: &str, domain: &'static str) -> OptsError {
        OptsError::OutOfRange {
            key: key.to_string(),
            raw: self.get(key).unwrap_or_default().to_string(),
            domain,
        }
    }

    /// The operator pin roster: `--pin 1,2,7` (explicit ids) merged with
    /// `--pin-first N` (ids `1..=N`), deduplicated and sorted.
    ///
    /// # Errors
    ///
    /// [`OptsError::BadValue`] for an id or count that does not parse.
    pub fn pin_roster(&self) -> Result<BTreeSet<u64>, OptsError> {
        let mut pins: BTreeSet<u64> = (1..=self.get_or("pin-first", 0u64)?).collect();
        for id in self.get("pin").unwrap_or_default().split(',') {
            if !id.is_empty() {
                pins.insert(id.trim().parse().map_err(|_| OptsError::BadValue {
                    key: "pin".into(),
                    raw: id.into(),
                })?);
            }
        }
        Ok(pins)
    }

    /// Whether `--name` (a declared flag) was given.
    #[must_use]
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// The bare arguments, in order.
    #[must_use]
    pub fn positional(&self) -> &[String] {
        &self.positional
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SYNTAX: Syntax<'static> = Syntax {
        flags: "loopback assert-soak",
        keys: "seed flood m",
        positional: 0,
        usage: "usage: test",
    };

    fn parse(list: &[&str]) -> Result<Opts, OptsError> {
        SYNTAX.parse(list.iter().map(ToString::to_string))
    }

    #[test]
    fn pairs_flags_and_defaults() {
        let opts = parse(&["--seed", "7", "--loopback", "--flood", "0.9"]).unwrap();
        assert_eq!(opts.get_or("seed", 0u64), Ok(7));
        assert_eq!(opts.get_or("m", 42u64), Ok(42));
        assert!((opts.get_or("flood", 0.0f64).unwrap() - 0.9).abs() < 1e-12);
        assert!(opts.flag("loopback"));
        assert!(!opts.flag("assert-soak"));
        assert_eq!(opts.get("m"), None);
    }

    #[test]
    fn last_occurrence_wins() {
        let opts = parse(&["--m", "1", "--m", "2"]).unwrap();
        assert_eq!(opts.get_or("m", 0u32), Ok(2));
    }

    #[test]
    fn dangling_option_is_an_error() {
        assert_eq!(
            parse(&["--seed"]).unwrap_err(),
            OptsError::MissingValue("seed".into())
        );
        // An option where the value should be is not a value.
        assert_eq!(
            parse(&["--flood", "--assert-soak"]).unwrap_err(),
            OptsError::MissingValue("flood".into())
        );
    }

    #[test]
    fn positional_arguments_rejected() {
        assert_eq!(
            parse(&["whoops"]).unwrap_err(),
            OptsError::Positional("whoops".into())
        );
    }

    #[test]
    fn positional_slots_are_bounded() {
        let two = Syntax {
            positional: 2,
            ..SYNTAX
        };
        let args = |list: &[&str]| list.iter().map(ToString::to_string).collect::<Vec<_>>();
        let opts = two
            .parse(args(&["audit", "--seed", "1", "t.jsonl"]))
            .unwrap();
        assert_eq!(opts.positional(), ["audit", "t.jsonl"]);
        assert_eq!(
            two.parse(args(&["a", "b", "c"])).unwrap_err(),
            OptsError::Positional("c".into())
        );
    }

    #[test]
    fn misspelt_option_is_an_error() {
        assert_eq!(
            parse(&["--flod", "0.9", "--assert-soak"]).unwrap_err(),
            OptsError::Unknown("flod".into())
        );
    }

    #[test]
    fn help_wins_over_everything() {
        for line in [&["--help"][..], &["--bogus", "-h"], &["--seed", "1", "-h"]] {
            assert_eq!(parse(line).unwrap_err(), OptsError::Help, "{line:?}");
        }
    }

    #[test]
    fn bad_value_is_an_error() {
        let opts = parse(&["--seed", "pony"]).unwrap();
        assert_eq!(
            opts.get_or("seed", 0u64),
            Err(OptsError::BadValue {
                key: "seed".into(),
                raw: "pony".into()
            })
        );
    }

    #[test]
    fn pin_roster_merges_both_forms() {
        let syntax = Syntax {
            keys: "pin pin-first",
            ..SYNTAX
        };
        let parse = |list: &[&str]| syntax.parse(list.iter().map(ToString::to_string)).unwrap();
        let roster = parse(&["--pin", "7, 2,,9", "--pin-first", "3"]).pin_roster();
        assert_eq!(
            roster.unwrap().into_iter().collect::<Vec<_>>(),
            [1, 2, 3, 7, 9]
        );
        assert!(matches!(
            parse(&["--pin", "1,x"]).pin_roster(),
            Err(OptsError::BadValue { .. })
        ));
    }

    #[test]
    fn shares_must_lie_in_the_unit_interval() {
        for ok in ["0", "0.5", "0.999"] {
            let opts = parse(&["--flood", ok]).unwrap();
            assert!(opts.share("flood").unwrap().is_some(), "{ok}");
        }
        for bad in ["1", "1.0", "-0.1", "NaN", "inf"] {
            let opts = parse(&["--flood", bad]).unwrap();
            assert!(
                matches!(opts.share("flood"), Err(OptsError::OutOfRange { .. })),
                "{bad}"
            );
        }
        assert_eq!(parse(&[]).unwrap().share("flood"), Ok(None));
    }

    #[test]
    fn probabilities_lie_in_the_closed_unit_interval() {
        for (raw, p) in [("0", 0.0), ("0.25", 0.25), ("1", 1.0)] {
            assert_eq!(
                parse(&["--flood", raw]).unwrap().probability("flood"),
                Ok(p)
            );
        }
        for bad in ["1.01", "2", "-0.1", "NaN", "inf"] {
            let opts = parse(&["--flood", bad]).unwrap();
            assert!(
                matches!(opts.probability("flood"), Err(OptsError::OutOfRange { .. })),
                "{bad}"
            );
        }
        assert_eq!(parse(&[]).unwrap().probability("flood"), Ok(0.0));
    }

    #[test]
    fn counts_must_be_positive() {
        assert_eq!(parse(&["--m", "3"]).unwrap().count("m", 4usize), Ok(3));
        assert_eq!(parse(&[]).unwrap().count("m", 4usize), Ok(4));
        assert_eq!(
            parse(&["--m", "0"]).unwrap().count("m", 4u64),
            Err(OptsError::OutOfRange {
                key: "m".into(),
                raw: "0".into(),
                domain: "1 or more"
            })
        );
        assert!(matches!(
            parse(&["--m", "-1"]).unwrap().count("m", 4usize),
            Err(OptsError::BadValue { .. })
        ));
    }
}
