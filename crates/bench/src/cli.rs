//! The one engine-flag parser, shared by the table binaries and the
//! `yashme` CLI.
//!
//! Engine configuration comes only from these flags; without them every
//! binary runs on [`EngineConfig::default`]. The shared flags are:
//!
//! * `--workers N|auto` (also `--workers=N`) — worker-pool size
//! * `--no-fork` / `--no-prune` / `--no-gc` — disable a physical strategy
//!
//! Each flag sets one field, so their order does not matter. Anything
//! unrecognized lands in [`CommonArgs::rest`] for the bin's own flags;
//! [`common_args`] rejects whatever the bin does not declare.

use std::fmt::Display;
use std::str::FromStr;

use jaaru::EngineConfig;

/// The shared flags, parsed once per bin.
#[derive(Debug)]
pub struct CommonArgs {
    /// Engine configuration after the engine flags.
    pub engine: EngineConfig,
    /// Everything this parser didn't consume, in order.
    pub rest: Vec<String>,
}

impl CommonArgs {
    /// True when the *unconsumed* arguments contain `flag` verbatim.
    pub fn has_flag(&self, flag: &str) -> bool {
        self.rest.iter().any(|a| a == flag)
    }

    /// The argument after the last `flag` among the unconsumed ones.
    pub fn value_of(&self, flag: &str) -> Option<&str> {
        let at = self.rest.iter().rposition(|a| a == flag)?;
        self.rest.get(at + 1).map(String::as_str)
    }

    /// Checks that the unconsumed arguments are only the bin's own
    /// `switches` and `valued` flags, each of the latter followed by its
    /// value. `Err` names the first argument that is neither.
    pub fn expect_only(&self, switches: &[&str], valued: &[&str]) -> Result<(), String> {
        let mut rest = self.rest.iter();
        while let Some(arg) = rest.next() {
            if valued.contains(&arg.as_str()) {
                rest.next().ok_or_else(|| format!("{arg} needs a value"))?;
            } else if !switches.contains(&arg.as_str()) {
                return Err(format!("unknown argument {arg:?}"));
            }
        }
        Ok(())
    }
}

/// Parses the process arguments: the shared flags plus a bin's own
/// `switches` and `valued` flags (see [`CommonArgs::expect_only`]). On a
/// malformed or unknown argument prints one line and exits with status 2,
/// before the bin does any work.
pub fn common_args(switches: &[&str], valued: &[&str]) -> CommonArgs {
    parse_args(std::env::args().skip(1))
        .and_then(|c| c.expect_only(switches, valued).map(|()| c))
        .unwrap_or_else(|msg| {
            eprintln!("{msg}");
            std::process::exit(2)
        })
}

/// Parses `flag`'s value, naming the flag in the error: `{flag} needs a
/// value` when it is missing, `bad {flag}: ...` when it does not parse.
pub fn value<T>(flag: &str, v: Option<String>) -> Result<T, String>
where
    T: FromStr,
    T::Err: Display,
{
    v.ok_or_else(|| format!("{flag} needs a value"))?
        .parse()
        .map_err(|e| format!("bad {flag}: {e}"))
}

/// [`common_args`] over an explicit argument list (testable). `Err` carries
/// the message for a missing or malformed flag value.
pub fn parse_args(args: impl IntoIterator<Item = String>) -> Result<CommonArgs, String> {
    let mut engine = EngineConfig::default();
    let mut rest = Vec::new();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--no-fork" => engine.fork = false,
            "--no-prune" => engine.prune = false,
            "--no-gc" => engine.gc = false,
            _ => {
                let workers = if arg == "--workers" {
                    args.next()
                } else if let Some(v) = arg.strip_prefix("--workers=") {
                    Some(v.to_owned())
                } else {
                    rest.push(arg);
                    continue;
                };
                engine.workers = match workers {
                    Some(v) if v.eq_ignore_ascii_case("auto") => 0,
                    v => value("--workers", v)?,
                };
            }
        }
    }
    Ok(CommonArgs { engine, rest })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<CommonArgs, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn shared_flags_are_consumed_and_rest_preserved() {
        let c = parse(&["--records", "40", "--no-fork", "--workers", "8", "--smoke"]).unwrap();
        assert_eq!(c.engine.workers, 8);
        assert!(!c.engine.fork);
        assert_eq!(c.rest, vec!["--records", "40", "--smoke"]);
        assert!(c.has_flag("--smoke"));
        assert!(!c.has_flag("--no-fork"), "consumed flags leave rest");
    }

    #[test]
    fn workers_equals_and_auto_forms() {
        assert_eq!(parse(&["--workers=4"]).unwrap().engine.workers, 4);
        assert_eq!(parse(&["--workers", "auto"]).unwrap().engine.workers, 0);
        assert_eq!(parse(&["--workers=AUTO"]).unwrap().engine.workers, 0);
    }

    #[test]
    fn no_flags_is_the_default_config() {
        let c = parse(&[]).unwrap();
        let d = EngineConfig::default();
        assert_eq!(format!("{:?}", c.engine), format!("{d:?}"));
    }

    #[test]
    fn flag_order_does_not_matter() {
        // `--workers` sets only the worker count: strategy flags before it
        // survive.
        let a = parse(&["--no-gc", "--no-prune", "--workers", "8"]).unwrap();
        let b = parse(&["--workers", "8", "--no-prune", "--no-gc"]).unwrap();
        assert_eq!(format!("{:?}", a.engine), format!("{:?}", b.engine));
        assert_eq!(a.engine.workers, 8);
        assert!(!a.engine.gc);
        assert!(!a.engine.prune);
    }

    #[test]
    fn bins_accept_only_their_own_flags() {
        let c = parse(&["--json", "--out", "t.txt", "--no-fork"]).unwrap();
        assert_eq!(c.expect_only(&["--json"], &["--out"]), Ok(()));
        assert_eq!(c.value_of("--out"), Some("t.txt"));
        assert_eq!(
            c.expect_only(&[], &["--out"]),
            Err("unknown argument \"--json\"".to_owned())
        );
        // A valued flag's value is never mistaken for a flag.
        let c = parse(&["--out", "--json"]).unwrap();
        assert_eq!(c.expect_only(&[], &["--out"]), Ok(()));
        let c = parse(&["--out"]).unwrap();
        assert_eq!(
            c.expect_only(&[], &["--out"]),
            Err("--out needs a value".to_owned())
        );
        for retired in [
            "--no-frok",
            "--prune-paranoid",
            "--gc-paranoid",
            "--gc-every",
        ] {
            let c = parse(&[retired]).unwrap();
            assert_eq!(
                c.expect_only(&["--json"], &[]),
                Err(format!("unknown argument {retired:?}"))
            );
        }
    }

    #[test]
    fn malformed_numbers_are_rejected() {
        for (args, flag) in [
            (&["--workers", "abc"][..], "--workers"),
            (&["--workers=-1"][..], "--workers"),
            (&["--workers="][..], "--workers"),
        ] {
            let err = parse(args).unwrap_err();
            assert!(err.starts_with(&format!("bad {flag}: ")), "{args:?}: {err}");
        }
    }

    #[test]
    fn missing_values_are_rejected() {
        assert_eq!(
            parse(&["--workers"]).unwrap_err(),
            "--workers needs a value"
        );
    }
}
