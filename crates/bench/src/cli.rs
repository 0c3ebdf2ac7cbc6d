//! The one engine-flag parser, shared by the table binaries and the
//! `yashme` CLI.
//!
//! Engine configuration comes only from these flags; without them every
//! binary runs on [`EngineConfig::default`]. The shared flags are:
//!
//! * `--workers N|auto` (also `--workers=N`) — worker-pool size
//! * `--no-fork` / `--no-prune` / `--no-gc` — disable a physical strategy
//! * `--prune-paranoid` / `--gc-paranoid` — lockstep verification modes
//! * `--gc-every N` — the GC tuning knob
//!
//! Each flag sets one field, so their order does not matter. Anything
//! unrecognized lands in [`CommonArgs::rest`] for the bin's own loop.

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
}

/// Parses the shared flags from the process arguments; on a malformed flag
/// prints the message and exits with status 2.
pub fn common_args() -> CommonArgs {
    parse_args(std::env::args().skip(1)).unwrap_or_else(|msg| {
        eprintln!("{msg}");
        std::process::exit(2)
    })
}

/// Parses `flag`'s value, naming the flag in the error.
fn value<T>(flag: &str, v: Option<String>) -> Result<T, String>
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
            "--prune-paranoid" => engine.prune_paranoid = true,
            "--gc-paranoid" => engine.gc_paranoid = true,
            "--gc-every" => engine = engine.with_gc_every(value("--gc-every", args.next())?),
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
        let a = parse(&["--no-gc", "--gc-paranoid", "--workers", "8"]).unwrap();
        let b = parse(&["--workers", "8", "--gc-paranoid", "--no-gc"]).unwrap();
        assert_eq!(format!("{:?}", a.engine), format!("{:?}", b.engine));
        assert_eq!(a.engine.workers, 8);
        assert!(!a.engine.gc);
        assert!(a.engine.gc_paranoid);
    }

    #[test]
    fn paranoid_flags_switch_on_their_modes() {
        let c = parse(&["--prune-paranoid"]).unwrap();
        assert!(c.engine.prune_paranoid);
        assert!(!c.engine.gc_paranoid);
        let c = parse(&["--gc-paranoid"]).unwrap();
        assert!(c.engine.gc_paranoid);
        assert!(!c.engine.prune_paranoid);
    }

    #[test]
    fn tuning_knobs_are_parsed() {
        let c = parse(&["--gc-every", "16"]).unwrap();
        assert_eq!(c.engine.gc_every, 16);
        // The GC period is clamped to at least one commit.
        assert_eq!(parse(&["--gc-every", "0"]).unwrap().engine.gc_every, 1);
    }

    #[test]
    fn malformed_numbers_are_rejected() {
        for (args, flag) in [
            (&["--workers", "abc"][..], "--workers"),
            (&["--workers=-1"][..], "--workers"),
            (&["--workers="][..], "--workers"),
            (&["--gc-every", "often"][..], "--gc-every"),
            (&["--gc-every", "-4"][..], "--gc-every"),
        ] {
            let err = parse(args).unwrap_err();
            assert!(err.starts_with(&format!("bad {flag}: ")), "{args:?}: {err}");
        }
    }

    #[test]
    fn missing_values_are_rejected() {
        for flag in ["--workers", "--gc-every"] {
            let err = parse(&[flag]).unwrap_err();
            assert_eq!(err, format!("{flag} needs a value"));
        }
    }
}
