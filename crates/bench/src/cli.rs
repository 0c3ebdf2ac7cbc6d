//! Shared command-line parsing for the table binaries.
//!
//! Every table bin accepts the same engine flags; parsing them here (once)
//! keeps new flags from having to be replicated across `table1`..`table5`
//! and `sweep`. The shared flags are:
//!
//! * `--workers N|auto` (also `--workers=N`) — worker-pool size
//! * `--no-fork` / `--no-prune` / `--no-gc` — disable a physical strategy
//! * `--gc-every N` / `--sample-every N` — tuning knobs
//! * `--out PATH` — where the bin also writes its rendered output
//!
//! Anything unrecognized lands in [`CommonArgs::rest`] for the bin's own
//! loop.

use jaaru::EngineConfig;

/// The shared flags, parsed once per bin.
#[derive(Debug)]
pub struct CommonArgs {
    /// Engine configuration after `--workers`/`--no-*`/tuning flags.
    pub engine: EngineConfig,
    /// `--out PATH`, if given.
    pub out: Option<String>,
    /// Everything this parser didn't consume, in order.
    pub rest: Vec<String>,
}

impl CommonArgs {
    /// True when the *unconsumed* arguments contain `flag` verbatim.
    pub fn has_flag(&self, flag: &str) -> bool {
        self.rest.iter().any(|a| a == flag)
    }
}

/// Parses the shared flags from the process arguments.
pub fn common_args() -> CommonArgs {
    parse_args(std::env::args().skip(1))
}

/// [`common_args`] over an explicit argument list (testable).
pub fn parse_args(args: impl IntoIterator<Item = String>) -> CommonArgs {
    let mut engine = None;
    let mut fork = true;
    let mut prune = true;
    let mut gc = true;
    let mut gc_every = None;
    let mut sample_every = None;
    let mut out = None;
    let mut rest = Vec::new();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--no-fork" => fork = false,
            "--no-prune" => prune = false,
            "--no-gc" => gc = false,
            "--gc-every" => gc_every = args.next().and_then(|v| v.parse().ok()),
            "--sample-every" => sample_every = args.next().and_then(|v| v.parse().ok()),
            "--out" => out = args.next(),
            _ => {
                let value = if arg == "--workers" {
                    args.next()
                } else {
                    arg.strip_prefix("--workers=").map(str::to_owned)
                };
                match value {
                    Some(v) => {
                        // `--workers` replaces the whole config (matching
                        // the historical per-bin behavior); `--no-*` flags
                        // apply on top below.
                        engine = Some(if v.eq_ignore_ascii_case("auto") {
                            EngineConfig::with_workers(0)
                        } else {
                            EngineConfig::with_workers(v.parse().unwrap_or(1))
                        });
                    }
                    None => rest.push(arg),
                }
            }
        }
    }
    let mut engine = engine.unwrap_or_else(EngineConfig::from_env);
    // Only apply explicit `--no-*`; otherwise keep whatever the config
    // already says (e.g. `YASHME_FORK=0` via `from_env`).
    if !fork {
        engine = engine.with_fork(false);
    }
    if !prune {
        engine = engine.with_prune(false);
    }
    if !gc {
        engine = engine.with_gc(false);
    }
    if let Some(every) = gc_every {
        engine = engine.with_gc_every(every);
    }
    if let Some(every) = sample_every {
        engine = engine.with_sample_every(every);
    }
    CommonArgs { engine, out, rest }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> CommonArgs {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn shared_flags_are_consumed_and_rest_preserved() {
        let c = parse(&[
            "--records",
            "40",
            "--no-fork",
            "--workers",
            "8",
            "--out",
            "x.json",
            "--smoke",
        ]);
        assert_eq!(c.engine.workers, 8);
        assert!(!c.engine.fork);
        assert_eq!(c.out.as_deref(), Some("x.json"));
        assert_eq!(c.rest, vec!["--records", "40", "--smoke"]);
        assert!(c.has_flag("--smoke"));
        assert!(!c.has_flag("--no-fork"), "consumed flags leave rest");
    }

    #[test]
    fn workers_equals_and_auto_forms() {
        assert_eq!(parse(&["--workers=4"]).engine.workers, 4);
        assert_eq!(parse(&["--workers", "auto"]).engine.workers, 0);
    }
}
