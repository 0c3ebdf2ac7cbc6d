//! The `yashme` command-line tool: run the persistency-race detector over
//! any registered benchmark.
//!
//! ```text
//! yashme --list
//! yashme --benchmark CCEH
//! yashme --benchmark Memcached --mode random --executions 50 --seed 7
//! yashme --all --baseline
//! yashme --benchmark Fast_Fair --eadr --details
//! yashme --benchmark CCEH --explain
//! yashme --benchmark CCEH --trace-out trace.json --json
//! yashme --all --json
//! ```

use std::io::Write as _;
use std::process::ExitCode;
use std::sync::Arc;

use bench::cli::value;
use bench::{evaluation_suite, SuiteEntry};
use jaaru::obs::telemetry::{start_reporter, ReporterConfig, Telemetry};
use jaaru::obs::Json;
use jaaru::{Engine, EngineConfig, ExecMode};
use yashme::{json, render, YashmeConfig, YashmeDetector};

#[derive(Debug)]
struct Options {
    benchmark: Option<String>,
    all: bool,
    list: bool,
    mode: Mode,
    executions: usize,
    seed: u64,
    baseline: bool,
    eadr: bool,
    details: bool,
    explain: bool,
    json: bool,
    trace_out: Option<String>,
    // Coverage plane: per-site verdict table (human) and deterministic
    // coverage JSON (byte-identical across workers × fork/prune/GC).
    coverage: bool,
    coverage_out: Option<String>,
    // Wall-clock telemetry plane (all stderr/side-file; stdout — including
    // `--json` — is byte-identical with these on or off).
    progress: bool,
    prom_out: Option<String>,
    profile: bool,
    engine: EngineConfig,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Auto,
    ModelCheck,
    Random,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            benchmark: None,
            all: false,
            list: false,
            mode: Mode::Auto,
            executions: 20,
            seed: bench::HARNESS_SEED,
            baseline: false,
            eadr: false,
            details: false,
            explain: false,
            json: false,
            trace_out: None,
            coverage: false,
            coverage_out: None,
            progress: false,
            prom_out: None,
            profile: false,
            engine: EngineConfig::default(),
        }
    }
}

fn usage() -> &'static str {
    "usage: yashme (--list | --all | --benchmark <NAME>) \
     [--mode model-check|random] [--executions N] [--seed S] \
     [--workers N|auto] [--no-fork] [--no-prune] [--no-gc] \
     [--baseline] [--eadr] [--details] [--explain] [--json] \
     [--trace-out FILE] [--coverage] [--coverage-out FILE] \
     [--progress] [--prom-out FILE] [--profile]"
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    // The engine flags go through the one shared parser; everything it
    // leaves over is this tool's own.
    let common = bench::cli::parse_args(args.iter().cloned())?;
    let mut opts = Options {
        engine: common.engine,
        ..Options::default()
    };
    let mut it = common.rest.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--list" => opts.list = true,
            "--all" => opts.all = true,
            "--benchmark" | "-b" => opts.benchmark = Some(value(&arg, it.next())?),
            "--mode" => {
                opts.mode = match value::<String>(&arg, it.next())?.as_str() {
                    "model-check" => Mode::ModelCheck,
                    "random" => Mode::Random,
                    other => return Err(format!("unknown mode {other:?}")),
                }
            }
            "--executions" | "-n" => opts.executions = value(&arg, it.next())?,
            "--seed" => opts.seed = value(&arg, it.next())?,
            "--baseline" => opts.baseline = true,
            "--eadr" => opts.eadr = true,
            "--details" => opts.details = true,
            "--explain" => opts.explain = true,
            "--json" => opts.json = true,
            "--trace-out" => opts.trace_out = Some(value(&arg, it.next())?),
            "--coverage" => opts.coverage = true,
            "--coverage-out" => opts.coverage_out = Some(value(&arg, it.next())?),
            "--progress" => opts.progress = true,
            "--prom-out" => opts.prom_out = Some(value(&arg, it.next())?),
            "--profile" => opts.profile = true,
            "--help" | "-h" => return Err(usage().to_owned()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !opts.list && !opts.all && opts.benchmark.is_none() {
        return Err(usage().to_owned());
    }
    if opts.trace_out.is_some() && opts.all {
        return Err("--trace-out needs a single --benchmark (traces are per run)".to_owned());
    }
    if opts.trace_out.is_some() {
        // Tracing is opt-in: the engine only allocates span buffers when an
        // export was requested.
        opts.engine = opts.engine.with_trace(true);
    }
    Ok(opts)
}

fn config_of(opts: &Options) -> YashmeConfig {
    let mut cfg = if opts.baseline {
        YashmeConfig::baseline()
    } else {
        YashmeConfig::default()
    };
    cfg.eadr = opts.eadr;
    cfg
}

/// An output file opened before any benchmark runs, so an unwritable
/// destination fails fast instead of after the whole suite. Opening keeps
/// an existing file's bytes: it is emptied only when its document is
/// written, so an unwritable path given later on the command line clobbers
/// nothing. A file that opening created is removed again by
/// [`Output::discard`] when the run stops before writing it.
struct Output {
    file: std::fs::File,
    path: String,
    what: &'static str,
    /// Whether opening created the file.
    created: bool,
}

impl Output {
    fn create(path: &Option<String>, what: &'static str) -> Result<Option<Output>, String> {
        let Some(path) = path else { return Ok(None) };
        let fail = |e: std::io::Error| format!("writing {what} to {path}: {e}");
        let open = |new| {
            let mut options = std::fs::OpenOptions::new();
            options.write(true).create_new(new).open(path)
        };
        let (file, created) = match open(true) {
            Ok(file) => (file, true),
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                (open(false).map_err(fail)?, false)
            }
            Err(e) => return Err(fail(e)),
        };
        Ok(Some(Output {
            file,
            path: path.clone(),
            what,
            created,
        }))
    }

    /// Drops an output that will not be written, removing its file if
    /// opening created it, so a failed run leaves no new empty file behind.
    fn discard(self) {
        if self.created {
            let _ = std::fs::remove_file(&self.path);
        }
    }

    /// Streams the document through `render` (soak traces run to millions
    /// of events, so nothing is assembled in memory first).
    fn write_with(
        self,
        render: impl FnOnce(&mut std::io::BufWriter<std::fs::File>) -> std::io::Result<()>,
    ) -> Result<(), String> {
        let emptied = self.file.set_len(0);
        let mut out = std::io::BufWriter::new(self.file);
        emptied
            .and_then(|()| render(&mut out))
            .and_then(|()| out.flush())
            .map_err(|e| format!("writing {} to {}: {e}", self.what, self.path))
    }

    fn write(self, contents: &str) -> Result<(), String> {
        self.write_with(|out| out.write_all(contents.as_bytes()))
    }
}

/// Suite-level coverage accumulator for `--coverage-out`: per-benchmark
/// documents plus the aggregated site table (cartography doesn't sum
/// across programs, so the aggregate drops it — same as table3).
#[derive(Default)]
struct CoverageAccum {
    aggregate: jaaru::CoverageReport,
    docs: Vec<Json>,
}

fn run_one(
    entry: &SuiteEntry,
    opts: &Options,
    tel: &Arc<Telemetry>,
    docs: &mut Vec<Json>,
    cov: &mut Option<CoverageAccum>,
    trace_out: Option<Output>,
) -> Result<usize, String> {
    let program = (entry.program)();
    let mode = match (opts.mode, entry.mode) {
        (Mode::ModelCheck, _) => ExecMode::model_check(),
        (Mode::Random, _) => ExecMode::random(opts.executions, opts.seed),
        (Mode::Auto, bench::SuiteMode::ModelCheck) => ExecMode::model_check(),
        (Mode::Auto, bench::SuiteMode::Random(n)) => ExecMode::random(n, opts.seed),
    };
    let config = config_of(opts);
    let report = Engine::run_observed(
        &program,
        mode,
        &|| Box::new(YashmeDetector::new(config)),
        &opts.engine,
        tel,
    );
    if opts.json {
        docs.push(json::run_json(entry.name, &report, true));
    } else {
        println!("== {} ==", entry.name);
        print!("{}", render::render_summary(&report));
        let (rows, _) = render::render_race_rows(entry.name, &report, 1);
        if rows.is_empty() {
            println!("no persistency races found");
        } else {
            print!("{rows}");
        }
        if opts.details {
            for r in report.races() {
                println!("  {}", render::render_detail(entry.name, r));
            }
            print!("{}", render::render_stats(&report));
        }
        if opts.explain {
            for (i, r) in report.races().iter().enumerate() {
                print!("{}", render::render_explain(entry.name, i + 1, r));
            }
        }
        if opts.coverage {
            print!("{}", render::render_coverage(&report));
        }
        println!();
    }
    if let Some(cov) = cov {
        cov.aggregate.absorb_suite(report.coverage());
        cov.docs.push(json::coverage_doc(entry.name, &report));
    }
    if let Some(out) = trace_out {
        let trace = report
            .trace()
            .ok_or_else(|| "engine produced no trace".to_owned())?;
        out.write_with(|w| jaaru::obs::write_chrome_json(trace, w))?;
    }
    Ok(report.race_labels().len())
}

/// Opens `--prom-out`, `--coverage-out` and `--trace-out`, in that order.
/// On the first that fails, the ones already opened are discarded.
fn open_outputs(opts: &Options) -> Result<[Option<Output>; 3], String> {
    let mut outputs = [None, None, None];
    let wanted = [
        (&opts.prom_out, "prometheus metrics"),
        (&opts.coverage_out, "coverage"),
        (&opts.trace_out, "chrome trace"),
    ];
    for (slot, (path, what)) in outputs.iter_mut().zip(wanted) {
        match Output::create(path, what) {
            Ok(out) => *slot = out,
            Err(msg) => {
                outputs.into_iter().flatten().for_each(Output::discard);
                return Err(msg);
            }
        }
    }
    Ok(outputs)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let mut suite = evaluation_suite();
    // Extension benchmarks (beyond the paper's evaluation).
    suite.extend(extras::suite().into_iter().map(|x| SuiteEntry {
        name: x.name,
        program: x.program,
        mode: bench::SuiteMode::ModelCheck,
    }));
    if opts.list {
        println!("registered benchmarks:");
        for e in &suite {
            println!(
                "  {:<16} ({})",
                e.name,
                match e.mode {
                    bench::SuiteMode::ModelCheck => "model-check",
                    bench::SuiteMode::Random(_) => "random",
                }
            );
        }
        return ExitCode::SUCCESS;
    }
    // Wall-clock telemetry plane: enabled by any of its three flags. The
    // reporter thread writes heartbeats to stderr only, so stdout (human
    // tables or `--json`) can never interleave with it.
    let telemetry_on = opts.progress || opts.prom_out.is_some() || opts.profile;
    let tel = if telemetry_on {
        Arc::new(Telemetry::new())
    } else {
        Arc::clone(Telemetry::off())
    };
    let [prom_out, coverage_out, mut trace_out] = match open_outputs(&opts) {
        Ok(outputs) => outputs,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let reporter = start_reporter(
        &tel,
        ReporterConfig {
            progress: opts
                .progress
                .then(|| Box::new(std::io::stderr()) as Box<dyn std::io::Write + Send>),
            ..ReporterConfig::default()
        },
    );
    let mut total = 0;
    let mut docs = Vec::new();
    let mut cov = opts.coverage_out.as_ref().map(|_| CoverageAccum::default());
    // The trace file needs a single benchmark (the parser enforces it), so
    // the one run takes it.
    let mut run =
        |e: &SuiteEntry| match run_one(e, &opts, &tel, &mut docs, &mut cov, trace_out.take()) {
            Ok(n) => {
                total += n;
                true
            }
            Err(msg) => {
                eprintln!("{msg}");
                false
            }
        };
    let ran = if opts.all {
        suite.iter().all(&mut run)
    } else if let Some(name) = &opts.benchmark {
        match suite.iter().find(|e| e.name.eq_ignore_ascii_case(name)) {
            Some(e) => run(e),
            None => {
                eprintln!("unknown benchmark {name:?}; try --list");
                false
            }
        }
    } else {
        true
    };
    if !ran {
        prom_out
            .into_iter()
            .chain(coverage_out)
            .for_each(Output::discard);
        return ExitCode::from(2);
    }
    // Stop the reporter (it emits one final sample) before rendering the
    // post-run telemetry artifacts.
    drop(reporter);
    if let Some(out) = prom_out {
        if let Err(msg) = out.write(&tel.to_prometheus()) {
            eprintln!("{msg}");
            coverage_out.into_iter().for_each(Output::discard);
            return ExitCode::from(2);
        }
    }
    if opts.profile {
        eprint!("{}", tel.render_profile());
    }
    if let (Some(out), Some(cov)) = (coverage_out, cov) {
        let doc = json::coverage_suite_json("yashme", &cov.aggregate, cov.docs);
        if let Err(msg) = out.write(&format!("{}\n", doc.render())) {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    }
    if opts.json {
        println!("{}", json::suite_json(docs, total).render());
    } else {
        println!("total: {total} persistency race(s)");
    }
    // Exit code 1 when races were found, like a linter.
    if total > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
