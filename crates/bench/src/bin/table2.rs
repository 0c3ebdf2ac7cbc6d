//! Regenerates Table 2: compiler store optimizations (2a) and the
//! source-vs-assembly mem-op counts (2b).
//!
//! `--out PATH` writes the rendered tables to a file as well as stdout.

use std::fmt::Write as _;

use compiler_model::CompilerConfig;

fn main() {
    let c = bench::cli::common_args(&[], &["--out"]);
    let out_path = c.value_of("--out");
    let mut out = String::new();
    out.push_str("Table 2a: store optimizations observed in popular compilers\n\n");
    out.push_str(&compiler_model::render_table2a());
    out.push('\n');
    out.push_str("Table 2b: mem-ops in source vs clang -O3 assembly\n\n");
    let _ = writeln!(out, "{:<12}\t#src-op\t#asm-op", "Prog");
    let cfg = CompilerConfig::clang_o3_x86();
    for spec in recipe::all_benchmarks() {
        let profile = (spec.profile)();
        let _ = writeln!(
            out,
            "{:<12}\t{}\t{}",
            spec.name,
            profile.source_counts().total(),
            profile.asm_counts(&cfg).total()
        );
    }
    print!("{out}");
    if let Some(path) = out_path {
        std::fs::write(path, out).expect("write table2 output");
    }
}
