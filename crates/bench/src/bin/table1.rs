//! Regenerates Table 1: the Px86sim reordering constraints.
//!
//! `--out PATH` writes the rendered table to a file as well as stdout.

fn main() {
    let c = bench::cli::common_args(&[], &["--out"]);
    let out_path = c.value_of("--out");
    let mut out = String::new();
    out.push_str("Table 1: Reordering constraints in Px86sim\n");
    out.push_str(
        "(✓ = order preserved, ✗ = reorderable, CL = preserved only on the same cache line)\n\n",
    );
    out.push_str(&px86::render_table1());
    print!("{out}");
    if let Some(path) = out_path {
        std::fs::write(path, out).expect("write table1 output");
    }
}
