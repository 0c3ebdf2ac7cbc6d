//! Detection-rate sweep: how many of the known races random mode finds as
//! the execution budget grows, prefix vs baseline — the ablation behind the
//! paper's claim that prefixes let a small number of crash events cover
//! many executions.
//!
//! Accepts the shared engine flags (`--workers`, `--no-fork`, ...); the
//! sweep itself is deterministic per seed at any worker count.

use jaaru::ExecMode;
use yashme::YashmeConfig;

fn main() {
    let c = bench::cli::common_args(&[], &[]);
    let budgets = [1usize, 2, 5, 10, 20, 50];
    println!("Detection rate vs execution budget (random mode, seed 15)");
    println!();
    for (name, program, known) in [
        (
            "CCEH",
            recipe::cceh::program(),
            recipe::cceh::EXPECTED_RACES.len(),
        ),
        (
            "Fast_Fair",
            recipe::fastfair::program(),
            recipe::fastfair::EXPECTED_RACES.len(),
        ),
        (
            "Memcached",
            apps::memcached::program(),
            apps::memcached::EXPECTED_RACES.len(),
        ),
    ] {
        println!("{name} ({known} known races):");
        println!("  executions\tprefix\tbaseline");
        for &n in &budgets {
            let prefix = yashme::check(
                &program,
                ExecMode::random(n, 15),
                YashmeConfig::default(),
                &c.engine,
            )
            .race_labels()
            .len();
            let baseline = yashme::check(
                &program,
                ExecMode::random(n, 15),
                YashmeConfig::baseline(),
                &c.engine,
            )
            .race_labels()
            .len();
            println!("  {n}\t\t{prefix}\t{baseline}");
        }
        println!();
    }
}
