//! A memcached-pmem client/server session with crash recovery (§7.1).
//!
//! A client thread drives the server with `set`/`get` commands over a
//! volatile wire; the server stores items in persistent slabs. After the
//! injected crash, the restart path (`pslab_check` + index rebuild) reads
//! the four racy metadata fields Table 4 reports: `pslab_pool.valid`,
//! `pslab.id`, `item.it_flags`, and `item.cas`.
//!
//! Run with: `cargo run --example memcached_session`

use apps::memcached;
use jaaru::{EngineConfig, ExecMode};
use yashme::YashmeConfig;

fn main() {
    println!("Running memcached-pmem under Yashme (random mode, 20 executions)...");
    let report = yashme::check(
        &memcached::program(),
        ExecMode::random(20, 15),
        YashmeConfig::default(),
        &EngineConfig::default(),
    );
    println!();
    println!("=== Yashme report ===");
    print!("{report}");
    println!();
    println!("Table 4 rows 2-5 (memcached):");
    for (i, label) in report.race_labels().iter().enumerate() {
        println!("  #{} {}", i + 2, label);
    }
    let found = report.race_labels().len();
    println!();
    println!("found {found} of the paper's 4 memcached races in this random run");
    println!("(model checking finds all 4 deterministically — see crates/apps tests)");
}
