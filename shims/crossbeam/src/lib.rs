//! Empty stand-in for `crossbeam`. No workspace crate uses it; the package
//! stays only because the benchmark's own `Cargo.lock` still lists the
//! `jaaru -> crossbeam` edge, and dropping that edge would rewrite the lock
//! file. The change that next edits the benchmark deletes this package.
