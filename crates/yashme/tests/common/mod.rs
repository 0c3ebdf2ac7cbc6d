//! The paper's figure programs, shared by `figures.rs` (which checks each
//! one's verdict) and `flushmap_reference.rs` (which replays all of them
//! through the detector and a reference detector in lockstep).

// Each test crate that declares `mod common;` uses a different subset.
#![allow(dead_code)]

use jaaru::{Atomicity, Ctx, Program};

/// Figure 1: store, then clflush; the post-crash execution reads the store.
pub fn figure1() -> Program {
    Program::new("figure1")
        .pre_crash(|ctx: &mut Ctx| {
            let val = ctx.root();
            ctx.store_u64(val, 0x1234_5678_1234_5678, Atomicity::Plain, "pmobj->val");
            ctx.clflush(val);
        })
        .post_crash(|ctx: &mut Ctx| {
            let val = ctx.root();
            let _ = ctx.load_u64(val, Atomicity::Plain);
        })
}

/// Figure 6(b): after the clflush(x), the program writes an atomic y on the
/// same cache line and the post-crash execution reads y first. Every
/// consistent prefix then contains the flush.
pub fn figure6b() -> Program {
    Program::new("figure6b")
        .pre_crash(|ctx: &mut Ctx| {
            let x = ctx.root();
            let y = ctx.root_slot(1); // same cache line as x
            ctx.store_u64(x, 1, Atomicity::Plain, "x");
            ctx.clflush(x);
            ctx.store_release_u64(y, 1, "y_rel");
        })
        .post_crash(|ctx: &mut Ctx| {
            let x = ctx.root();
            let y = ctx.root_slot(1);
            let _ = ctx.load_acquire_u64(y);
            let _ = ctx.load_u64(x, Atomicity::Plain);
        })
}

/// Figure 4(a) with the post-crash execution also reading a *later* flushed
/// guard value whose store happens after the clflush, pulling the flush
/// into every consistent prefix.
pub fn figure4a() -> Program {
    Program::new("figure4a")
        .pre_crash(|ctx: &mut Ctx| {
            let x = ctx.root();
            let guard = ctx.root_slot(32); // different cache line
            ctx.store_u64(x, 1, Atomicity::Plain, "x");
            ctx.clflush(x);
            ctx.store_u64(guard, 1, Atomicity::Plain, "guard");
            ctx.clflush(guard);
        })
        .post_crash(|ctx: &mut Ctx| {
            let x = ctx.root();
            let guard = ctx.root_slot(32);
            let _ = ctx.load_u64(guard, Atomicity::Plain);
            let _ = ctx.load_u64(x, Atomicity::Plain);
        })
}

/// Figure 4(b): `figure4a` with clwb + sfence persisting x.
pub fn figure4b() -> Program {
    Program::new("figure4b")
        .pre_crash(|ctx: &mut Ctx| {
            let x = ctx.root();
            let guard = ctx.root_slot(32);
            ctx.store_u64(x, 1, Atomicity::Plain, "x");
            ctx.clwb(x);
            ctx.sfence();
            ctx.store_u64(guard, 1, Atomicity::Plain, "guard");
            ctx.clflush(guard);
        })
        .post_crash(|ctx: &mut Ctx| {
            let x = ctx.root();
            let guard = ctx.root_slot(32);
            let _ = ctx.load_u64(guard, Atomicity::Plain);
            let _ = ctx.load_u64(x, Atomicity::Plain);
        })
}

/// A clwb with no fence before the crash persists nothing.
pub fn clwb_without_fence() -> Program {
    Program::new("clwb-no-fence")
        .pre_crash(|ctx: &mut Ctx| {
            let x = ctx.root();
            ctx.store_u64(x, 1, Atomicity::Plain, "x");
            ctx.clwb(x);
            // no fence before the crash
        })
        .post_crash(|ctx: &mut Ctx| {
            let x = ctx.root();
            let _ = ctx.load_u64(x, Atomicity::Plain);
        })
}

/// Figure 5(a): x=1 (plain) then y_rel=1 on the same cache line. With
/// `read_release_first`, the post-crash execution reads y then x, and
/// coherence proves the line persisted after x; reading x first gives no
/// such cover.
pub fn figure5a(read_release_first: bool) -> Program {
    let name = if read_release_first {
        "figure5a"
    } else {
        "figure5a-inverted"
    };
    Program::new(name)
        .pre_crash(|ctx: &mut Ctx| {
            let x = ctx.root();
            let y = ctx.root_slot(1);
            ctx.store_u64(x, 1, Atomicity::Plain, "x");
            ctx.store_release_u64(y, 1, "y_rel");
        })
        .post_crash(move |ctx: &mut Ctx| {
            let x = ctx.root();
            let y = ctx.root_slot(1);
            if read_release_first {
                let _ = ctx.load_acquire_u64(y);
                let _ = ctx.load_u64(x, Atomicity::Plain);
            } else {
                let _ = ctx.load_u64(x, Atomicity::Plain);
                let _ = ctx.load_acquire_u64(y);
            }
        })
}

/// Figure 5(a)'s shape with the release store on a different cache line:
/// no coherence cover.
pub fn release_store_on_other_line() -> Program {
    Program::new("diff-line")
        .pre_crash(|ctx: &mut Ctx| {
            let x = ctx.root();
            let y = ctx.root_slot(32); // different cache line
            ctx.store_u64(x, 1, Atomicity::Plain, "x");
            ctx.store_release_u64(y, 1, "y_rel");
        })
        .post_crash(|ctx: &mut Ctx| {
            let x = ctx.root();
            let y = ctx.root_slot(32);
            let _ = ctx.load_acquire_u64(y);
            let _ = ctx.load_u64(x, Atomicity::Plain);
        })
}

/// §4.2: thread 1 stores z (plain) and flushes it; thread 2 then sets an
/// atomic flag f. The two threads are concurrent: thread 2 never
/// synchronizes with thread 1, so f's clock vector does not cover the
/// flush of z.
pub fn section42() -> Program {
    Program::new("sec4.2")
        .pre_crash(|ctx: &mut Ctx| {
            let z = ctx.root();
            let f = ctx.root_slot(32); // different line
            let h = ctx.spawn(move |t1: &mut Ctx| {
                t1.store_u64(z, 9, Atomicity::Plain, "z");
                t1.clflush(z);
                t1.sfence();
            });
            let h2 = ctx.spawn(move |t2: &mut Ctx| {
                t2.store_release_u64(f, 1, "f");
                t2.clflush(f);
                t2.sfence();
            });
            ctx.join(h);
            ctx.join(h2);
        })
        .post_crash(|ctx: &mut Ctx| {
            let z = ctx.root();
            let f = ctx.root_slot(32);
            if ctx.load_acquire_u64(f) == 1 {
                let _ = ctx.load_u64(z, Atomicity::Plain);
            }
        })
}

/// §7.2: a plain byte store under a compiler that invents stores.
pub fn invented_byte_store() -> Program {
    Program::new("invent")
        .with_compiler(compiler_model::CompilerConfig::default().with_invented_stores())
        .pre_crash(|ctx: &mut Ctx| {
            let flag = ctx.root();
            ctx.store_u8(flag, 1, Atomicity::Plain, "pslab.valid");
        })
        .post_crash(|ctx: &mut Ctx| {
            let flag = ctx.root();
            let _ = ctx.load_u8(flag, Atomicity::Plain);
        })
}

/// The paper's prescribed fix: atomic release stores.
pub fn release_store_fix() -> Program {
    Program::new("fixed")
        .pre_crash(|ctx: &mut Ctx| {
            let val = ctx.root();
            ctx.store_release_u64(val, 42, "pmobj->val");
            ctx.clflush(val);
            ctx.sfence();
        })
        .post_crash(|ctx: &mut Ctx| {
            let val = ctx.root();
            let _ = ctx.load_acquire_u64(val);
        })
}

/// A plain store read back inside a checksum-validation scope.
pub fn checksum_validated_read() -> Program {
    Program::new("checksum")
        .pre_crash(|ctx: &mut Ctx| {
            let data = ctx.root();
            ctx.store_u64(data, 0xfeed, Atomicity::Plain, "pool.data");
        })
        .post_crash(|ctx: &mut Ctx| {
            let data = ctx.root();
            ctx.set_checksum_scope(true);
            let _ = ctx.load_u64(data, Atomicity::Plain);
            ctx.set_checksum_scope(false);
        })
}

/// Every program above.
pub fn all() -> Vec<Program> {
    vec![
        figure1(),
        figure6b(),
        figure4a(),
        figure4b(),
        clwb_without_fence(),
        figure5a(true),
        figure5a(false),
        release_store_on_other_line(),
        section42(),
        invented_byte_store(),
        release_store_fix(),
        checksum_validated_read(),
    ]
}
