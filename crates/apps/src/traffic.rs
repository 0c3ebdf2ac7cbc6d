//! Zipfian multi-client traffic generator for soak runs.
//!
//! The evaluation drivers ([`crate::redis::program`],
//! [`crate::memcached::program`]) send a handful of commands — enough to
//! expose the Table 4 races, far too few to say anything about sustained
//! throughput or memory growth. This module scales the same client/server
//! shape to millions of operations: many simulated client threads push
//! batched commands over the volatile [`Wire`], keys drawn from a zipfian
//! distribution (hot-key skew, like YCSB), with a configurable
//! set/get/del mix.
//!
//! Two disciplines keep the workload sound under the cooperative
//! scheduler:
//!
//! 1. **Clients yield once per batch.** [`Wire`] sends are pure host-mutex
//!    operations and never reach the scheduler, so a client that never
//!    yields would flood the queue with its entire operation budget before
//!    the server runs once. A [`Ctx::sched_yield`] per batch bounds queue
//!    occupancy at roughly `clients × batch`.
//! 2. **The server counts `Quit`s.** Every client ends its stream with
//!    [`Command::Quit`]; the serve loop exits when all of them arrived, so
//!    no tail of commands is silently dropped.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use jaaru::{Ctx, Program};

use crate::client::{Command, Wire};
use crate::memcached::Memcached;
use crate::redis::Redis;

/// Which server port the traffic drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Memcached-pmem: fixed slab pool, in-place item reuse — live state
    /// plateaus at the pool size however long the run.
    Memcached,
    /// Redis-pmem: every `SET` allocates a fresh dict entry, so the arena
    /// (and the provenance roots over it) grows with the run — the
    /// unbounded contrast case.
    Redis,
}

impl Backend {
    /// Parses `"memcached"` / `"redis"` (case-insensitive).
    pub fn parse(s: &str) -> Option<Backend> {
        if s.eq_ignore_ascii_case("memcached") {
            Some(Backend::Memcached)
        } else if s.eq_ignore_ascii_case("redis") {
            Some(Backend::Redis)
        } else {
            None
        }
    }

    /// The backend's name as accepted by [`Backend::parse`].
    pub fn name(&self) -> &'static str {
        match self {
            Backend::Memcached => "memcached",
            Backend::Redis => "redis",
        }
    }
}

/// Items per slab the soak-sized memcached pool uses.
pub const SOAK_ITEMS_PER_SLAB: u64 = 8;

/// Traffic shape. `Copy` so program phases (which may run many times) can
/// capture it by value.
#[derive(Debug, Clone, Copy)]
pub struct TrafficConfig {
    /// Server port under test.
    pub backend: Backend,
    /// Concurrent client threads.
    pub clients: usize,
    /// Operations each client sends (total ops = `clients × ops_per_client`).
    pub ops_per_client: u64,
    /// Key-space size; keys are zipfian ranks `0..keys`.
    pub keys: u64,
    /// Zipf exponent `s` (weight of rank `r` is `1/r^s`); `0.0` is uniform,
    /// `0.99` matches YCSB's default skew.
    pub zipf_exponent: f64,
    /// Percent of operations that are `SET`.
    pub set_pct: u32,
    /// Percent of operations that are `DEL` (the rest are `GET`).
    pub del_pct: u32,
    /// Commands per [`Wire::send_all`] batch (one scheduler yield each).
    pub batch: usize,
    /// Seed for the per-client command streams.
    pub seed: u64,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        TrafficConfig {
            backend: Backend::Memcached,
            clients: 4,
            ops_per_client: 25_000,
            keys: 256,
            zipf_exponent: 0.99,
            set_pct: 50,
            del_pct: 10,
            batch: 64,
            seed: 15,
        }
    }
}

impl TrafficConfig {
    /// Total operations the workload sends (excluding the `Quit`s).
    pub fn total_ops(&self) -> u64 {
        self.clients as u64 * self.ops_per_client
    }

    /// Slab count sizing the memcached pool to the key space, so every key
    /// has a home slot and updates reuse it in place.
    pub fn num_slabs(&self) -> u64 {
        self.keys.div_ceil(SOAK_ITEMS_PER_SLAB).max(1)
    }
}

/// A zipfian sampler over ranks `0..n`, precomputed as a fixed-point CDF
/// (the vendored `rand` has no float ranges) and sampled by binary search.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<u64>,
}

impl Zipf {
    /// Builds the sampler for `n` ranks with exponent `s`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: u64, s: f64) -> Zipf {
        assert!(n > 0, "zipf over an empty key space");
        let weights: Vec<f64> = (1..=n).map(|rank| 1.0 / (rank as f64).powf(s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let mut cdf: Vec<u64> = weights
            .iter()
            .map(|w| {
                acc += w / total;
                (acc * u64::MAX as f64) as u64
            })
            .collect();
        // Float rounding must not leave a gap at the top of the draw space.
        *cdf.last_mut().expect("n > 0") = u64::MAX;
        Zipf { cdf }
    }

    /// Draws one rank in `0..n`.
    pub fn sample(&self, rng: &mut StdRng) -> u64 {
        let draw = rng.next_u64();
        let rank = self.cdf.partition_point(|&c| c < draw);
        rank.min(self.cdf.len() - 1) as u64
    }
}

/// Builds one client's command stream and feeds it to `wire` in batches,
/// yielding to the scheduler after each batch, ending with [`Command::Quit`].
pub fn run_client(cfg: &TrafficConfig, id: usize, wire: &Wire, ctx: &mut Ctx) {
    let mut rng =
        StdRng::seed_from_u64(cfg.seed ^ (id as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let zipf = Zipf::new(cfg.keys, cfg.zipf_exponent);
    let mut value = 0u64;
    let mut sent = 0u64;
    while sent < cfg.ops_per_client {
        let n = (cfg.ops_per_client - sent).min(cfg.batch.max(1) as u64);
        let mut batch = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let key = zipf.sample(&mut rng);
            let roll: u32 = rng.gen_range(0..100);
            batch.push(if roll < cfg.set_pct {
                value += 1;
                Command::Set(key, (id as u64) << 32 | value)
            } else if roll < cfg.set_pct + cfg.del_pct {
                Command::Del(key)
            } else {
                Command::Get(key)
            });
        }
        wire.send_all(batch);
        sent += n;
        ctx.sched_yield();
    }
    wire.send(Command::Quit);
}

/// The key-value surface the traffic drives, implemented by both server
/// ports.
pub trait KvServer {
    /// Stores `key → value`.
    fn set(&mut self, ctx: &mut Ctx, key: u64, value: u64) -> bool;
    /// Looks `key` up.
    fn get(&mut self, ctx: &mut Ctx, key: u64) -> Option<u64>;
    /// Deletes `key`.
    fn del(&mut self, ctx: &mut Ctx, key: u64) -> bool;
}

impl KvServer for Memcached {
    fn set(&mut self, ctx: &mut Ctx, key: u64, value: u64) -> bool {
        Memcached::set(self, ctx, key, value)
    }
    fn get(&mut self, ctx: &mut Ctx, key: u64) -> Option<u64> {
        Memcached::get(self, ctx, key)
    }
    fn del(&mut self, ctx: &mut Ctx, key: u64) -> bool {
        Memcached::del(self, ctx, key)
    }
}

impl KvServer for Redis {
    fn set(&mut self, ctx: &mut Ctx, key: u64, value: u64) -> bool {
        Redis::set(self, ctx, key, value)
    }
    fn get(&mut self, ctx: &mut Ctx, key: u64) -> Option<u64> {
        Redis::get(self, ctx, key)
    }
    fn del(&mut self, ctx: &mut Ctx, key: u64) -> bool {
        Redis::del(self, ctx, key)
    }
}

/// Serves drained command batches until every client's `Quit` arrived.
pub fn serve_clients(
    server: &mut dyn KvServer,
    ctx: &mut Ctx,
    wire: &Wire,
    clients: usize,
    batch: usize,
) {
    let mut quits = 0;
    while quits < clients {
        let cmds = wire.drain(batch.max(1));
        if cmds.is_empty() {
            ctx.sched_yield();
            continue;
        }
        for cmd in cmds {
            match cmd {
                Command::Set(k, v) => {
                    server.set(ctx, k, v);
                }
                Command::Get(k) => {
                    let _ = server.get(ctx, k);
                }
                Command::Del(k) => {
                    server.del(ctx, k);
                }
                Command::Quit => quits += 1,
            }
        }
    }
}

/// The full soak program: clients and server in the pre-crash phase, a
/// restart plus spot lookups of the hottest keys post-crash.
pub fn soak_program(cfg: TrafficConfig) -> Program {
    Program::new(format!("soak-{}", cfg.backend.name()))
        .pre_crash(move |ctx: &mut Ctx| {
            let wire = Wire::new();
            let handles: Vec<_> = (0..cfg.clients)
                .map(|id| {
                    let w = wire.clone();
                    ctx.spawn(move |c: &mut Ctx| run_client(&cfg, id, &w, c))
                })
                .collect();
            match cfg.backend {
                Backend::Memcached => {
                    let mut server =
                        Memcached::format_sized(ctx, cfg.num_slabs(), SOAK_ITEMS_PER_SLAB);
                    serve_clients(&mut server, ctx, &wire, cfg.clients, cfg.batch);
                }
                Backend::Redis => {
                    let mut server = Redis::create(ctx);
                    serve_clients(&mut server, ctx, &wire, cfg.clients, cfg.batch);
                }
            }
            for h in handles {
                ctx.join(h);
            }
        })
        .post_crash(move |ctx: &mut Ctx| {
            let hot = cfg.keys.min(4);
            match cfg.backend {
                Backend::Memcached => {
                    if let Some((mut server, _recovered)) =
                        Memcached::restart_sized(ctx, cfg.num_slabs(), SOAK_ITEMS_PER_SLAB)
                    {
                        for key in 0..hot {
                            let _ = KvServer::get(&mut server, ctx, key);
                        }
                    }
                }
                Backend::Redis => {
                    if let Some(mut server) = Redis::restart(ctx) {
                        for key in 0..hot {
                            let _ = KvServer::get(&mut server, ctx, key);
                        }
                    }
                }
            }
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let zipf = Zipf::new(64, 0.99);
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = [0u64; 64];
        for _ in 0..10_000 {
            let rank = zipf.sample(&mut rng);
            assert!(rank < 64);
            counts[rank as usize] += 1;
        }
        // Rank 0 is the hottest and the tail is cold but nonempty.
        assert!(counts[0] > counts[32] && counts[0] > 10 * counts[63].max(1));
        assert!(counts.iter().sum::<u64>() == 10_000);
    }

    #[test]
    fn uniform_exponent_is_flat() {
        let zipf = Zipf::new(16, 0.0);
        let mut rng = StdRng::seed_from_u64(3);
        let mut counts = [0u64; 16];
        for _ in 0..16_000 {
            counts[zipf.sample(&mut rng) as usize] += 1;
        }
        for &c in &counts {
            assert!((600..1400).contains(&c), "{counts:?}");
        }
    }

    #[test]
    fn soak_session_completes_on_both_backends() {
        for backend in [Backend::Memcached, Backend::Redis] {
            let cfg = TrafficConfig {
                backend,
                clients: 2,
                ops_per_client: 200,
                keys: 32,
                batch: 16,
                ..TrafficConfig::default()
            };
            let run = crate::run_once(&soak_program(cfg), 5);
            assert!(run.panics.is_empty(), "{backend:?}: {:?}", run.panics);
            // Every client op plus the quits reached the server: the ops
            // counter floor is one simulated event per command.
            assert!(run.stats.loads + run.stats.stores_executed > cfg.total_ops());
        }
    }

    #[test]
    fn soak_traffic_is_deterministic() {
        let cfg = TrafficConfig {
            clients: 2,
            ops_per_client: 100,
            keys: 16,
            ..TrafficConfig::default()
        };
        let a = crate::run_once(&soak_program(cfg), 9);
        let b = crate::run_once(&soak_program(cfg), 9);
        assert_eq!(format!("{:?}", a.stats), format!("{:?}", b.stats));
        assert_eq!(a.points, b.points);
    }
}
