//! The deployed stack under closed-loop load: `ShardedEngine` →
//! `Service` → [`CLIENTS`] client threads, each issuing its next call
//! only after the previous reply arrived.

use crate::oracle::Answer;
use crate::spec::{DeletePool, Op, Plan, CLIENTS};
use crate::trace::{now_ns, WORKER_MARK};
use crackdb::columnstore::{RowId, Table};
use crackdb::engine::{Client, Engine, Service, ServiceError, ShardedEngine};
use std::sync::Barrier;
use std::time::Instant;

/// The kind of a client call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallKind {
    /// `Client::select`.
    Read,
    /// `Client::insert`.
    Insert,
    /// `Client::delete`.
    Delete,
}

/// What a successful call returned.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// A select's answer; `worker` is set when a traced shard worker
    /// (rather than the snapshot path) produced it.
    Read {
        /// The comparable answer.
        answer: Answer,
        /// Answered by the shard workers (traced runs only).
        worker: bool,
    },
    /// The key an insert got or a delete named.
    Write {
        /// Global row key.
        key: RowId,
    },
}

/// One client call.
#[derive(Debug, Clone)]
pub struct Rec {
    /// Position of the operation in the client's stream.
    pub idx: usize,
    /// Call kind.
    pub kind: CallKind,
    /// Call start (ns, `now_ns` clock).
    pub start: u64,
    /// Reply arrival.
    pub end: u64,
    /// Sequence number and outcome, or the service's error.
    pub result: Result<(u64, Outcome), ServiceError>,
}

impl Rec {
    /// Client-observed latency.
    pub fn latency_ns(&self) -> u64 {
        self.end - self.start
    }
}

/// A finished serving phase.
pub struct Served<E> {
    /// Calls per client, in issue order.
    pub recs: Vec<Vec<Rec>>,
    /// Seconds `Service::start` took.
    pub start_s: f64,
    /// Timed-phase length: start to the last reply.
    pub wall_ns: u64,
    /// Selects served by the snapshot path.
    pub snapshot_hits: u64,
    /// Advisor policy switches across all shards.
    pub policy_switches: u64,
    /// The engine handed back by `Service::shutdown`.
    pub engine: ShardedEngine<E>,
}

/// Partition the table and build one engine per shard.
pub fn build<E: Engine>(plan: &Plan, table: Table, make: &impl Fn(Table) -> E) -> ShardedEngine<E> {
    ShardedEngine::build(table, plan.sizes.shards, |_, part| make(part))
}

/// Build the engines from a copy of the table and run the plan's
/// warm-up on them. Returns the engine and the seconds the build took
/// (the copy is made before the clock starts; the warm-up is untimed).
pub fn build_timed<E: Engine + Send>(
    plan: &Plan,
    make: &impl Fn(Table) -> E,
) -> (ShardedEngine<E>, f64) {
    let table = plan.table.clone();
    let t0 = Instant::now();
    let mut engine = build(plan, table, make);
    let built = t0.elapsed().as_secs_f64();
    for q in &plan.warmup {
        engine.select(q);
    }
    (engine, built)
}

/// Serve `engine` to the plan's client streams for `seconds`, each
/// client starting at position `first` of its stream.
pub fn serve<E: Engine + Send + 'static>(
    plan: &Plan,
    engine: ShardedEngine<E>,
    seconds: f64,
    first: usize,
) -> Served<E> {
    let t0 = Instant::now();
    let svc = Service::start(engine).expect("service starts");
    let start_s = t0.elapsed().as_secs_f64();
    let go = Barrier::new(CLIENTS + 1);
    let (recs, start_ns) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let client = svc.client();
                let ops = &plan.streams[c];
                let pool = DeletePool::new(plan.delete_keys[c].clone());
                let go = &go;
                s.spawn(move || {
                    go.wait();
                    let deadline = now_ns() + (seconds * 1e9) as u64;
                    client_loop(&client, ops, first, pool, deadline)
                })
            })
            .collect();
        let start_ns = now_ns();
        go.wait();
        let recs: Vec<Vec<Rec>> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect();
        (recs, start_ns)
    });
    let last = recs
        .iter()
        .flatten()
        .map(|r| r.end)
        .max()
        .unwrap_or(start_ns);
    let snapshot_hits = svc.snapshot_hits();
    let policy_switches = svc.policy_switches();
    Served {
        recs,
        start_s,
        wall_ns: last.saturating_sub(start_ns).max(1),
        snapshot_hits,
        policy_switches,
        engine: svc.shutdown(),
    }
}

/// One closed-loop session: issue, await, record, repeat until the
/// deadline (wrapping around the stream if it runs out).
fn client_loop(
    client: &Client,
    ops: &[Op],
    first: usize,
    mut pool: DeletePool,
    deadline: u64,
) -> Vec<Rec> {
    let mut recs = Vec::with_capacity(ops.len().min(1 << 16));
    for (n, op) in ops.iter().enumerate().cycle().skip(first) {
        let start = now_ns();
        if start >= deadline {
            break;
        }
        let (kind, end, result) = match op {
            Op::Read(q) => {
                let r = client.select(q);
                let end = now_ns();
                let r = r.map(|reply| {
                    let outcome = Outcome::Read {
                        answer: Answer::of(&reply.output),
                        worker: reply.output.timings.join == WORKER_MARK,
                    };
                    (reply.seq, outcome)
                });
                (CallKind::Read, end, r)
            }
            Op::Insert(row) => {
                let r = client.insert(row);
                let end = now_ns();
                let r = r.map(|w| {
                    let key = w.key.expect("inserts return their key");
                    pool.inserted(key);
                    (w.seq, Outcome::Write { key })
                });
                (CallKind::Insert, end, r)
            }
            Op::Delete => {
                let Some(key) = pool.next_key() else { continue };
                let r = client.delete(key);
                let end = now_ns();
                (
                    CallKind::Delete,
                    end,
                    r.map(|w| (w.seq, Outcome::Write { key })),
                )
            }
        };
        recs.push(Rec {
            idx: n,
            kind,
            start,
            end,
            result,
        });
    }
    recs
}
