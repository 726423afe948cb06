//! The closed-loop generator: one connection (or in-process handle) kept
//! `window` requests deep, harvested oldest-first, with every answer
//! checked against the stream's truths.
//!
//! [`Door`] is the one seam between the generator and a layer. The same
//! [`drive`] loop runs the shipped TCP door, the loopback door, the runtime
//! handle and the in-process sharded store, so every peel of the traced
//! run replays identical work.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use apcache_core::Interval;
use apcache_runtime::{AggregateKind, Outcome, RuntimeHandle, ShardedStore};
use apcache_store::{Constraint, ReadResult, WriteOutcome};
use apcache_wire::{RemoteStoreClient, Transport};

use crate::spec::{now_of, Op, Step, Verb, AGG_KEYS};
use crate::stats::Span;

/// A layer's answer to one op.
pub enum Reply {
    Read(ReadResult),
    Write(WriteOutcome),
    Agg { answer: Interval, refreshed: usize },
}

/// Submit/harvest access to one layer.
pub trait Door {
    type Ticket;
    fn submit(&mut self, op: &Op, keys: &[String], now: u64) -> Result<Self::Ticket, String>;
    fn wait(&mut self, verb: Verb, ticket: Self::Ticket) -> Result<Reply, String>;
}

fn constraint(delta: f64) -> Constraint {
    Constraint::Absolute(delta)
}

impl<T: Transport> Door for RemoteStoreClient<String, T> {
    type Ticket = apcache_wire::Ticket;

    fn submit(&mut self, op: &Op, keys: &[String], now: u64) -> Result<Self::Ticket, String> {
        let r = match *op {
            Op::Read { key, delta } => {
                self.submit_read(&keys[key as usize], constraint(delta), now)
            }
            Op::Write { key, value } => self.submit_write(&keys[key as usize], value, now),
            Op::Agg { delta, .. } => {
                self.submit_aggregate(AggregateKind::Sum, keys, constraint(delta), now)
            }
        };
        r.map_err(|e| e.to_string())
    }

    fn wait(&mut self, verb: Verb, ticket: Self::Ticket) -> Result<Reply, String> {
        match verb {
            Verb::Read => self.wait_read(ticket).map(Reply::Read),
            Verb::Write => self.wait_write(ticket).map(Reply::Write),
            Verb::Agg => self
                .wait_aggregate(ticket)
                .map(|o| Reply::Agg { answer: o.answer, refreshed: o.refreshed.len() }),
        }
        .map_err(|e| e.to_string())
    }
}

impl Door for RuntimeHandle<String> {
    type Ticket = apcache_runtime::Ticket;

    fn submit(&mut self, op: &Op, keys: &[String], now: u64) -> Result<Self::Ticket, String> {
        let r = match *op {
            Op::Read { key, delta } => {
                self.submit_read(&keys[key as usize], constraint(delta), now)
            }
            Op::Write { key, value } => self.submit_write(&keys[key as usize], value, now),
            Op::Agg { delta, .. } => {
                self.submit_aggregate(AggregateKind::Sum, keys, constraint(delta), now)
            }
        };
        r.map_err(|e| e.to_string())
    }

    fn wait(&mut self, _verb: Verb, ticket: Self::Ticket) -> Result<Reply, String> {
        match self.wait_ticket(ticket).map_err(|e| e.to_string())? {
            Outcome::Read(r) => Ok(Reply::Read(r)),
            Outcome::Write(w) => Ok(Reply::Write(w)),
            Outcome::Aggregate(a) => {
                Ok(Reply::Agg { answer: a.answer, refreshed: a.refreshed.len() })
            }
            other => Err(format!("unexpected outcome {other:?}")),
        }
    }
}

/// The in-process store answers at submit time; "waiting" hands the
/// answer back.
impl Door for ShardedStore<String> {
    type Ticket = Reply;

    fn submit(&mut self, op: &Op, keys: &[String], now: u64) -> Result<Reply, String> {
        let r = match *op {
            Op::Read { key, delta } => {
                self.read(&keys[key as usize], constraint(delta), now).map(Reply::Read)
            }
            Op::Write { key, value } => {
                self.write(&keys[key as usize], value, now).map(Reply::Write)
            }
            Op::Agg { delta, .. } => self
                .aggregate(AggregateKind::Sum, keys, constraint(delta), now)
                .map(|o| Reply::Agg { answer: o.answer, refreshed: o.refreshed.len() }),
        };
        r.map_err(|e| e.to_string())
    }

    fn wait(&mut self, _verb: Verb, ticket: Reply) -> Result<Reply, String> {
        Ok(ticket)
    }
}

/// Nanoseconds since a run's clock origin.
#[derive(Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    pub fn new() -> Clock {
        Clock(Instant::now())
    }

    pub fn ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// The oracle's tolerance: answers are computed in f64 by the program in
/// another summation order than the generator's.
fn slack(truth: f64) -> f64 {
    1e-9 * truth.abs().max(1.0)
}

/// Whether `answer` contains `truth` and is no wider than `delta`.
pub fn answer_ok(answer: &Interval, truth: f64, delta: f64) -> bool {
    let tol = slack(truth);
    answer.lo() - tol <= truth && truth <= answer.hi() + tol && answer.width() <= delta + tol
}

/// What one pass of the generator observed.
#[derive(Default)]
pub struct Record {
    /// Latency in µs per verb (see [`Record::lat`]), submit→wait, in
    /// harvest order.
    by_verb: [Vec<f64>; 3],
    /// Every op's latency in µs, in harvest order.
    pub all: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub vr: u64,
    pub qr: u64,
    pub reads: u64,
    pub writes: u64,
    pub aggs: u64,
    pub hits: u64,
    pub violations: u64,
    pub first_problem: Option<String>,
    /// Wall time of the pass, seconds.
    pub elapsed_s: f64,
    /// Seconds taken by each successive block of [`BLOCK_OPS`] harvested
    /// ops.
    pub block_s: Vec<f64>,
}

/// Ops per throughput block: the run's rate is the median block rate, so
/// a burst of outside load or a cluster of stalls moves one block, not
/// the figure.
pub const BLOCK_OPS: u64 = 2_000;

impl Record {
    /// Fold a later pass into this record.
    pub fn absorb(&mut self, other: Record) {
        for (mine, theirs) in self.by_verb.iter_mut().zip(other.by_verb) {
            mine.extend(theirs);
        }
        self.all.extend(other.all);
        self.block_s.extend(other.block_s);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.vr += other.vr;
        self.qr += other.qr;
        self.reads += other.reads;
        self.writes += other.writes;
        self.aggs += other.aggs;
        self.hits += other.hits;
        self.violations += other.violations;
        self.elapsed_s += other.elapsed_s;
        if self.first_problem.is_none() {
            self.first_problem = other.first_problem;
        }
    }

    fn violation(&mut self, what: String) {
        self.violations += 1;
        self.first_problem.get_or_insert(what);
    }

    /// The latencies (µs) of one verb, in harvest order.
    pub fn lat(&self, verb: Verb) -> &[f64] {
        &self.by_verb[verb_slot(verb)]
    }

    pub fn completed(&self) -> u64 {
        self.attempted - self.failed
    }

    /// Median over blocks of ops per second; the whole pass's mean rate
    /// when it was shorter than two blocks.
    pub fn ops_per_s(&self) -> f64 {
        if self.block_s.len() < 2 {
            return self.completed() as f64 / self.elapsed_s;
        }
        let rates: Vec<f64> = self.block_s.iter().map(|s| BLOCK_OPS as f64 / s).collect();
        crate::stats::median(&rates)
    }
}

fn verb_slot(verb: Verb) -> usize {
    match verb {
        Verb::Read => 0,
        Verb::Write => 1,
        Verb::Agg => 2,
    }
}

/// Optional instrumentation of a pass.
pub struct Probe<'a> {
    pub clock: Clock,
    /// Each write's submit time (ns), indexed by stream step, for push
    /// latency.
    pub write_submits: Option<&'a [AtomicU64]>,
    /// When set, the pass records an `op` span per op with `submit` and
    /// `wait` children.
    pub spans: Option<&'a mut Vec<Span>>,
}

/// Drive `steps` through `door`, keeping at most `window` ops in flight
/// and harvesting the oldest first.
pub fn drive<D: Door>(
    door: &mut D,
    keys: &[String],
    steps: &[Step],
    window: usize,
    probe: &mut Probe<'_>,
) -> Record {
    struct InFlight<T> {
        ticket: T,
        index: usize,
        start: u64,
        span: Option<usize>,
    }
    let clock = probe.clock;
    let mut rec = Record::default();
    let mut agg_keys: Vec<String> = vec![String::new(); AGG_KEYS];
    let mut pending: VecDeque<InFlight<D::Ticket>> = VecDeque::with_capacity(window);
    let began = clock.ns();
    let mut block_start = began;
    let mut harvested = 0u64;

    let harvest = |door: &mut D,
                   slot: InFlight<D::Ticket>,
                   rec: &mut Record,
                   spans: &mut Option<&mut Vec<Span>>,
                   harvested: &mut u64,
                   block_start: &mut u64| {
        let step = &steps[slot.index];
        let verb = step.op.verb();
        let wait_start = clock.ns();
        let reply = door.wait(verb, slot.ticket);
        let end = clock.ns();
        *harvested += 1;
        if harvested.is_multiple_of(BLOCK_OPS) {
            rec.block_s.push((end - *block_start) as f64 / 1e9);
            *block_start = end;
        }
        if let (Some(spans), Some(parent)) = (spans.as_deref_mut(), slot.span) {
            let id = now_of(slot.index);
            spans.push(Span { name: "wait", start: wait_start, end, parent: Some(parent), id });
            spans[parent].end = end;
        }
        let reply = match reply {
            Ok(reply) => reply,
            Err(e) => {
                rec.failed += 1;
                rec.first_problem.get_or_insert(format!("op {} failed: {e}", slot.index));
                return;
            }
        };
        let us = (end - slot.start) as f64 / 1_000.0;
        rec.by_verb[verb_slot(verb)].push(us);
        rec.all.push(us);
        match (step.op, reply) {
            (Op::Read { delta, .. }, Reply::Read(r)) => {
                rec.reads += 1;
                if r.refreshed {
                    rec.qr += 1;
                } else {
                    rec.hits += 1;
                }
                if !answer_ok(&r.answer.interval(), step.truth, delta) {
                    rec.violation(format!(
                        "op {}: read answer {:?} vs truth {} at δ={delta}",
                        slot.index, r.answer, step.truth
                    ));
                }
            }
            (Op::Write { .. }, Reply::Write(w)) => {
                rec.writes += 1;
                rec.vr += w.refreshes as u64;
            }
            (Op::Agg { delta, .. }, Reply::Agg { answer, refreshed }) => {
                rec.aggs += 1;
                rec.qr += refreshed as u64;
                if !answer_ok(&answer, step.truth, delta) {
                    rec.violation(format!(
                        "op {}: SUM answer {answer:?} vs truth {} at δ={delta}",
                        slot.index, step.truth
                    ));
                }
            }
            _ => rec.violation(format!("op {}: reply of the wrong verb", slot.index)),
        }
    };

    for (index, step) in steps.iter().enumerate() {
        if pending.len() >= window {
            let slot = pending.pop_front().expect("window is full");
            harvest(door, slot, &mut rec, &mut probe.spans, &mut harvested, &mut block_start);
        }
        let now = now_of(index);
        let op_keys: &[String] = match &step.op {
            Op::Agg { keys: picked, .. } => {
                for (dst, &k) in agg_keys.iter_mut().zip(picked) {
                    dst.clone_from(&keys[k as usize]);
                }
                &agg_keys
            }
            _ => keys,
        };
        let start = clock.ns();
        if let (Some(submits), Op::Write { .. }) = (probe.write_submits, &step.op) {
            // Release pairs with the push collector's Acquire load.
            submits[index].store(start, Ordering::Release);
        }
        rec.attempted += 1;
        let ticket = door.submit(&step.op, op_keys, now);
        let end = clock.ns();
        let span = probe.spans.as_deref_mut().map(|spans| {
            let parent = spans.len();
            spans.push(Span { name: "op", start, end, parent: None, id: now });
            spans.push(Span { name: "submit", start, end, parent: Some(parent), id: now });
            parent
        });
        match ticket {
            Ok(ticket) => pending.push_back(InFlight { ticket, index, start, span }),
            Err(e) => {
                rec.failed += 1;
                rec.first_problem.get_or_insert(format!("op {index} refused: {e}"));
            }
        }
    }
    while let Some(slot) = pending.pop_front() {
        harvest(door, slot, &mut rec, &mut probe.spans, &mut harvested, &mut block_start);
    }
    rec.elapsed_s = (clock.ns() - began) as f64 / 1e9;
    rec
}
