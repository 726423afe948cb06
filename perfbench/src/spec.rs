//! The three workloads and their seeded op streams.
//!
//! The generator is the only writer, so while it builds a stream it knows
//! every key's true value at every point of it: each step carries the
//! value the oracle expects (a read's true value, an aggregate's true
//! sum, a write's sent value).

use apcache_core::Rng;

/// Keys summed by one aggregate.
pub const AGG_KEYS: usize = 16;

/// One client verb, over key indices.
#[derive(Debug, Clone, Copy)]
pub enum Op {
    Read { key: u32, delta: f64 },
    Write { key: u32, value: f64 },
    Agg { keys: [u32; AGG_KEYS], delta: f64 },
}

/// The verbs the benchmark times, in report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verb {
    Read,
    Write,
    Agg,
}

impl Op {
    pub fn verb(&self) -> Verb {
        match self {
            Op::Read { .. } => Verb::Read,
            Op::Write { .. } => Verb::Write,
            Op::Agg { .. } => Verb::Agg,
        }
    }
}

/// One op of a stream plus what the oracle expects of its answer.
#[derive(Debug, Clone, Copy)]
pub struct Step {
    pub op: Op,
    /// Read: the key's true value. Aggregate: the true SUM. Write: the
    /// value sent (what a push it causes must contain).
    pub truth: f64,
}

/// A workload's shape: how the fleet is built and what the generator
/// sends. All workloads are closed-loop over loopback TCP.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub keys: u32,
    /// Requests one generator connection keeps in flight.
    pub window: usize,
    /// Mix in percent; the rest are SUM aggregates.
    pub read_pct: u64,
    pub write_pct: u64,
    pub read_delta: f64,
    pub agg_delta: f64,
    /// A second connection on its own thread holds a `PushFilter::Always`
    /// subscription on every key, and the fleet spools to disk.
    pub subscribe_all: bool,
    /// Ops in the timed phase per second of `--seconds`: a fixed op count
    /// per run, sized so a run lasts about that long on a 2-core host.
    pub ops_per_second: u64,
    /// Fresh stacks per run, each set up (one `setup_s` sample) and then
    /// serving its own seeded share of the run's ops. The figures are
    /// medians over them: how the scheduler happens to place a stack's
    /// threads moves a pipelined stack's rate by ±15%, so pipelined
    /// workloads take many cheap passes; `point_call` holds steady with
    /// few, and each of its set-ups costs seconds.
    pub passes: usize,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "point_call",
        keys: 100_000,
        window: 1,
        read_pct: 90,
        write_pct: 10,
        read_delta: 10.0,
        agg_delta: 0.0,
        subscribe_all: false,
        ops_per_second: 20_000,
        passes: 5,
    },
    Workload {
        name: "pipe_mix",
        keys: 4_096,
        window: 32,
        read_pct: 40,
        write_pct: 40,
        read_delta: 4.0,
        agg_delta: 40.0,
        subscribe_all: false,
        ops_per_second: 70_000,
        passes: 40,
    },
    Workload {
        name: "push_fanout",
        keys: 4_096,
        window: 32,
        read_pct: 0,
        write_pct: 100,
        read_delta: 0.0,
        agg_delta: 0.0,
        subscribe_all: true,
        ops_per_second: 80_000,
        passes: 40,
    },
];

/// Shards (actor threads) of every workload's fleet. With one shard the
/// door answers a connection in request order; see `stall_probe` in the
/// traced run for what two shards do to a pipelined client.
pub const SHARDS: usize = 1;

/// The starting interval width of every key.
pub const INITIAL_WIDTH: f64 = 8.0;

/// Standard deviation of one random-walk step of a written value.
pub const STEP_SD: f64 = 2.0;

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The starting value of key `i` (a pure function of the index, so
    /// every peel builds the identical fleet).
    pub fn initial_value(&self, i: u32) -> f64 {
        1_000.0 + f64::from(i % 997)
    }

    /// The seeded op stream of `n` steps. Step `i` runs at logical time
    /// `i + 1`, so every write carries a distinct time that a push echoes.
    pub fn stream(&self, seed: u64, n: usize) -> Vec<Step> {
        let mut rng = Rng::seed_from_u64(seed);
        let mut values: Vec<f64> = (0..self.keys).map(|i| self.initial_value(i)).collect();
        let keys = u64::from(self.keys);
        (0..n)
            .map(|_| {
                let roll = rng.below(100);
                let key = rng.below(keys) as u32;
                if roll < self.read_pct {
                    Step {
                        op: Op::Read { key, delta: self.read_delta },
                        truth: values[key as usize],
                    }
                } else if roll < self.read_pct + self.write_pct {
                    let value = values[key as usize] + rng.normal_with(0.0, STEP_SD);
                    values[key as usize] = value;
                    Step { op: Op::Write { key, value }, truth: value }
                } else {
                    let mut picked = [0u32; AGG_KEYS];
                    let mut n = 0;
                    while n < AGG_KEYS {
                        let k = rng.below(keys) as u32;
                        if !picked[..n].contains(&k) {
                            picked[n] = k;
                            n += 1;
                        }
                    }
                    let truth = picked.iter().map(|&k| values[k as usize]).sum();
                    Step { op: Op::Agg { keys: picked, delta: self.agg_delta }, truth }
                }
            })
            .collect()
    }
}

/// Logical time of stream step `i`.
pub fn now_of(i: usize) -> u64 {
    i as u64 + 1
}

/// Stream index of logical time `now` (the inverse of [`now_of`]).
pub fn index_of(now: u64) -> Option<usize> {
    now.checked_sub(1).map(|i| i as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let w = Workload::by_name("pipe_mix").unwrap();
        let (a, b) = (w.stream(7, 2_000), w.stream(7, 2_000));
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(format!("{x:?}"), format!("{y:?}"));
        }
        assert_ne!(format!("{:?}", a[..50].to_vec()), format!("{:?}", w.stream(8, 50)));
    }

    #[test]
    fn truths_follow_the_writes() {
        let w = Workload::by_name("pipe_mix").unwrap();
        let stream = w.stream(3, 5_000);
        let mut values: Vec<f64> = (0..w.keys).map(|i| w.initial_value(i)).collect();
        for step in &stream {
            match step.op {
                Op::Read { key, .. } => assert_eq!(step.truth, values[key as usize]),
                Op::Write { key, value } => values[key as usize] = value,
                Op::Agg { keys, .. } => {
                    let sum: f64 = keys.iter().map(|&k| values[k as usize]).sum();
                    assert_eq!(step.truth, sum);
                }
            }
        }
    }

    #[test]
    fn logical_times_round_trip() {
        assert_eq!(index_of(now_of(41)), Some(41));
        assert_eq!(index_of(0), None);
    }
}
