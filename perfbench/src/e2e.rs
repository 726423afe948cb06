//! The untraced run: the end-to-end metrics a user of the TCP door sees.

use std::net::Shutdown;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64};
use std::thread;
use std::time::Instant;

use crate::gen::{drive, Clock, Probe, Record};
use crate::report::{cpu_ticks, peak_rss_mb, steal_frac, Report};
use crate::spec::{Step, Verb, Workload, SHARDS};
use crate::stack::{collect_remote, remove_scratch, scratch_root, PushBoard, Pushes, Stack};
use crate::stats::{chunked_percentile, median, Span};
use crate::Args;

/// The op-stream seed of pass `pass` of a run seeded `seed`.
pub fn pass_seed(seed: u64, pass: usize) -> u64 {
    seed.wrapping_add((pass as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The key names of a workload.
pub fn key_names(wl: &Workload) -> Vec<String> {
    (0..wl.keys).map(|i| format!("sensor/{i:06}")).collect()
}

/// Print the run's shape: what was driven, how, and on what build.
pub fn describe(args: &Args, ops: usize, stack: &Stack) {
    let wl = &args.workload;
    let cpus = thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    println!(
        "workload={} seed={} ops={ops} passes={} keys={} window={} connections={} \
         transport=tcp {} -> {} profile={profile} cpus={cpus}",
        wl.name,
        args.seed,
        wl.passes,
        wl.keys,
        wl.window,
        if wl.subscribe_all { 2 } else { 1 },
        stack.local,
        stack.peer,
    );
}

/// One timed pass of `steps` over a set-up stack: the generator on this
/// thread, and for `push_fanout` the push collector on a second one.
pub fn timed_pass(
    wl: &Workload,
    stack: &mut Stack,
    keys: &[String],
    steps: &[Step],
    spans: Option<&mut Vec<Span>>,
) -> (Record, Pushes) {
    let write_submits: Vec<AtomicU64> = if wl.subscribe_all {
        steps.iter().map(|_| AtomicU64::new(0)).collect()
    } else {
        Vec::new()
    };
    let clock = Clock::new();
    let board =
        PushBoard { steps, write_submits: &write_submits, clock, received: AtomicU64::new(0) };
    let done = AtomicBool::new(false);
    let mut probe =
        Probe { clock, write_submits: wl.subscribe_all.then_some(write_submits.as_slice()), spans };
    thread::scope(|s| {
        let board = &board;
        let collector = stack
            .subscriber
            .take()
            .map(|(mut sub, socket)| (s.spawn(move || collect_remote(board, &mut sub)), socket));
        let rec = drive(&mut stack.client, keys, steps, wl.window, &mut probe);
        let pushes = match collector {
            Some((handle, socket)) => {
                // Every write was answered, so every push it caused is
                // already queued at the door; wait for them to land.
                board.await_pushes(rec.vr, &done);
                let _ = socket.shutdown(Shutdown::Both);
                handle.join().expect("push collector panicked")
            }
            None => Pushes::default(),
        };
        (rec, pushes)
    })
}

/// Fold one pass's answers, its push stream (when it had a subscriber)
/// and the drained fleet's refresh counts into the oracle verdict.
pub fn check(report: &mut Report, rec: &Record, pushes: Option<&Pushes>, vr: u64, qr: u64) {
    let mut problems = Vec::new();
    if rec.violations > 0 {
        problems.push(format!("{} wrong answers, first: {:?}", rec.violations, rec.first_problem));
    }
    if let Some(p) = pushes {
        if p.violations > 0 {
            problems.push(format!("{} wrong pushes, first: {:?}", p.violations, p.first_violation));
        }
        // Every escaping write changes its key's interval, and every key
        // is watched: one push each, no more, no fewer.
        if p.received != rec.vr {
            problems.push(format!("{} pushes for {} escaping writes", p.received, rec.vr));
        }
    }
    if (vr, qr) != (rec.vr, rec.qr) {
        problems.push(format!(
            "store counted VR={vr} QR={qr}, answers showed VR={} QR={}",
            rec.vr, rec.qr
        ));
    }
    for p in &problems {
        println!("ORACLE VIOLATION: {p}");
    }
    report.correct &= problems.is_empty();
    report.attempted += rec.attempted;
    report.failed += rec.failed;
}

pub fn run(args: &Args) -> Result<Report, String> {
    let scratch = scratch_root();
    let report = passes(args, &scratch);
    remove_scratch(&scratch)?;
    report
}

/// Every pass of the untraced run, with its spool directories under
/// `scratch`.
fn passes(args: &Args, scratch: &Path) -> Result<Report, String> {
    let wl = args.workload;
    let keys = key_names(&wl);
    let n = (wl.ops_per_second * args.seconds) as usize;
    let share = n / wl.passes;
    let mut report = Report::new();
    let mut setup_s = Vec::with_capacity(wl.passes);
    let mut rec = Record::default();
    let mut pushes = Pushes::default();
    let mut peak_mb = f64::NAN;
    let ticks = cpu_ticks();
    for pass in 0..wl.passes {
        let steps = wl.stream(pass_seed(args.seed, pass), share);
        let spool = wl.subscribe_all.then(|| scratch.join(format!("spool-{pass}")));
        let began = Instant::now();
        let mut stack = Stack::up(&wl, &keys, SHARDS, spool)?;
        setup_s.push(began.elapsed().as_secs_f64());
        if pass == 0 {
            describe(args, n, &stack);
        }
        let (r, p) = timed_pass(&wl, &mut stack, &keys, &steps, None);
        let store = stack.down()?;
        let totals = *store.metrics().merged().totals();
        drop(store);
        check(&mut report, &r, wl.subscribe_all.then_some(&p), totals.vr_count, totals.qr_count);
        rec.absorb(r);
        pushes.absorb(p);
        if pass == 0 {
            // Later passes reuse (or not) what the allocator kept from
            // earlier ones, which would make the high-water mark a matter
            // of chance; the first pass alone is repeatable.
            peak_mb = peak_rss_mb();
        }
    }
    let steal = steal_frac(ticks, cpu_ticks());

    report.metric("setup_s", median(&setup_s), "s", Some(setup_s.len()));
    report.metric("ops_per_s", rec.ops_per_s(), "1/s", Some(rec.completed() as usize));
    report.pct("op_p50_us", chunked_percentile(&rec.all, 0.50), "us");
    report.pct("write_p50_us", chunked_percentile(rec.lat(Verb::Write), 0.50), "us");
    let refreshes = (rec.vr + rec.qr) as f64 / rec.completed() as f64;
    report.metric("refreshes_per_op", refreshes, "count", Some(rec.completed() as usize));
    report.metric("peak_rss_mb", peak_mb, "MiB", None);
    verb_notes(&mut report, &rec, &pushes);
    report.note("host.steal_frac", Some(steal), "ratio", None);
    Ok(report)
}

/// The figures the JSON object leaves out, printed with their sample
/// counts: the p99s (host steal moves them too far to bound), the
/// percentiles of the verbs only some workloads issue, and the failure
/// share.
pub fn verb_notes(report: &mut Report, rec: &Record, pushes: &Pushes) {
    for (name, lat) in [("op", &rec.all[..]), ("write", rec.lat(Verb::Write))] {
        let p = chunked_percentile(lat, 0.99);
        report.note(&format!("{name}_p99_us"), p.value, "us", Some(p.n));
    }
    let verbs =
        [("read", rec.lat(Verb::Read)), ("agg", rec.lat(Verb::Agg)), ("push", &pushes.lat[..])];
    for (verb, lat) in verbs {
        if lat.is_empty() {
            continue;
        }
        for (q, tag) in [(0.50, "p50"), (0.99, "p99")] {
            let p = chunked_percentile(lat, q);
            report.note(&format!("{verb}_{tag}_us"), p.value, "us", Some(p.n));
        }
    }
    let failed = rec.failed as f64 / rec.attempted as f64;
    report.note("failed_frac", Some(failed), "ratio", Some(rec.attempted as usize));
}
