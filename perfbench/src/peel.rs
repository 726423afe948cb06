//! The traced run: replay the same seeded op stream, with the same
//! window, one layer down at a time, and explain the TCP door's latency
//! by each layer's self time (its time minus the time of the layer below):
//!
//! 1. TCP door, untraced (the reference for `trace.overhead_pct`);
//! 2. TCP door with spans around every `submit_*`/`wait_*` call, plus the
//!    door's `/metrics` counters and the cost of rendering them;
//! 3. the reactor over in-process loopback streams (no kernel socket);
//! 4. the runtime handle in-process (no wire, no reactor);
//! 5. the sharded store in-process (no runtime), without and then with
//!    the spool;
//! 6. the codec alone, over the run's own request and response frames.
//!
//! At θ = 1 every peel must count the same value- and query-initiated
//! refreshes, or the run fails: that proves each peel timed the same work.

use std::fs::{self, File};
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64};
use std::thread;
use std::time::Instant;

use apcache_core::Rng;
use apcache_reactor::{Reactor, ReactorConfig};
use apcache_runtime::{AggregateKind, Outcome, PushFilter, Runtime, RuntimeHandle, ShardedStore};
use apcache_store::{Constraint, KeyMetrics};
use apcache_wire::{
    decode_frame, encode_framed, loopback_streams, LoopbackStream, RemoteStoreClient,
    StreamTransport, WireMessage, WireRequest, WireResponse, VERSION,
};

use crate::e2e::{check, describe, key_names, pass_seed, timed_pass, verb_notes};
use crate::gen::{drive, Clock, Probe, Record};
use crate::report::{cpu_ticks, steal_frac, Report};
use crate::spec::{now_of, Op, Step, Workload, AGG_KEYS, SHARDS};
use crate::stack::{
    collect_remote, collect_runtime, fleet, remove_scratch, scratch_root, subscribe_all, warm_up,
    PushBoard, Pushes, Stack, CLIENT_WINDOW,
};
use crate::stats::{median, self_ns, Span};
use crate::Args;

/// Where the traced TCP pass's spans are written, relative to the
/// checkout root.
const SPAN_DIR: &str = ".bench_out";

/// Renders of `/metrics` timed after the traced pass.
const SCRAPES: usize = 5;

/// Refresh counts one peel produced (store totals, warm-up excluded).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Counts {
    vr: u64,
    qr: u64,
}

fn counts(m: &KeyMetrics) -> Counts {
    Counts { vr: m.vr_count, qr: m.qr_count }
}

/// Sum of every sample of `family` in a Prometheus text exposition whose
/// label set contains `label` (every sample when `label` is empty).
fn sum_family(text: &str, family: &str, label: &str) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (series, value) = l.rsplit_once(' ')?;
            let name = series.split('{').next()?;
            (name == family && series.contains(label)).then(|| value.parse::<f64>().ok())?
        })
        .sum()
}

/// Median settle time (µs) of the runtime's per-verb latency histograms
/// between two scrapes, interpolated within its bucket.
fn settle_p50_us(before: &str, after: &str) -> Option<f64> {
    // (upper bound, cumulative count) per bucket, summed over verbs.
    let buckets = |text: &str| -> Vec<(f64, f64)> {
        let mut by_le: Vec<(f64, f64)> = Vec::new();
        for l in text.lines().filter(|l| l.starts_with("apcache_verb_latency_seconds_bucket{")) {
            let Some((series, value)) = l.rsplit_once(' ') else { continue };
            let Some(le) = series.split("le=\"").nth(1).and_then(|s| s.split('"').next()) else {
                continue;
            };
            let le = if le == "+Inf" { f64::INFINITY } else { le.parse().unwrap_or(f64::NAN) };
            let count: f64 = value.parse().unwrap_or(0.0);
            match by_le.iter_mut().find(|(b, _)| *b == le) {
                Some(slot) => slot.1 += count,
                None => by_le.push((le, count)),
            }
        }
        by_le.sort_by(|a, b| a.0.total_cmp(&b.0));
        by_le
    };
    let (b0, b1) = (buckets(before), buckets(after));
    let delta: Vec<(f64, f64)> = b1
        .iter()
        .map(|&(le, c)| (le, c - b0.iter().find(|(l, _)| *l == le).map_or(0.0, |x| x.1)))
        .collect();
    let total = delta.last()?.1;
    let half = total / 2.0;
    let mut prev = (0.0, 0.0);
    for &(le, cum) in &delta {
        if cum >= half && total > 0.0 {
            if !le.is_finite() {
                return Some(prev.0 * 1e6);
            }
            let share = if cum > prev.1 { (half - prev.1) / (cum - prev.1) } else { 1.0 };
            return Some((prev.0 + share * (le - prev.0)) * 1e6);
        }
        prev = (le, cum);
    }
    None
}

/// Ops the delayed-ACK probe replays.
const STALL_PROBE_OPS: usize = 8_000;

/// An op that took this long waited for the client's delayed-ACK timer
/// (40 ms); nothing else in the stack takes that long at this load.
const STALL_US: f64 = 30_000.0;

/// The delayed-ACK probe: the stream's first ops over the TCP door in
/// front of a 2-shard fleet, at the workload's window, without
/// subscribers or spool. Replies from two shards can overtake each other.
/// When the oldest reply is written behind a younger one that the client
/// has not acknowledged yet, it waits for the client's delayed ACK,
/// because the door does not set `TCP_NODELAY` on accepted sockets.
/// Returns the share of ops that waited that long, and the probe's rate.
fn stall_probe(wl: &Workload, keys: &[String], steps: &[Step]) -> Result<(f64, f64), String> {
    let probe = Workload { subscribe_all: false, ..*wl };
    let steps = &steps[..steps.len().min(STALL_PROBE_OPS)];
    let mut stack = Stack::up(&probe, keys, 2, None)?;
    let (rec, _) = timed_pass(&probe, &mut stack, keys, steps, None);
    stack.down()?;
    let stalled = rec.all.iter().filter(|&&us| us >= STALL_US).count();
    Ok((stalled as f64 / rec.completed().max(1) as f64, rec.completed() as f64 / rec.elapsed_s))
}

/// Pass 1: the TCP door, untraced, on a set-up `stack`, torn down after.
fn tcp_pass(
    wl: &Workload,
    mut stack: Stack,
    keys: &[String],
    steps: &[Step],
) -> Result<(Record, Pushes, Counts), String> {
    let (rec, pushes) = timed_pass(wl, &mut stack, keys, steps, None);
    let c = counts(stack.down()?.metrics().merged().totals());
    Ok((rec, pushes, c))
}

/// Pass 3: the same reactor core over in-process loopback streams.
fn loopback_pass(
    wl: &Workload,
    keys: &[String],
    steps: &[Step],
    spool: Option<&Path>,
) -> Result<(Record, Pushes, Counts), String> {
    let runtime = Runtime::launch(fleet(wl, keys, SHARDS, spool)).map_err(|e| e.to_string())?;
    let reactor: Reactor<LoopbackStream> =
        Reactor::launch(&runtime.handle(), ReactorConfig::default()).map_err(|e| e.to_string())?;
    let connect = || {
        let (client_end, server_end) = loopback_streams();
        reactor.add_connection(server_end);
        RemoteStoreClient::<String, _>::with_window(StreamTransport::new(client_end), CLIENT_WINDOW)
    };
    let mut client = connect();
    let mut sub = None;
    if wl.subscribe_all {
        let mut s = connect();
        subscribe_all(&mut s, keys)?;
        sub = Some(s);
    }
    warm_up(&mut client, keys);

    let write_submits: Vec<AtomicU64> = steps.iter().map(|_| AtomicU64::new(0)).collect();
    let clock = Clock::new();
    let board =
        PushBoard { steps, write_submits: &write_submits, clock, received: AtomicU64::new(0) };
    let done = AtomicBool::new(false);
    let (rec, pushes) = thread::scope(|s| -> Result<(Record, Pushes), String> {
        let board = &board;
        let collector = sub.map(|mut sub| s.spawn(move || collect_remote(board, &mut sub)));
        let mut probe = Probe { clock, write_submits: Some(&write_submits), spans: None };
        let rec = drive(&mut client, keys, steps, wl.window, &mut probe);
        if collector.is_some() {
            board.await_pushes(rec.vr, &done);
        }
        // The shutdown stops the reactor; the subscriber's stream ends
        // when the drain closes it, which releases the collector.
        client.shutdown().map_err(|e| e.to_string())?;
        let pushes =
            collector.map_or_else(Pushes::default, |h| h.join().expect("collector panicked"));
        Ok((rec, pushes))
    })?;
    reactor.join();
    let store = runtime.into_store().map_err(|e| e.to_string())?;
    let c = counts(store.metrics().merged().totals());
    Ok((rec, pushes, c))
}

/// Pass 4: the runtime handle in-process, with `push_fanout`'s
/// subscriptions held by a second handle whose completions a second
/// thread harvests.
fn runtime_pass(
    wl: &Workload,
    keys: &[String],
    steps: &[Step],
    spool: Option<&Path>,
) -> Result<(Record, Pushes, Counts), String> {
    let runtime = Runtime::launch(fleet(wl, keys, SHARDS, spool)).map_err(|e| e.to_string())?;
    let mut handle = runtime.handle();
    let sub = runtime.handle();
    if wl.subscribe_all {
        let tickets = keys
            .iter()
            .map(|k| sub.submit_subscribe(k, PushFilter::Always, 0))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        for t in tickets {
            match sub.wait_ticket(t).map_err(|e| e.to_string())? {
                Outcome::Subscribed { .. } => {}
                other => return Err(format!("subscribe answered {other:?}")),
            }
        }
    }
    warm_up(&mut handle, keys);
    let write_submits: Vec<AtomicU64> = steps.iter().map(|_| AtomicU64::new(0)).collect();
    let clock = Clock::new();
    let board =
        PushBoard { steps, write_submits: &write_submits, clock, received: AtomicU64::new(0) };
    let done = AtomicBool::new(false);
    let (rec, pushes) = thread::scope(|s| {
        let (board, done, sub) = (&board, &done, &sub);
        let collector =
            wl.subscribe_all.then(|| s.spawn(move || collect_runtime(board, sub, done)));
        let mut probe = Probe { clock, write_submits: Some(&write_submits), spans: None };
        let rec = drive(&mut handle, keys, steps, wl.window, &mut probe);
        board.await_pushes(if collector.is_some() { rec.vr } else { 0 }, done);
        let pushes =
            collector.map_or_else(Pushes::default, |h| h.join().expect("collector panicked"));
        (rec, pushes)
    });
    drop((handle, sub));
    let store = runtime.into_store().map_err(|e| e.to_string())?;
    let c = counts(store.metrics().merged().totals());
    Ok((rec, pushes, c))
}

/// Pass 5: the sharded store in-process, one op at a time (it answers
/// synchronously, so a window would only queue), optionally spooling.
/// Also returns the spool's growth during the replay: (bytes, segments).
fn shard_pass(
    wl: &Workload,
    keys: &[String],
    steps: &[Step],
    spool: Option<&Path>,
) -> (Record, ShardedStore<String>, (u64, u64)) {
    let mut store = fleet(wl, keys, SHARDS, spool);
    warm_up(&mut store, keys);
    let footprint = || spool.map_or((0, 0), spool_footprint);
    let before = footprint();
    let mut probe = Probe { clock: Clock::new(), write_submits: None, spans: None };
    let rec = drive(&mut store, keys, steps, 1, &mut probe);
    let after = footprint();
    (rec, store, (after.0.saturating_sub(before.0), after.1.saturating_sub(before.1)))
}

/// SUM aggregates timed by [`agg_probe`].
const AGG_PROBES: usize = 2_000;

/// Median ns of a SUM over 16 distinct random keys at `Absolute(40)` on
/// the replayed store: the same probe on every workload, so the figure
/// exists where the stream itself sends no aggregates.
fn agg_probe(store: &mut ShardedStore<String>, keys: &[String], seed: u64, after: usize) -> f64 {
    let mut rng = Rng::seed_from_u64(seed ^ 0xA66);
    let mut picked: Vec<String> = Vec::with_capacity(AGG_KEYS);
    let mut per_agg = Vec::with_capacity(AGG_PROBES);
    for i in 0..AGG_PROBES {
        picked.clear();
        while picked.len() < AGG_KEYS {
            let k = &keys[rng.below(keys.len() as u64) as usize];
            if !picked.contains(k) {
                picked.push(k.clone());
            }
        }
        let now = now_of(after + i);
        let began = Instant::now();
        let r = store.aggregate(AggregateKind::Sum, &picked, Constraint::Absolute(40.0), now);
        per_agg.push(began.elapsed().as_nanos() as f64);
        std::hint::black_box(r.is_ok());
    }
    median(&per_agg)
}

/// Size in bytes and segment-file count of a spool directory tree.
fn spool_footprint(dir: &Path) -> (u64, u64) {
    let (mut bytes, mut segments) = (0, 0);
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in fs::read_dir(&d).into_iter().flatten().flatten() {
            let path = entry.path();
            match entry.metadata() {
                Ok(m) if m.is_dir() => stack.push(path),
                Ok(m) => {
                    bytes += m.len();
                    let name = entry.file_name();
                    let name = name.to_string_lossy();
                    if name.starts_with("seg-") && name.ends_with(".log") {
                        segments += 1;
                    }
                }
                Err(_) => {}
            }
        }
    }
    (bytes, segments)
}

/// Pass 6: encode and decode every request and its response frame, as
/// the client and the door each do once per op; median ns per op.
fn codec_pass(wl: &Workload, keys: &[String], steps: &[Step]) -> f64 {
    let mut store = fleet(wl, keys, SHARDS, None);
    let mut buf = Vec::with_capacity(1024);
    let mut per_op = Vec::with_capacity(steps.len());
    for (i, step) in steps.iter().enumerate() {
        let now = now_of(i);
        let (request, response) = match step.op {
            Op::Read { key, delta } => {
                let key = keys[key as usize].clone();
                let r = store.read(&key, Constraint::Absolute(delta), now);
                let request =
                    WireRequest::Read { key, constraint: Constraint::Absolute(delta), now };
                (request, r.map(WireResponse::Read))
            }
            Op::Write { key, value } => {
                let key = keys[key as usize].clone();
                let w = store.write(&key, value, now);
                (WireRequest::Write { key, value, now }, w.map(WireResponse::Write))
            }
            Op::Agg { keys: picked, delta } => {
                let ks: Vec<String> = picked.iter().map(|&k| keys[k as usize].clone()).collect();
                let c = Constraint::Absolute(delta);
                let a = store.aggregate(AggregateKind::Sum, &ks, c, now);
                let request = WireRequest::Aggregate {
                    kind: AggregateKind::Sum,
                    keys: ks,
                    constraint: c,
                    now,
                };
                let response =
                    a.map(|a| WireResponse::Aggregate { answer: a.answer, refreshed: a.refreshed });
                (request, response)
            }
        };
        let Ok(response) = response else { continue };
        let (request, response) = (WireMessage::Request(request), WireMessage::Response(response));
        let id = now;
        let began = Instant::now();
        for msg in [&request, &response] {
            buf.clear();
            encode_framed(VERSION, id, std::hint::black_box(msg), &mut buf);
            let frame = decode_frame::<String>(std::hint::black_box(&buf[4..]));
            std::hint::black_box(frame.is_ok());
        }
        per_op.push(began.elapsed().as_nanos() as f64);
    }
    median(&per_op)
}

/// Write the spans as tab-separated rows: index, name, start and end ns,
/// parent index (`-` for roots), op id (its logical time).
fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    let mut out = BufWriter::new(File::create(path)?);
    writeln!(out, "index\tname\tstart_ns\tend_ns\tparent\tid")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
        writeln!(out, "{i}\t{}\t{}\t{}\t{parent}\t{}", s.name, s.start, s.end, s.id)?;
    }
    out.flush()
}

/// Median span duration of `name`, µs.
fn span_median_us(spans: &[Span], name: &str) -> (f64, usize) {
    let d: Vec<f64> =
        spans.iter().filter(|s| s.name == name).map(|s| (s.end - s.start) as f64 / 1e3).collect();
    (median(&d), d.len())
}

/// Median self time of the `op` spans (time an op sat in the window
/// while the generator served other ops), µs.
fn queued_us(spans: &[Span]) -> f64 {
    let mut children: Vec<Vec<Span>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push(*s);
        }
    }
    let selfs: Vec<f64> = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.parent.is_none())
        .map(|(i, s)| self_ns(s, &children[i]) as f64 / 1e3)
        .collect();
    median(&selfs)
}

pub fn run(args: &Args) -> Result<Report, String> {
    let scratch = scratch_root();
    let report = peel(args, &scratch);
    remove_scratch(&scratch)?;
    report
}

/// Every pass of the traced run, with its spool directories under
/// `scratch`.
fn peel(args: &Args, scratch: &Path) -> Result<Report, String> {
    let wl = args.workload;
    let keys = key_names(&wl);
    // Every peel replays the stream the untraced run's first pass serves.
    let n = (wl.ops_per_second * args.seconds) as usize / wl.passes;
    let steps = wl.stream(pass_seed(args.seed, 0), n);
    let spool = |tag: &str| wl.subscribe_all.then(|| scratch.join(tag));
    let mut report = Report::new();
    let mut peels: Vec<(&str, Counts)> = Vec::new();

    // 1. TCP door, untraced: once before and once after the traced
    // pass, so that neither side of `trace.overhead_pct` is the
    // process's first, slower pass.
    let ticks = cpu_ticks();
    let watched = |p| wl.subscribe_all.then_some(p);
    let mut stack = Stack::up(&wl, &keys, SHARDS, spool("tcp-before"))?;
    describe(args, n, &stack);
    let (plain, plain_pushes, c) = tcp_pass(&wl, stack, &keys, &steps)?;
    check(&mut report, &plain, watched(&plain_pushes), c.vr, c.qr);
    peels.push(("tcp", c));

    // 2. TCP door, traced.
    stack = Stack::up(&wl, &keys, SHARDS, spool("tcp-traced"))?;
    let handle: RuntimeHandle<String> = stack.runtime.handle();
    let before = handle.render_exposition().map_err(|e| e.to_string())?;
    let mut spans = Vec::with_capacity(3 * steps.len());
    let (traced, pushes) = timed_pass(&wl, &mut stack, &keys, &steps, Some(&mut spans));
    let mut scrape_us = Vec::with_capacity(SCRAPES);
    let mut after = String::new();
    for _ in 0..SCRAPES {
        let began = Instant::now();
        after = handle.render_exposition().map_err(|e| e.to_string())?;
        scrape_us.push(began.elapsed().as_secs_f64() * 1e6);
    }
    drop(handle);
    let store = stack.down()?;
    let c = counts(store.metrics().merged().totals());
    drop(store);
    check(&mut report, &traced, watched(&pushes), c.vr, c.qr);
    peels.push(("tcp-traced", c));
    let span_path = Path::new(SPAN_DIR).join(format!("spans-{}-seed{}.tsv", wl.name, args.seed));
    write_spans(&span_path, &spans).map_err(|e| format!("{}: {e}", span_path.display()))?;
    println!("spans: {} written to {}", spans.len(), span_path.display());

    stack = Stack::up(&wl, &keys, SHARDS, spool("tcp-after"))?;
    let (again, again_pushes, c) = tcp_pass(&wl, stack, &keys, &steps)?;
    check(&mut report, &again, watched(&again_pushes), c.vr, c.qr);
    peels.push(("tcp-again", c));

    // 3-5. One layer down at a time.
    let (door, door_pushes, c) = loopback_pass(&wl, &keys, &steps, spool("door").as_deref())?;
    check(&mut report, &door, watched(&door_pushes), c.vr, c.qr);
    peels.push(("loopback-door", c));
    let (rt, rt_pushes, c) = runtime_pass(&wl, &keys, &steps, spool("runtime").as_deref())?;
    check(&mut report, &rt, watched(&rt_pushes), c.vr, c.qr);
    peels.push(("runtime", c));
    let (shard, mut store, _) = shard_pass(&wl, &keys, &steps, None);
    let totals = *store.metrics().merged().totals();
    check(&mut report, &shard, None, totals.vr_count, totals.qr_count);
    peels.push(("shard", counts(&totals)));
    let agg_ns = agg_probe(&mut store, &keys, args.seed, n);
    drop(store);
    let spool_dir = scratch.join("shard-spool");
    let (spooled, store, (spool_bytes, segments)) =
        shard_pass(&wl, &keys, &steps, Some(&spool_dir));
    let c = counts(store.metrics().merged().totals());
    drop(store);
    check(&mut report, &spooled, None, c.vr, c.qr);
    peels.push(("shard+spool", c));
    let codec_ns = codec_pass(&wl, &keys, &steps);
    let (stall_frac, stall_rate) = stall_probe(&wl, &keys, &steps)?;
    let steal = steal_frac(ticks, cpu_ticks());

    // The layer-peel cross-check.
    for (name, c) in &peels {
        println!("peel {name:<14} VR={} QR={}", c.vr, c.qr);
    }
    if peels.iter().any(|(_, c)| *c != peels[0].1) {
        println!("ORACLE VIOLATION: layer peels counted different refreshes");
        report.correct = false;
    }

    // Per-layer metrics.
    let ops = traced.completed() as f64;
    let med = |r: &Record| median(&r.all);
    let tcp_us = med(&traced);
    let door_us = med(&door);
    let runtime_us = med(&rt);
    // The shard layer as the fleet above it ran: spooling on push_fanout.
    let shard_ns = med(if wl.subscribe_all { &spooled } else { &shard }) * 1e3;
    let all_n = Some(traced.completed() as usize);
    let (submit_us, submits) = span_median_us(&spans, "submit");
    let (wait_us, waits) = span_median_us(&spans, "wait");
    report.metric("wire.submit_us", submit_us, "us", Some(submits));
    report.metric("wire.wait_us", wait_us, "us", Some(waits));
    report.metric("wire.queued_us", queued_us(&spans), "us", Some(submits));
    report.metric("wire.codec_ns", codec_ns, "ns", Some(steps.len()));
    let delta = |name: &str, label: &str| {
        sum_family(&after, name, label) - sum_family(&before, name, label)
    };
    let bytes = delta("apcache_wire_connection_bytes_total", "");
    report.metric("wire.bytes_per_op", bytes / ops, "bytes", all_n);
    report.metric("wire.tcp_self_us", tcp_us - door_us, "us", all_n);
    let probed = Some(steps.len().min(STALL_PROBE_OPS));
    report.metric("wire.delack_stall_frac", stall_frac, "ratio", probed);
    report.metric("reactor.door_us", door_us, "us", Some(door.completed() as usize));
    report.metric("reactor.self_us", door_us - runtime_us, "us", all_n);
    let wakeups = delta("apcache_reactor_wakeups_total", "");
    report.metric("reactor.wakeups_per_op", wakeups / ops, "count", all_n);
    let frames_out = delta("apcache_wire_frames_total", "dir=\"out\"");
    let coalesced = delta("apcache_push_frames_coalesced_total", "");
    report.metric(
        "reactor.coalesced_per_frame",
        coalesced / frames_out.max(1.0),
        "ratio",
        Some(frames_out as usize),
    );
    report.metric("runtime.op_us", runtime_us, "us", Some(rt.completed() as usize));
    report.metric("runtime.self_us", runtime_us - shard_ns / 1e3, "us", all_n);
    if let Some(settle) = settle_p50_us(&before, &after) {
        report.metric("runtime.settle_p50_us", settle, "us", all_n);
    }
    report.metric("shard.op_ns", shard_ns, "ns", Some(shard.completed() as usize));
    report.metric("shard.agg_ns", agg_ns, "ns", Some(AGG_PROBES));
    let hit = |r: &Record| r.hits as f64 / r.reads.max(1) as f64;
    report.metric(
        "store.vr_per_write",
        shard.vr as f64 / shard.writes.max(1) as f64,
        "ratio",
        Some(shard.writes as usize),
    );
    report.metric(
        "store.qr_per_read",
        shard.qr as f64 / (shard.reads + shard.aggs).max(1) as f64,
        "ratio",
        Some((shard.reads + shard.aggs) as usize),
    );
    report.metric("store.hit_frac", hit(&shard), "ratio", Some(shard.reads as usize));
    report.metric(
        "push.pushes_per_write",
        pushes.received as f64 / traced.writes.max(1) as f64,
        "ratio",
        Some(traced.writes as usize),
    );
    let writes = shard.writes.max(1) as f64;
    let spool_ns = (spooled.elapsed_s - shard.elapsed_s) * 1e9 / writes;
    report.metric("spool.write_self_ns", spool_ns, "ns", Some(shard.writes as usize));
    report.metric(
        "spool.bytes_per_write",
        spool_bytes as f64 / writes,
        "bytes",
        Some(shard.writes as usize),
    );
    report.metric("spool.segments", segments as f64, "count", Some(shard.writes as usize));
    report.metric("telemetry.scrape_us", median(&scrape_us), "us", Some(SCRAPES));
    let untraced_rate = (plain.ops_per_s() + again.ops_per_s()) / 2.0;
    let overhead = (untraced_rate - traced.ops_per_s()) / untraced_rate * 100.0;
    report.metric("trace.overhead_pct", overhead, "%", None);

    // End-to-end context for the table.
    report.note("tcp.ops_per_s", Some(untraced_rate), "1/s", Some(plain.completed() as usize));
    report.note("tcp.op_p50_us", Some(med(&plain)), "us", Some(plain.completed() as usize));
    report.note("tcp_traced.op_p50_us", Some(tcp_us), "us", all_n);
    verb_notes(&mut report, &plain, &plain_pushes);
    report.note("stall_probe.ops_per_s", Some(stall_rate), "1/s", probed);
    report.note("host.steal_frac", Some(steal), "ratio", None);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    const BEFORE: &str = "\
# TYPE apcache_wire_frames_total counter
apcache_wire_frames_total{dir=\"in\"} 10
apcache_wire_frames_total{dir=\"out\"} 12
apcache_verb_latency_seconds_bucket{verb=\"read\",le=\"0.00001\"} 0
apcache_verb_latency_seconds_bucket{verb=\"read\",le=\"0.00002\"} 0
apcache_verb_latency_seconds_bucket{verb=\"read\",le=\"+Inf\"} 0
";

    const AFTER: &str = "\
apcache_wire_frames_total{dir=\"in\"} 110
apcache_wire_frames_total{dir=\"out\"} 112
apcache_wire_frames_total_extra 5
apcache_verb_latency_seconds_bucket{verb=\"read\",le=\"0.00001\"} 0
apcache_verb_latency_seconds_bucket{verb=\"read\",le=\"0.00002\"} 60
apcache_verb_latency_seconds_bucket{verb=\"read\",le=\"+Inf\"} 60
apcache_verb_latency_seconds_bucket{verb=\"write\",le=\"0.00001\"} 0
apcache_verb_latency_seconds_bucket{verb=\"write\",le=\"0.00002\"} 20
apcache_verb_latency_seconds_bucket{verb=\"write\",le=\"+Inf\"} 20
";

    #[test]
    fn family_sums_match_whole_names_and_labels() {
        assert_eq!(sum_family(AFTER, "apcache_wire_frames_total", ""), 222.0);
        assert_eq!(sum_family(AFTER, "apcache_wire_frames_total", "dir=\"out\""), 112.0);
        assert_eq!(sum_family(BEFORE, "apcache_missing_total", ""), 0.0);
    }

    #[test]
    fn settle_median_interpolates_within_its_bucket() {
        // 80 settles between the scrapes, all in the (10, 20] µs bucket
        // and over two verbs: the 40th lies halfway through it.
        let p50 = settle_p50_us(BEFORE, AFTER).unwrap();
        assert!((p50 - 15.0).abs() < 1e-9, "{p50}");
        assert_eq!(settle_p50_us(BEFORE, BEFORE), None);
    }
}
