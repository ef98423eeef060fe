//! Deployment benchmark of the loopback `rcc-node` cluster.
//!
//! ```text
//! deploybench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run starts an n = 4, m = 2, batch-100, MAC deployment in this
//! process (`spawn_node` over `TcpTransport`, every node setting at its
//! default), sets it up several times to time set-up, drives the last one
//! with a seeded single-thread load generator for a warm-up and then
//! `--seconds` of measurement, checks the outputs, and prints every metric
//! by name and unit. The last line of standard output is one JSON object:
//! the gated end-to-end metrics with `--trace 0`, the per-layer metrics
//! with `--trace 1`. A failed check exits non-zero. `README.md` next to
//! this package documents the workloads and every metric.

#![forbid(unsafe_code)]

mod client;
mod cluster;
mod driver;
mod procfs;
mod replay;
mod stats;
mod workloads;

use client::Client;
use cluster::Deployment;
use driver::{window_result, Driver};
use procfs::Group;
use rcc_common::{ReplicaId, SystemConfig};
use rcc_network::{verify_identical_ledgers, verify_identical_orders, NodeReport};
use rcc_telemetry::Snapshot;
use stats::{median, ratio, summarize_us};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{Load, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 15;
/// The load every set-up offers, whatever the workload: one batch to each
/// instance at once, so the first round can be released as soon as both
/// coordinators commit it.
const SETUP_LOAD: Load = Load::Closed { per_instance: 1 };
/// Load offered before the measurement window opens.
const WARMUP_US: u64 = 1_000_000;
/// Longest wait after the window for the batches due in it to complete.
const DRAIN_US: u64 = 5_000_000;
/// Longest a set-up may take before the run fails.
const SETUP_LIMIT_US: u64 = 30_000_000;
/// The replica `crash-paced` kills: instance 1's initial coordinator.
const CRASHED: ReplicaId = ReplicaId(1);
/// The end-to-end metrics `BENCHMARK.json` gates, in print order.
const GATED: [&str; 4] = [
    "throughput_txn_s",
    "latency_p50_ms",
    "cpu_us_per_txn",
    "setup_s",
];
/// The node registry's per-burst stage histograms (`docs/OBSERVABILITY.md`).
const PIPELINE_STAGES: [&str; 3] = [
    "node.pipeline.verify_us",
    "node.pipeline.dispatch_us",
    "node.pipeline.execute_us",
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = BTreeMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [flag, value] if flag.starts_with("--") => {
                flags.insert(flag.as_str(), value.as_str());
            }
            _ => return Err(format!("expected `--flag value` pairs, got {pair:?}")),
        }
    }
    let get = |flag: &str| flags.get(flag).copied().ok_or(format!("missing {flag}"));
    let number = |flag: &str| -> Result<u64, String> {
        get(flag)?
            .parse()
            .map_err(|_| format!("{flag} expects a whole number"))
    };
    let name = get("--workload")?;
    let workload = workloads::by_name(name).ok_or_else(|| {
        let known: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}`; known: {}", known.join(", "))
    })?;
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace expects 0 or 1, got `{other}`")),
    };
    Ok(Args {
        workload,
        seed: number("--seed")?,
        seconds,
        trace,
    })
}

/// Named metrics with units, in print order.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push((name.into(), value, unit));
    }

    fn print(&self, title: &str) {
        println!("{title}:");
        for (name, value, unit) in &self.0 {
            println!("  {name:<40} {value:>16.4} {unit}");
        }
    }

    fn json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.json()
    )
}

/// A deployment with its generator, after set-up.
struct Up {
    deployment: Deployment,
    client: Client,
    driver: Driver,
    setup_s: f64,
}

/// Launches a deployment, connects the generator, and offers
/// [`SETUP_LOAD`] until the first batch completes. Set-up time runs from
/// before the first listener bind (just ahead of the first `spawn_node`) to
/// that completion, covering key generation, bind, peer dial, and edge
/// registration. The same offer on every workload keeps the workload's
/// schedule out of `setup_s`.
fn bring_up(system: &SystemConfig, args: &Args) -> Result<Up, String> {
    let epoch = Instant::now();
    let deployment = Deployment::launch(system, args.trace)?;
    let mut client = Client::new(system, &deployment.addrs, epoch);
    let source = workloads::Source::new(args.workload.mix, args.seed, system.batch_size);
    let mut driver = Driver::new(system, SETUP_LOAD, source, client.now_us());
    let completed = |d: &Driver| d.ops().iter().find_map(|op| op.completed_us);
    client.run(&mut driver, SETUP_LIMIT_US, |d| completed(d).is_some());
    let first = completed(&driver).ok_or("no batch completed during set-up")?;
    Ok(Up {
        deployment,
        client,
        driver,
        setup_s: first as f64 / 1e6,
    })
}

/// Sets up `SETUPS` times; every deployment but the last is checked and
/// torn down. Returns the last one and every set-up time.
fn set_up(system: &SystemConfig, args: &Args) -> Result<(Up, Vec<f64>), String> {
    let mut times = Vec::new();
    loop {
        let up = bring_up(system, args)?;
        times.push(up.setup_s);
        if times.len() == SETUPS {
            return Ok((up, times));
        }
        drop(up.client);
        let reports = up.deployment.shutdown()?;
        verify_identical_orders(&reports)
            .map_err(|e| format!("set-up {}: release orders diverge: {e}", times.len()))?;
    }
}

/// The `node.pipeline.*` histogram sums (µs) of one node's snapshot.
fn stage_sums(snapshot: &Snapshot) -> [u64; 3] {
    PIPELINE_STAGES.map(|stage| snapshot.histogram(stage).map_or(0, |h| h.sum))
}

/// The stage sums of every running node, added up.
fn pipeline_sums(deployment: &Deployment) -> [u64; 3] {
    let mut sums = [0u64; 3];
    for node in deployment.telemetry().iter().flatten() {
        let node = stage_sums(&node.snapshot());
        sums = std::array::from_fn(|i| sums[i] + node[i]);
    }
    sums
}

/// Pipeline time spent in the window. `start` is every node's sums when
/// the window opened, `live_end` the running nodes' sums when it closed,
/// and `killed_end` the killed incarnation's sums when it stopped: its
/// window share is `killed_end` minus its part of `start`, and a restarted
/// incarnation starts from zero.
fn pipeline_delta(start: [u64; 3], live_end: [u64; 3], killed_end: Option<[u64; 3]>) -> [u64; 3] {
    let killed = killed_end.unwrap_or([0; 3]);
    std::array::from_fn(|i| (live_end[i] + killed[i]).saturating_sub(start[i]))
}

/// Wire counters summed over replicas: (messages, bytes, receive wait ns).
fn wire_totals(deployment: &Deployment) -> [u64; 3] {
    use std::sync::atomic::Ordering::Relaxed;
    deployment.wires.iter().flatten().fold([0; 3], |acc, w| {
        [
            acc[0] + w.msgs.load(Relaxed),
            acc[1] + w.bytes.load(Relaxed),
            acc[2] + w.recv_wait_ns.load(Relaxed),
        ]
    })
}

/// Checks the deployment's final reports. `killed` is the crashed
/// incarnation's report, held to the same agreement checks.
fn check_reports(
    reports: &[NodeReport],
    killed: Option<&NodeReport>,
    healthy: bool,
) -> Result<(), String> {
    let mut all: Vec<NodeReport> = reports.to_vec();
    all.extend(killed.cloned());
    verify_identical_orders(&all).map_err(|e| format!("release orders diverge: {e}"))?;
    verify_identical_ledgers(&all).map_err(|e| format!("ledgers diverge: {e}"))?;
    if let Some(idle) = reports.iter().find(|r| r.executed_batches == 0) {
        return Err(format!("{} executed no batches", idle.replica));
    }
    let auth: u64 = all.iter().map(|r| r.auth_failures).sum();
    let decode: u64 = all.iter().map(|r| r.decode_failures).sum();
    if healthy && (auth > 0 || decode > 0) {
        return Err(format!(
            "healthy workload saw {auth} auth failures and {decode} decode failures"
        ));
    }
    Ok(())
}

/// Checks what the generator saw: every reply matched a batch it sent (its
/// digest is the generator's own `digest_batch` of that batch), verified,
/// and decoded.
fn check_generator(driver: &Driver, client: &Client) -> Result<(), String> {
    if driver.unknown_replies > 0 {
        return Err(format!(
            "{} replies carried a digest the generator never sent",
            driver.unknown_replies
        ));
    }
    let v = client.violations;
    if v.bad_tags > 0 || v.undecodable > 0 {
        return Err(format!(
            "{} replies failed MAC verification, {} frames did not decode",
            v.bad_tags, v.undecodable
        ));
    }
    Ok(())
}

/// The commit id when the checkout is a git work tree, else `none`.
fn commit_id() -> String {
    let read = |path: &str| std::fs::read_to_string(path).unwrap_or_default();
    let head = read(".git/HEAD");
    let id = match head.trim().strip_prefix("ref: ") {
        Some(reference) => {
            let loose = read(&format!(".git/{reference}"));
            if loose.trim().is_empty() {
                read(".git/packed-refs")
                    .lines()
                    .find(|l| l.ends_with(reference))
                    .and_then(|l| l.split(' ').next())
                    .unwrap_or_default()
                    .to_string()
            } else {
                loose
            }
        }
        None => head,
    };
    match id.trim() {
        "" => "none".into(),
        id => id.chars().take(12).collect(),
    }
}

/// Everything one run measured, ready to print.
struct Outcome {
    problems: Vec<String>,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
    end_to_end: Metrics,
    per_layer: Metrics,
}

/// OS accounting and node counters read at one edge of the window.
struct Sample {
    threads: BTreeMap<u32, procfs::ThreadSample>,
    process_ns: u64,
    machine: procfs::MachineCpu,
    pipeline: [u64; 3],
    wire: [u64; 3],
}

fn sample(deployment: &Deployment) -> Sample {
    Sample {
        threads: procfs::threads(),
        process_ns: procfs::process_cpu_ns().unwrap_or(0),
        machine: procfs::machine_cpu(),
        pipeline: pipeline_sums(deployment),
        wire: wire_totals(deployment),
    }
}

fn run(args: &Args) -> Result<Outcome, String> {
    let system = cluster::system();
    let window_us = args.seconds * 1_000_000;
    let (up, setups) = set_up(&system, args)?;
    let Up {
        deployment,
        mut client,
        mut driver,
        ..
    } = up;
    driver.set_load(args.workload.load, client.now_us());
    let warm_until = client.now_us() + WARMUP_US;
    client.run(&mut driver, warm_until, |_| false);

    let start = client.now_us();
    let end = start + window_us;
    driver.set_window(start, end);
    let generator: Vec<u32> = procfs::current_tid().into_iter().collect();
    let before = sample(&deployment);

    // crash-paced kills instance 1's coordinator three fifths into the
    // window, after most of the window has measured the healthy cluster,
    // and restarts it a fifth later. A helper thread does it so the
    // generator keeps its schedule while `shutdown` joins the node's
    // threads.
    let kill_at_us = start + window_us * 3 / 5;
    let (mut deployment, chaos) = if args.workload.crash {
        let epoch = Instant::now() - Duration::from_micros(client.now_us());
        let kill_at = epoch + Duration::from_micros(kill_at_us);
        let restart_at = kill_at + Duration::from_micros(window_us / 5);
        let mut deployment = deployment;
        let chaos = std::thread::Builder::new()
            .name("bench-chaos".into())
            .spawn(move || {
                std::thread::sleep(kill_at.saturating_duration_since(Instant::now()));
                let killed = deployment.kill(CRASHED);
                std::thread::sleep(restart_at.saturating_duration_since(Instant::now()));
                let restarted = deployment.restart(CRASHED);
                (deployment, killed, restarted)
            })
            .map_err(|e| format!("spawn chaos thread: {e}"))?;
        (None, Some(chaos))
    } else {
        (Some(deployment), None)
    };

    client.run(&mut driver, end, |_| false);

    let mut killed_report = None;
    if let Some(chaos) = chaos {
        let (back, killed, restarted) = chaos.join().map_err(|_| "chaos thread panicked")?;
        restarted?;
        deployment = Some(back);
        killed_report = Some(killed?);
    }
    let deployment = deployment.ok_or("no deployment after the window")?;
    let after = sample(&deployment);
    let pipeline = pipeline_delta(
        before.pipeline,
        after.pipeline,
        killed_report.as_ref().map(|k| stage_sums(&k.telemetry)),
    );
    let loadavg = procfs::loadavg();

    // Load continues while the batches due in the window finish: a batch
    // of one instance is released only once the other instance commits
    // the same round, and an unfed instance fills that round only after
    // σ rounds of lag.
    client.run(&mut driver, end + DRAIN_US, |d| d.owed_before(end) == 0);
    let drained_at = client.now_us();
    let reports = deployment.shutdown()?;

    let mut problems = Vec::new();
    if let Err(e) = check_reports(&reports, killed_report.as_ref(), !args.workload.crash) {
        problems.push(e);
    }
    if let Err(e) = check_generator(&driver, &client) {
        problems.push(e);
    }
    drop(client);

    let open = matches!(args.workload.load, Load::Open { .. });
    let outage_from = if args.workload.crash {
        kill_at_us
    } else {
        start
    };
    let mut res = window_result(driver.ops(), start, end, open, outage_from);
    if res.completed_batches < 2 {
        problems.push("fewer than two batches completed in the window".into());
    }
    // A batch that never completed misses every latency limit: it enters
    // the distribution with the longest wait it could have seen.
    for op in driver.ops() {
        if op.completed_us.is_none() && op.due_us >= start && op.due_us < end {
            res.latency_us.push(drained_at.saturating_sub(op.due_us));
        }
    }

    let latency = summarize_us(&res.latency_us);
    let late = summarize_us(&res.late_us);
    let attempts = driver.attempts();
    let cpu = procfs::group_delta(&before.threads, &after.threads, &generator);
    let program_ns =
        (after.process_ns.saturating_sub(before.process_ns)).saturating_sub(cpu.excluded_run_ns);
    let txns = res.completed_txns as f64;
    let batches = res.completed_batches as f64;
    let machine_total = after.machine.total.saturating_sub(before.machine.total) as f64;
    let share = |a: u64, b: u64| ratio(a.saturating_sub(b) as f64, machine_total);
    let steal = share(after.machine.steal, before.machine.steal);
    let idle = share(after.machine.idle, before.machine.idle);
    // The open loop fell behind when a batch went out more than one
    // interval after it was due.
    let schedule_valid = match args.workload.load {
        Load::Open { interval_us } => late.p99 * 1_000.0 <= interval_us as f64,
        Load::Closed { .. } => true,
    };

    let mut notes = vec![
        format!(
            "run: workload={} seed={} seconds={} trace={} load={:?}",
            args.workload.name, args.seed, args.seconds, args.trace as u8, args.workload.load
        ),
        format!(
            "env: nproc={} steal_frac={steal:.4} idle_frac={idle:.4} loadavg=[{loadavg}] \
             commit={} schedule_valid={schedule_valid}",
            std::thread::available_parallelism().map_or(0, |n| n.get()),
            commit_id(),
        ),
        format!("setup: seconds per set-up {setups:.4?}"),
        format!(
            "window: {} batches completed ({} txns), {} due, {} never completed; \
             attempts {} (rejected {}, refused {}, timed out {})",
            res.completed_batches,
            res.completed_txns,
            res.due,
            res.never_completed,
            attempts.attempted,
            attempts.rejected,
            attempts.refused,
            attempts.timed_out
        ),
        format!("completions per second: {:?}", res.per_second),
        format!(
            "latency: p50 {:.3} ms, p95 {:.3} ms, p99 {:.3} ms over {} batches",
            latency.p50, latency.p95, latency.p99, latency.count
        ),
    ];
    if !schedule_valid {
        notes.push("INVALID: the open-loop generator fell behind its schedule".into());
    }

    // Every end-to-end metric is printed; only `GATED` ones reach the
    // result line (README.md says why the others are not gated).
    let mut end_to_end = Metrics::default();
    end_to_end.add("throughput_txn_s", res.txns_per_s, "txn/s");
    end_to_end.add("latency_p50_ms", latency.p50, "ms");
    end_to_end.add("latency_p95_ms", latency.p95, "ms");
    end_to_end.add("latency_p99_ms", latency.p99, "ms");
    end_to_end.add(
        "cpu_us_per_txn",
        ratio(program_ns as f64 / 1_000.0, txns),
        "us",
    );
    end_to_end.add("setup_s", median(&setups), "s");
    end_to_end.add("failed_frac", attempts.failed_frac(), "frac");
    end_to_end.add("outage_ms", res.outage_us as f64 / 1_000.0, "ms");

    let mut per_layer = Metrics::default();
    if args.trace {
        let pl = &mut per_layer;
        let per_batch = |x: f64| ratio(x, batches);
        let delta = |i: usize, a: &[u64; 3], b: &[u64; 3]| a[i].saturating_sub(b[i]) as f64;
        for group in Group::ALL {
            let run = cpu.run_ns.get(&group).copied().unwrap_or(0) as f64 / 1_000.0;
            let wait = cpu.wait_ns.get(&group).copied().unwrap_or(0) as f64 / 1_000.0;
            pl.add(
                format!("{}.cpu_us_per_batch", group.label()),
                per_batch(run),
                "us",
            );
            pl.add(
                format!("{}.runq_wait_us_per_batch", group.label()),
                per_batch(wait),
                "us",
            );
        }
        let wait_ns = delta(2, &after.wire, &before.wire);
        pl.add(
            "node.mailbox.idle_frac",
            ratio(wait_ns, (system.n as u64 * window_us * 1_000) as f64),
            "frac",
        );
        for (stage, us) in ["verify", "dispatch", "execute"].iter().zip(pipeline) {
            pl.add(
                format!("node.pipeline.{stage}_us_per_batch"),
                per_batch(us as f64),
                "us",
            );
        }
        pl.add(
            "tcp.msgs_per_batch",
            per_batch(delta(0, &after.wire, &before.wire)),
            "count",
        );
        pl.add(
            "tcp.bytes_per_batch",
            per_batch(delta(1, &after.wire, &before.wire)),
            "B",
        );
        let every: Vec<&NodeReport> = reports.iter().chain(&killed_report).collect();
        let total = |f: fn(&NodeReport) -> u64| every.iter().map(|r| f(r)).sum::<u64>() as f64;
        pl.add(
            "tcp.dropped_frames",
            total(|r| r.transport.dropped_frames),
            "count",
        );
        let accept = summarize_us(&driver.accept_us);
        let commit = summarize_us(&driver.commit_us);
        let quorum = summarize_us(&driver.quorum_us);
        pl.add("client.accept_ms_p50", accept.p50, "ms");
        pl.add("client.accept_ms_p99", accept.p99, "ms");
        pl.add("client.commit_ms_p50", commit.p50, "ms");
        pl.add("client.commit_ms_p99", commit.p99, "ms");
        pl.add("client.quorum_ms_p99", quorum.p99, "ms");
        pl.add("threads.live", after.threads.len() as f64, "count");
        pl.add("node.view_changes", total(|r| r.view_changes), "count");
        pl.add("node.suspicions", total(|r| r.suspicions), "count");
        pl.add(
            "driver.cpu_us_per_batch",
            per_batch(cpu.excluded_run_ns as f64 / 1_000.0),
            "us",
        );
        pl.add("driver.late_p99_ms", late.p99, "ms");
        pl.add("env.steal_frac", steal, "frac");
        pl.add("env.idle_frac", idle, "frac");
        for (name, value, unit) in &end_to_end.0 {
            pl.add(format!("traced.{name}"), *value, unit);
        }
        match replay::run(&system, args.workload.mix, args.seed) {
            Ok(metrics) => {
                for (name, value, unit) in metrics {
                    pl.add(name, value, unit);
                }
            }
            Err(e) => problems.push(e),
        }
    }
    Ok(Outcome {
        problems,
        attempted: res.due,
        failed: res.never_completed,
        notes,
        end_to_end,
        per_layer,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("deploybench: {e}");
            eprintln!(
                "usage: deploybench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&args) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("deploybench: run failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    for note in &outcome.notes {
        println!("{note}");
    }
    if !outcome.problems.is_empty() {
        // A failed check fails the run; its numbers are not reported.
        for problem in &outcome.problems {
            eprintln!("deploybench: check failed: {problem}");
        }
        let none = Metrics::default();
        println!(
            "{}",
            result_line(false, outcome.attempted, outcome.failed, &none)
        );
        return ExitCode::FAILURE;
    }
    outcome.end_to_end.print("end-to-end");
    let reported = if args.trace {
        outcome.per_layer.print("per-layer (traced run)");
        outcome.per_layer
    } else {
        let mut gated = outcome.end_to_end;
        gated
            .0
            .retain(|(name, _, _)| GATED.contains(&name.as_str()));
        gated
    };
    println!(
        "{}",
        result_line(true, outcome.attempted, outcome.failed, &reported)
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_delta_counts_the_killed_incarnation_once() {
        // R1 holds 100 when the window opens and 300 when it is killed; the
        // other three go from 1,000 to 1,500 together, and R1's restarted
        // incarnation adds 50 from zero.
        let start = [1_100, 10, 0];
        let live_end = [1_550, 20, 5];
        let delta = pipeline_delta(start, live_end, Some([300, 10, 0]));
        assert_eq!(delta, [500 + 200 + 50, 20, 5]);
        // Without a kill it is the live growth.
        assert_eq!(pipeline_delta([10, 0, 0], [40, 0, 0], None), [30, 0, 0]);
    }
}
