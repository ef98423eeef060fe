//! `rcc-node` — run RCC replicas, clients, and whole localhost clusters.
//!
//! ```text
//! rcc-node cluster [--replicas N] [--instances M] [--clients C]
//!                  [--batch-size B] [--crypto none|mac|pk] [--seed S]
//!                  [--duration-ms D] [--window W] [--in-process]
//!                  [--io-threads T] [--max-clients L] [--fleet-sessions F]
//!                  [--min-completed Q] [--stats-out FILE]
//!                  [--telemetry-interval MS] [--telemetry-out FILE]
//!                  [--dump-events]
//!                  [--kill R --kill-after-ms K --down-for-ms T]
//!                  [--chaos wire-mangle|kill-coordinator [--mangle-ppm P]]
//!     Launch an N-replica localhost cluster (TCP by default) with C
//!     closed-loop client nodes, optionally kill-and-restart replica R
//!     mid-run, verify identical release orders and executed ledgers, and
//!     exit non-zero on any violation. This is the CI smoke scenario. `--chaos wire-mangle`
//!     routes every replica's outbound consensus frames through a seeded
//!     `ByteMangler` (corruption, truncation, splices, duplicates, replays,
//!     reorders at P per million, default 20000); `--chaos kill-coordinator`
//!     is shorthand for killing replica 1 — instance 1's initial
//!     coordinator — a quarter into the run and restarting it a quarter
//!     later. Safety (identical orders) is asserted under both.
//!
//!     The client edge: every node multiplexes its client connections onto
//!     T readiness-sweep I/O threads (default 2) and admits at most L
//!     clients (default 4096; the excess is rejected so clients fail
//!     over). `--fleet-sessions F` drives F extra multiplexed closed-loop
//!     sessions (each holding one connection per replica) through the
//!     fan-out fleet driver — `--fleet-sessions 256` against 4 replicas is
//!     the ≥ 1,000-concurrent-connection edge smoke. `--min-completed Q`
//!     fails the run when fewer than Q batches completed their reply
//!     quorum (the CI throughput floor); `--stats-out FILE` writes the
//!     per-replica transport counters and per-session completion/latency
//!     statistics as CSV for artifact archiving (schema in
//!     `docs/EVALUATION.md`).
//!
//!     Telemetry: `--telemetry-interval MS` prints each node's live metric
//!     table to stderr every MS milliseconds and the final per-replica
//!     tables at run end; `--telemetry-out FILE` writes every replica's
//!     (and the fleet's) final snapshot plus flight trace as JSONL;
//!     `--dump-events` dumps the flight traces (σ-lag suspicions, view
//!     changes, admission rejections, reconnects) to stderr. A divergence
//!     or a missed `--min-completed` floor dumps the traces even without
//!     `--dump-events` — that is what the flight recorder is for.
//!
//! rcc-node replica --config FILE [--duration-ms D]
//!                  [--telemetry-interval MS] [--dump-events]
//!     Run one replica of a multi-process deployment described by a
//!     TOML-ish file (see `rcc_network::config`). Runs until the duration
//!     elapses, or forever when none is given.
//!
//! rcc-node client --config FILE --stream S [--instance I] [--window W]
//!                 --duration-ms D
//!     Drive one closed-loop client node against the deployment in FILE.
//! ```

use rcc_common::{ClientId, CryptoMode, InstanceId, ReplicaId};
use rcc_network::cluster::{run_client, ClusterPlan, RestartPlan};
use rcc_network::{
    parse_deployment, queue_capacity, run_local_cluster, spawn_node, verify_identical_ledgers,
    verify_identical_orders, EdgeConfig, MangleConfig, NodeConfig, TcpClientChannel, TcpTransport,
    TransportKind,
};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("cluster") => cmd_cluster(&args[1..]),
        Some("replica") => cmd_replica(&args[1..]),
        Some("client") => cmd_client(&args[1..]),
        Some("--help" | "-h" | "help") | None => {
            eprint!("{}", USAGE);
            return;
        }
        Some(other) => Err(format!("unknown subcommand `{other}`\n{USAGE}")),
    };
    if let Err(message) = result {
        eprintln!("rcc-node: {message}");
        std::process::exit(1);
    }
}

const USAGE: &str = "usage:\n  rcc-node cluster [--replicas N] [--instances M] [--clients C] \
[--batch-size B] [--crypto none|mac|pk] [--seed S] [--duration-ms D] [--window W] \
[--in-process] [--io-threads T] [--max-clients L] \
[--fleet-sessions F] [--min-completed Q] [--stats-out FILE] \
[--telemetry-interval MS] [--telemetry-out FILE] [--dump-events] \
[--kill R --kill-after-ms K --down-for-ms T] \
[--chaos wire-mangle|kill-coordinator [--mangle-ppm P]]\n  rcc-node replica --config FILE \
[--duration-ms D] [--telemetry-interval MS] [--dump-events]\n  rcc-node client --config FILE \
--stream S [--instance I] [--window W] --duration-ms D\n";

/// A trivial `--flag value` scanner (no flag takes zero values except
/// `--in-process`).
struct Flags<'a> {
    args: &'a [String],
}

impl<'a> Flags<'a> {
    fn get(&self, flag: &str) -> Option<&'a str> {
        self.args
            .iter()
            .position(|a| a == flag)
            .and_then(|i| self.args.get(i + 1))
            .map(String::as_str)
    }

    fn has(&self, flag: &str) -> bool {
        self.args.iter().any(|a| a == flag)
    }

    fn int(&self, flag: &str, default: u64) -> Result<u64, String> {
        match self.get(flag) {
            None => Ok(default),
            Some(value) => value
                .parse()
                .map_err(|_| format!("{flag} expects an integer, got `{value}`")),
        }
    }
}

fn crypto_mode(name: &str) -> Result<CryptoMode, String> {
    match name {
        "none" => Ok(CryptoMode::None),
        "mac" => Ok(CryptoMode::Mac),
        "pk" => Ok(CryptoMode::PublicKey),
        other => Err(format!("--crypto expects none|mac|pk, got `{other}`")),
    }
}

fn cmd_cluster(args: &[String]) -> Result<(), String> {
    let flags = Flags { args };
    let n = flags.int("--replicas", 4)? as usize;
    let mut system = rcc_common::SystemConfig::new(n)
        .with_instances(flags.int("--instances", 2)? as usize)
        .with_batch_size(flags.int("--batch-size", 100)? as usize)
        .with_seed(flags.int("--seed", rcc_common::config::DEFAULT_SEED)?);
    if let Some(mode) = flags.get("--crypto") {
        system.crypto = crypto_mode(mode)?;
    }
    let mut restart = match flags.get("--kill") {
        None => None,
        Some(replica) => {
            let index: u32 = replica
                .parse()
                .map_err(|_| format!("--kill expects a replica index, got `{replica}`"))?;
            if index as usize >= n {
                return Err(format!("--kill {index} is out of range for --replicas {n}"));
            }
            Some(RestartPlan {
                replica: ReplicaId(index),
                kill_after: Duration::from_millis(flags.int("--kill-after-ms", 800)?),
                down_for: Duration::from_millis(flags.int("--down-for-ms", 400)?),
            })
        }
    };
    let run_for = Duration::from_millis(flags.int("--duration-ms", 2_000)?);
    let mut mangle = None;
    match flags.get("--chaos") {
        None => {}
        Some("wire-mangle") => {
            let rate_ppm = flags.int("--mangle-ppm", 20_000)? as u32;
            mangle = Some(MangleConfig::new(system.seed, rate_ppm));
        }
        Some("kill-coordinator") if restart.is_none() => {
            // Kill instance 1's initial coordinator a quarter into the
            // run; bring it back a quarter later.
            restart = Some(RestartPlan {
                replica: ReplicaId(1 % n as u32),
                kill_after: run_for / 4,
                down_for: run_for / 4,
            });
        }
        Some("kill-coordinator") => {}
        Some(other) => {
            return Err(format!(
                "--chaos expects wire-mangle|kill-coordinator, got `{other}`"
            ));
        }
    }
    let plan = ClusterPlan {
        system,
        transport: if flags.has("--in-process") {
            TransportKind::InProcess
        } else {
            TransportKind::Tcp
        },
        clients: flags.int("--clients", 2)? as usize,
        client_window: flags.int("--window", 4)? as usize,
        io_threads: {
            let threads =
                flags.int("--io-threads", rcc_network::DEFAULT_IO_THREADS as u64)? as usize;
            if threads == 0 {
                return Err("--io-threads must be at least 1".into());
            }
            threads
        },
        max_clients: {
            let cap = flags.int("--max-clients", rcc_network::DEFAULT_MAX_CLIENTS as u64)? as usize;
            if cap == 0 {
                return Err("--max-clients must be at least 1".into());
            }
            cap
        },
        fleet_sessions: flags.int("--fleet-sessions", 0)? as usize,
        run_for,
        restart,
        mangle,
        telemetry_interval: {
            let ms = flags.int("--telemetry-interval", 0)?;
            (ms > 0).then(|| Duration::from_millis(ms))
        },
    };
    plan.system.validate().map_err(|e| e.to_string())?;
    let min_completed = flags.int("--min-completed", 0)?;
    let stats_out = flags.get("--stats-out").map(str::to_string);
    let telemetry_out = flags.get("--telemetry-out").map(str::to_string);
    let dump_events = flags.has("--dump-events");

    eprintln!(
        "rcc-node cluster: n = {}, m = {}, {} clients, {:?}, {} ms{}",
        plan.system.n,
        plan.system.instances,
        plan.clients,
        plan.transport,
        plan.run_for.as_millis(),
        match plan.restart {
            Some(r) => format!(
                ", kill {} at {} ms for {} ms",
                r.replica,
                r.kill_after.as_millis(),
                r.down_for.as_millis()
            ),
            None => String::new(),
        }
    );
    if let Some(mangle) = plan.mangle {
        eprintln!(
            "rcc-node cluster: wire mangling at {} ppm (seed {})",
            mangle.rate_ppm, mangle.seed
        );
    }
    if plan.fleet_sessions > 0 {
        eprintln!(
            "rcc-node cluster: {} fleet sessions × {} replicas = {} edge connections, \
             {} edge I/O threads per node, admission cap {}",
            plan.fleet_sessions,
            plan.system.n,
            plan.fleet_sessions * plan.system.n,
            plan.io_threads,
            plan.max_clients,
        );
    }
    let outcome = run_local_cluster(&plan);
    for report in &outcome.reports {
        println!(
            "{}: executed {} batches (window from round {}), {} replies, \
             {} suspicions, {} view changes, {} auth failures, {} decode failures, \
             {} dropped frames, {} rejected connections, peak {} clients",
            report.replica,
            report.executed_batches,
            report.execution_window_start,
            report.replies_sent,
            report.suspicions,
            report.view_changes,
            report.auth_failures,
            report.decode_failures,
            report.transport.dropped_frames,
            report.transport.rejected_connections,
            report.transport.peak_clients,
        );
    }
    // Per-client lines drown the summary past a handful of drivers; the
    // fleet's sessions are reported in aggregate instead.
    if outcome.clients.len() <= 8 {
        for client in &outcome.clients {
            println!(
                "client {}: {} submitted, {} completed, {} abandoned",
                client.stream, client.submitted, client.completed, client.abandoned
            );
        }
    } else {
        let submitted: u64 = outcome.clients.iter().map(|c| c.submitted).sum();
        let abandoned: u64 = outcome.clients.iter().map(|c| c.abandoned).sum();
        let served = outcome.clients.iter().filter(|c| c.completed > 0).count();
        println!(
            "clients: {} sessions ({} with ≥ 1 completed batch), {} submitted, \
             {} completed, {} abandoned",
            outcome.clients.len(),
            served,
            submitted,
            outcome.completed_batches(),
            abandoned
        );
    }
    if let Some(path) = stats_out {
        // Schema documented in docs/EVALUATION.md: replica rows carry the
        // transport counters, session rows the per-session completion and
        // latency statistics; fields foreign to a row kind stay empty.
        let mut csv = String::from(
            "kind,id,executed_batches,replies_sent,dropped_frames,\
             rejected_connections,peak_clients,submitted,completed,abandoned,\
             p50_latency_ms,p99_latency_ms\n",
        );
        for report in &outcome.reports {
            csv.push_str(&format!(
                "replica,{},{},{},{},{},{},,,,,\n",
                report.replica.0,
                report.executed_batches,
                report.replies_sent,
                report.transport.dropped_frames,
                report.transport.rejected_connections,
                report.transport.peak_clients,
            ));
        }
        for client in &outcome.clients {
            csv.push_str(&format!(
                "session,{},,,,,,{},{},{},{},{}\n",
                client.stream,
                client.submitted,
                client.completed,
                client.abandoned,
                client.p50_latency_ms,
                client.p99_latency_ms,
            ));
        }
        std::fs::write(&path, csv).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("rcc-node cluster: transport + session statistics written to {path}");
    }
    if plan.telemetry_interval.is_some() || telemetry_out.is_some() {
        for report in &outcome.reports {
            println!(
                "telemetry — {} (final):\n{}",
                report.replica,
                report.telemetry.to_table()
            );
        }
        if !outcome.fleet_telemetry.is_empty() {
            println!(
                "telemetry — fleet (final):\n{}",
                outcome.fleet_telemetry.to_table()
            );
        }
    }
    if let Some(path) = &telemetry_out {
        let mut body = String::new();
        for report in &outcome.reports {
            let label = format!("replica{}", report.replica.0);
            body.push_str(&report.telemetry.to_jsonl(&label));
            body.push_str(&rcc_telemetry::dump_jsonl(&report.flight, &label));
        }
        if !outcome.fleet_telemetry.is_empty() {
            body.push_str(&outcome.fleet_telemetry.to_jsonl("fleet"));
            body.push_str(&rcc_telemetry::dump_jsonl(&outcome.fleet_flight, "fleet"));
        }
        std::fs::write(path, body).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("rcc-node cluster: telemetry snapshots + flight traces written to {path}");
    }
    let dump_flight = |reason: &str| {
        eprintln!("--- flight dump ({reason}) ---");
        for report in &outcome.reports {
            let text = rcc_telemetry::dump_text(&report.flight);
            if !text.is_empty() {
                eprintln!("{} flight:\n{text}", report.replica);
            }
        }
        if !outcome.fleet_flight.is_empty() {
            eprintln!(
                "fleet flight:\n{}",
                rcc_telemetry::dump_text(&outcome.fleet_flight)
            );
        }
    };
    // A failed gate stamps a synthetic flight event describing the violation
    // (timestamped at the end of the recorded traces), so the dump shows what
    // tripped alongside the sequence that led there.
    let gate_stamp = outcome
        .reports
        .iter()
        .filter_map(|report| report.flight.last())
        .map(|event| event.at_nanos)
        .max()
        .unwrap_or(0);
    let dump_gate = |kind: rcc_telemetry::FlightEventKind| {
        eprint!(
            "gate:\n{}",
            rcc_telemetry::dump_text(&[rcc_telemetry::FlightEvent {
                at_nanos: gate_stamp,
                source: 0,
                kind,
            }])
        );
    };
    if dump_events {
        dump_flight("--dump-events");
    }
    if let Err(e) = verify_identical_orders(&outcome.reports)
        .and_then(|_| verify_identical_ledgers(&outcome.reports))
    {
        if !dump_events {
            dump_flight("divergence");
        }
        // Pin the diverging replica structurally (the first whose pairwise
        // check against replica 0 fails) rather than parsing the message.
        let suspect = outcome
            .reports
            .iter()
            .skip(1)
            .find(|report| {
                let pair = vec![outcome.reports[0].clone(), (*report).clone()];
                verify_identical_orders(&pair)
                    .and_then(|_| verify_identical_ledgers(&pair))
                    .is_err()
            })
            .map_or(0, |report| report.replica.0);
        dump_gate(rcc_telemetry::FlightEventKind::Divergence { replica: suspect });
        return Err(e);
    }
    if outcome.completed_batches() == 0 {
        if !dump_events {
            dump_flight("no completed batches");
        }
        dump_gate(rcc_telemetry::FlightEventKind::FloorViolation {
            observed: 0,
            floor: min_completed.max(1),
        });
        return Err("no client batch completed its reply quorum".into());
    }
    if outcome.completed_batches() < min_completed {
        if !dump_events {
            dump_flight("throughput floor missed");
        }
        dump_gate(rcc_telemetry::FlightEventKind::FloorViolation {
            observed: outcome.completed_batches(),
            floor: min_completed,
        });
        return Err(format!(
            "throughput floor missed: {} batches completed < --min-completed {}",
            outcome.completed_batches(),
            min_completed
        ));
    }
    for report in &outcome.reports {
        if report.executed_batches == 0 {
            return Err(format!("{} released nothing", report.replica));
        }
    }
    println!(
        "OK: identical release orders and executed ledgers on all {} replicas, \
         {} client batches completed",
        outcome.reports.len(),
        outcome.completed_batches()
    );
    Ok(())
}

fn read_deployment(flags: &Flags) -> Result<rcc_network::DeploymentFile, String> {
    let path = flags
        .get("--config")
        .ok_or_else(|| "--config FILE is required".to_string())?;
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read config {path}: {e}"))?;
    parse_deployment(&text)
}

fn parse_addrs(peers: &[String]) -> Result<Vec<SocketAddr>, String> {
    peers
        .iter()
        .map(|p| p.parse().map_err(|_| format!("invalid peer address `{p}`")))
        .collect()
}

fn cmd_replica(args: &[String]) -> Result<(), String> {
    let flags = Flags { args };
    let file = read_deployment(&flags)?;
    let replica = file
        .replica
        .ok_or_else(|| "config must set `replica = N`".to_string())?;
    let listen: SocketAddr = file
        .listen
        .as_deref()
        .ok_or_else(|| "config must set `listen = \"host:port\"`".to_string())?
        .parse()
        .map_err(|_| "invalid `listen` address".to_string())?;
    if file.peers.len() != file.system.n {
        return Err(format!(
            "config lists {} peers for n = {}",
            file.peers.len(),
            file.system.n
        ));
    }
    let peers = parse_addrs(&file.peers)?;
    let capacity = queue_capacity(&file.system);
    let edge = EdgeConfig {
        io_threads: file.io_threads,
        max_clients: file.max_clients,
        ..EdgeConfig::default()
    };
    let transport = TcpTransport::bind_with_edge(replica, listen, peers, capacity, edge)
        .map_err(|e| format!("cannot bind {listen}: {e}"))?;
    eprintln!(
        "rcc-node replica {replica}: listening on {listen} \
         ({} edge I/O threads, admission cap {})",
        file.io_threads, file.max_clients
    );
    let handle =
        spawn_node(NodeConfig::new(file.system, replica), transport).map_err(|e| e.to_string())?;
    let deadline = match flags.get("--duration-ms") {
        Some(_) => Some(Instant::now() + Duration::from_millis(flags.int("--duration-ms", 0)?)),
        None => None, // run until killed
    };
    let interval = {
        let ms = flags.int("--telemetry-interval", 0)?;
        (ms > 0).then(|| Duration::from_millis(ms))
    };
    loop {
        let now = Instant::now();
        if let Some(deadline) = deadline {
            if now >= deadline {
                break;
            }
        }
        let mut chunk = interval.unwrap_or(Duration::from_secs(3600));
        if let Some(deadline) = deadline {
            chunk = chunk.min(deadline - now);
        }
        std::thread::sleep(chunk);
        if interval.is_some() {
            eprintln!(
                "telemetry — replica {replica}:\n{}",
                handle.telemetry().snapshot().to_table()
            );
        }
    }
    let report = handle.shutdown().map_err(|e| e.to_string())?;
    println!(
        "{}: executed {} batches, ledger head {}, {} dropped frames, \
         {} rejected connections, peak {} clients",
        report.replica,
        report.executed_batches,
        report.ledger_head.short_hex(),
        report.transport.dropped_frames,
        report.transport.rejected_connections,
        report.transport.peak_clients,
    );
    if flags.has("--dump-events") {
        let text = rcc_telemetry::dump_text(&report.flight);
        if !text.is_empty() {
            eprintln!("{} flight:\n{text}", report.replica);
        }
    }
    Ok(())
}

fn cmd_client(args: &[String]) -> Result<(), String> {
    let flags = Flags { args };
    let file = read_deployment(&flags)?;
    let stream = flags.int("--stream", 0)?;
    let instance =
        InstanceId(flags.int("--instance", stream % file.system.instances.max(1) as u64)? as u32);
    let window = flags.int("--window", 4)? as usize;
    let duration = Duration::from_millis(
        flags
            .get("--duration-ms")
            .ok_or_else(|| "--duration-ms is required".to_string())?
            .parse::<u64>()
            .map_err(|_| "--duration-ms expects an integer".to_string())?,
    );
    let addrs = parse_addrs(&file.peers)?;
    let channel = TcpClientChannel::connect(
        ClientId(stream),
        &addrs,
        Instant::now() + Duration::from_secs(10),
    )
    .map_err(|e| format!("cannot connect to the cluster: {e}"))?;
    let keys = rcc_crypto::DeploymentKeys::generate(&file.system).client_keys(ClientId(stream));
    let outcome = run_client(
        &file.system,
        stream,
        instance,
        window,
        channel,
        &keys,
        Instant::now() + duration,
    );
    println!(
        "client {}: {} submitted, {} completed, {} abandoned",
        outcome.stream, outcome.submitted, outcome.completed, outcome.abandoned
    );
    Ok(())
}
