//! The loopback deployment under test, launched through the program's
//! public API: `TcpTransport` per replica, `spawn_node`, default node and
//! edge settings. The traced run wraps each transport in [`Traced`], which
//! counts replica frames and times the mailbox's blocking receives from
//! outside the program.

use rcc_common::{ClientId, ReplicaId, SystemConfig};
use rcc_network::{
    queue_capacity, spawn_node, EdgeTelemetry, NodeConfig, NodeHandle, NodeReport, NodeTelemetry,
    TcpTransport, Transport, TransportStats, DEFAULT_EXECUTION_WORKERS,
};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The deployment shape the benchmark measures: n = 4, m = 2, batches of
/// 100, MAC authentication, every other setting at the program's default.
/// The deployment seed (which derives the keys) stays at its default; the
/// workload seed only shapes the generated batches.
pub fn system() -> SystemConfig {
    SystemConfig::new(4)
        .with_instances(2)
        .with_batch_size(100)
        .with_crypto(rcc_common::CryptoMode::Mac)
}

/// Counters one [`Traced`] transport shares with the benchmark.
#[derive(Debug, Default)]
pub struct Wire {
    /// Frames sent to peer replicas.
    pub msgs: AtomicU64,
    /// Bytes of those frames.
    pub bytes: AtomicU64,
    /// Nanoseconds the mailbox spent inside `recv_timeout`.
    pub recv_wait_ns: AtomicU64,
}

/// A transport that counts and times the calls the node makes into it and
/// forwards every call to the wrapped transport.
pub struct Traced<T> {
    inner: T,
    wire: Arc<Wire>,
}

impl<T: Transport> Transport for Traced<T> {
    fn me(&self) -> ReplicaId {
        self.inner.me()
    }
    fn send_to_replica(&self, to: ReplicaId, frame: Vec<u8>) {
        self.wire.msgs.fetch_add(1, Ordering::Relaxed);
        self.wire
            .bytes
            .fetch_add(frame.len() as u64, Ordering::Relaxed);
        self.inner.send_to_replica(to, frame)
    }
    fn send_to_client(&self, to: ClientId, frame: Vec<u8>) {
        self.inner.send_to_client(to, frame)
    }
    fn recv_timeout(&mut self, timeout: Duration) -> Option<Vec<u8>> {
        let start = Instant::now();
        let frame = self.inner.recv_timeout(timeout);
        self.wire
            .recv_wait_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        frame
    }
    fn try_recv(&mut self) -> Option<Vec<u8>> {
        self.inner.try_recv()
    }
    fn shutdown(&mut self) {
        self.inner.shutdown()
    }
    fn stats(&self) -> TransportStats {
        self.inner.stats()
    }
    fn edge_telemetry(&self) -> Option<EdgeTelemetry> {
        self.inner.edge_telemetry()
    }
}

/// A running loopback deployment.
pub struct Deployment {
    system: SystemConfig,
    /// Replica listen addresses, by replica id.
    pub addrs: Vec<SocketAddr>,
    nodes: Vec<Option<NodeHandle>>,
    /// Per-replica wire counters; present in traced runs only. They survive
    /// a restart, so a restarted replica keeps counting into them.
    pub wires: Option<Vec<Arc<Wire>>>,
}

impl Deployment {
    /// Binds every listener on an ephemeral loopback port, then spawns the
    /// nodes.
    pub fn launch(system: &SystemConfig, traced: bool) -> Result<Deployment, String> {
        let listeners = (0..system.n)
            .map(|_| TcpListener::bind("127.0.0.1:0"))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("bind loopback listener: {e}"))?;
        let addrs = listeners
            .iter()
            .map(TcpListener::local_addr)
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("listener address: {e}"))?;
        let mut deployment = Deployment {
            system: system.clone(),
            addrs,
            nodes: Vec::new(),
            wires: traced.then(|| (0..system.n).map(|_| Arc::default()).collect()),
        };
        for (index, listener) in listeners.into_iter().enumerate() {
            let node = deployment.spawn(ReplicaId(index as u32), listener)?;
            deployment.nodes.push(Some(node));
        }
        Ok(deployment)
    }

    fn spawn(&self, replica: ReplicaId, listener: TcpListener) -> Result<NodeHandle, String> {
        let transport = TcpTransport::with_listener(
            replica,
            listener,
            self.addrs.clone(),
            queue_capacity(&self.system),
        );
        let config = NodeConfig {
            system: self.system.clone(),
            replica,
            execution_workers: DEFAULT_EXECUTION_WORKERS,
        };
        let spawned = match &self.wires {
            Some(wires) => spawn_node(
                config,
                Traced {
                    inner: transport,
                    wire: Arc::clone(&wires[replica.index()]),
                },
            ),
            None => spawn_node(config, transport),
        };
        spawned.map_err(|e| format!("spawn {replica}: {e}"))
    }

    /// Live telemetry handles of the running nodes, by replica id.
    pub fn telemetry(&self) -> Vec<Option<NodeTelemetry>> {
        self.nodes
            .iter()
            .map(|node| node.as_ref().map(|n| n.telemetry().clone()))
            .collect()
    }

    /// Stops `replica` as a crash would, returning its last report.
    pub fn kill(&mut self, replica: ReplicaId) -> Result<NodeReport, String> {
        let node = self.nodes[replica.index()]
            .take()
            .ok_or_else(|| format!("{replica} is not running"))?;
        node.shutdown().map_err(|e| format!("kill {replica}: {e}"))
    }

    /// Starts a fresh node (empty state) as `replica` on its old address.
    pub fn restart(&mut self, replica: ReplicaId) -> Result<(), String> {
        let addr = self.addrs[replica.index()];
        let deadline = Instant::now() + Duration::from_secs(10);
        let listener = loop {
            match TcpListener::bind(addr) {
                Ok(listener) => break listener,
                Err(e) if Instant::now() >= deadline => {
                    return Err(format!("re-bind {addr} for {replica}: {e}"))
                }
                Err(_) => std::thread::sleep(Duration::from_millis(20)),
            }
        };
        let node = self.spawn(replica, listener)?;
        self.nodes[replica.index()] = Some(node);
        Ok(())
    }

    /// Stops every node at once and returns their reports by replica id.
    pub fn shutdown(self) -> Result<Vec<NodeReport>, String> {
        std::thread::scope(|scope| {
            let stopping: Vec<_> = self
                .nodes
                .into_iter()
                .enumerate()
                .map(|(index, node)| {
                    scope.spawn(move || match node {
                        Some(node) => node.shutdown().map_err(|e| format!("R{index}: {e}")),
                        None => Err(format!("R{index} is not running")),
                    })
                })
                .collect();
            stopping
                .into_iter()
                .map(|t| {
                    t.join()
                        .map_err(|_| "shutdown thread panicked".to_string())?
                })
                .collect()
        })
    }
}
