//! The `rcc-node` replica runner: a deployed host for the sans-io
//! [`RccReplica`] state machine.
//!
//! # Thread model
//!
//! One **mailbox thread** owns the entire replica state machine; it is the
//! only thread that ever touches it, so the sans-io core needs no locks:
//!
//! ```text
//!   listener ──► reader threads ──┐                  ┌──► writer thread → R0
//!   (ingress)    (one per conn)   ├─► inbox ─► mailbox ──► writer thread → R1
//!   client conns ────────────────┘    (mpsc)   thread  └──► … (bounded queues)
//!                                                │
//!                    wall-clock timers ◄─────────┤ SetTimer/CancelTimer
//!                    (BTreeMap deadline heap)    │ Commit → client replies
//! ```
//!
//! The mailbox loop alternates between draining inbound frames and firing
//! due wall-clock timers through the existing
//! [`rcc_protocols::bca::TimerId`] seam. Logical [`Time`] is nanoseconds
//! since the node started (`Instant`-derived), which is all the protocol
//! timers need.
//!
//! # Inline verify/execute
//!
//! Authentication and execution run inline on the mailbox thread: RCC
//! scales by running consensus instances concurrently, not by a worker pool
//! inside each replica. Each drained burst of frames is decoded, every
//! frame's tag is verified on its borrowed payload, and the frames are
//! dispatched in arrival order. After every burst the node executes newly
//! released rounds through [`ExecutionEngine::execute_round`]. The
//! `node.pipeline.{drain,verify,dispatch,execute}_us` histograms time the
//! four stages of each burst.
//!
//! Replies implement §III-A: every replica sends the released batch's
//! certified digest to the client node that submitted it (recovered from
//! the batch's request ids via [`rcc_workload::stream_of_client`]); a
//! client accepts the outcome on `f + 1` matching replies.

use crate::frame::Frame;
use crate::telemetry::NodeTelemetry;
use crate::transport::{Transport, TransportStats};
use rcc_common::codec::{Decode, Encode};
use rcc_common::{Batch, BatchId, ClientId, Digest, ReplicaId, Round, SystemConfig, Time};
use rcc_core::{RccMessage, RccReplica};
use rcc_crypto::{Authenticator, DeploymentKeys};
use rcc_execution::ExecutionEngine;
use rcc_protocols::bca::{Action, ByzantineCommitAlgorithm, TimerId};
use rcc_protocols::pbft::{Pbft, PbftMessage};
use rcc_telemetry::{FlightEvent, FlightEventKind, Snapshot};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::mpsc::{Receiver, SyncSender, TryRecvError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A worker-pool width for callers that compare pooled verification or
/// execution against the node's inline paths. The node itself runs no pool.
pub const DEFAULT_EXECUTION_WORKERS: usize = 4;

/// Configuration of one deployed replica node.
#[derive(Clone, Debug)]
pub struct NodeConfig {
    /// The deployment (n, f, m, batching, crypto mode, timeouts, seed).
    pub system: SystemConfig,
    /// Which replica this node is.
    pub replica: ReplicaId,
    /// Ignored: the node verifies and executes inline on its mailbox
    /// thread. Kept so struct literals that still set it compile; build
    /// configs with [`NodeConfig::new`].
    pub execution_workers: usize,
}

impl NodeConfig {
    /// The configuration of `replica` in the deployment `system`.
    pub fn new(system: SystemConfig, replica: ReplicaId) -> Self {
        NodeConfig {
            system,
            replica,
            execution_workers: DEFAULT_EXECUTION_WORKERS,
        }
    }
}

/// What a node measured and held when it shut down.
#[derive(Clone, Debug)]
pub struct NodeReport {
    /// The replica that produced the report.
    pub replica: ReplicaId,
    /// Concurrent instances of the deployment (digest alignment for
    /// [`NodeReport::execution_digests`]).
    pub instances: usize,
    /// Batches released for execution (the global execution sequence).
    pub executed_batches: u64,
    /// First round still retained in the execution window (the stable
    /// checkpoint round; earlier rounds were garbage-collected).
    pub execution_window_start: Round,
    /// Digest sequence of the retained execution window, `instances`
    /// digests per round — replicas agree on the overlap of their windows.
    pub execution_digests: Vec<Digest>,
    /// Chained digest over the *entire* release history (pruned included).
    pub ledger_head: Digest,
    /// `(round, content digest)` of every block the node's execution engine
    /// appended. Content digests exclude the chain position, so replicas
    /// whose engines started at different rounds (a restarted node begins
    /// at its adopted checkpoint) still compare equal on the overlap —
    /// see [`verify_identical_ledgers`].
    pub ledger_blocks: Vec<(Round, Digest)>,
    /// Combined fingerprint of the engine's post-execution state (record
    /// table ⊕ account store).
    pub state_fingerprint: u64,
    /// Client replies sent.
    pub replies_sent: u64,
    /// Frames that arrived but failed authentication.
    pub auth_failures: u64,
    /// Frames (or payloads) that arrived but failed to decode.
    pub decode_failures: u64,
    /// `SuspectPrimary` actions the replica raised.
    pub suspicions: u64,
    /// `ViewChanged` actions the replica raised.
    pub view_changes: u64,
    /// Transport-edge counters: frames dropped on bounded outbound queues
    /// (previously silent), connections rejected at the admission cap, and
    /// the client-connection high-water mark.
    pub transport: TransportStats,
    /// End-of-run snapshot of the node's metric registry (the
    /// `node.pipeline.*` catalog in `docs/OBSERVABILITY.md`): per-burst
    /// stage timings of the drain → verify → dispatch → execute pipeline
    /// and the drained-burst high-water mark.
    pub telemetry: Snapshot,
    /// The node's flight-recorder trace (σ-lag suspicions and completed
    /// view changes), oldest first, timestamped in wall nanoseconds since
    /// the node started.
    pub flight: Vec<FlightEvent>,
}

/// Why spawning or stopping a node failed.
#[derive(Debug)]
pub enum NodeError {
    /// The OS refused to spawn the node's mailbox thread.
    Spawn(std::io::Error),
    /// The node thread panicked; its report is lost.
    Panicked,
}

impl fmt::Display for NodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeError::Spawn(e) => write!(f, "could not spawn node thread: {e}"),
            NodeError::Panicked => write!(f, "node thread panicked"),
        }
    }
}

impl std::error::Error for NodeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NodeError::Spawn(e) => Some(e),
            NodeError::Panicked => None,
        }
    }
}

/// Handle to a running node; dropping it does **not** stop the node — call
/// [`NodeHandle::shutdown`].
pub struct NodeHandle {
    stop: SyncSender<()>,
    thread: JoinHandle<NodeReport>,
    telemetry: NodeTelemetry,
}

impl NodeHandle {
    /// Stops the node and returns its final report, or
    /// [`NodeError::Panicked`] when the node thread died before reporting.
    pub fn shutdown(self) -> Result<NodeReport, NodeError> {
        let _ = self.stop.send(());
        self.thread.join().map_err(|_| NodeError::Panicked)
    }

    /// A live handle onto the running node's telemetry: snapshots taken
    /// here observe the mailbox thread's recording without stopping it
    /// (clones share the registry). Used by the periodic snapshot emitter
    /// in `bin/rcc-node.rs`.
    pub fn telemetry(&self) -> &NodeTelemetry {
        &self.telemetry
    }
}

/// Spawns a replica node over `transport`. Key material is derived
/// deterministically from the deployment seed (the offline-crypto trusted
/// dealer every other layer already uses), so nodes need no key exchange.
pub fn spawn_node(
    config: NodeConfig,
    transport: impl Transport + 'static,
) -> Result<NodeHandle, NodeError> {
    // The stop channel carries at most one message over its whole life
    // (shutdown consumes the handle), so depth 1 is exactly its traffic.
    let (stop_tx, stop_rx) = std::sync::mpsc::sync_channel(1);
    // Created outside the thread so the handle can keep a live view of the
    // registry while the mailbox thread records into it.
    let telemetry = NodeTelemetry::new();
    let thread_telemetry = telemetry.clone();
    let thread = std::thread::Builder::new()
        .name(format!("rcc-node-{}", config.replica.0))
        .spawn(move || {
            let keys = DeploymentKeys::generate(&config.system);
            let auth = Authenticator::new(config.system.crypto, keys.replica_keys(config.replica));
            let replica = RccReplica::over_pbft(config.system.clone(), config.replica);
            let engine = ExecutionEngine::new(config.replica);
            let node = Node {
                transport,
                replica,
                auth,
                engine,
                next_exec_round: 0,
                config,
                timers: BTreeMap::new(),
                epoch: Instant::now(),
                replies_sent: 0,
                auth_failures: 0,
                decode_failures: 0,
                suspicions: 0,
                view_changes: 0,
                telemetry: thread_telemetry,
            };
            node.run(stop_rx)
        })
        .map_err(NodeError::Spawn)?;
    Ok(NodeHandle {
        stop: stop_tx,
        thread,
        telemetry,
    })
}

/// How many inbound frames the mailbox drains before giving timers a turn.
const DRAIN_BURST: usize = 256;

/// The longest the mailbox sleeps when idle with no armed timer.
const IDLE_WAIT: Duration = Duration::from_millis(20);

struct Node<T: Transport> {
    config: NodeConfig,
    transport: T,
    replica: RccReplica<Pbft>,
    /// Tags outbound frames and verifies inbound ones.
    auth: Authenticator,
    /// Deterministic execution engine fed by released rounds.
    engine: ExecutionEngine,
    /// Next released round the engine has not executed yet. Checkpoint
    /// adoption can jump the release frontier past pruned rounds; execution
    /// resumes from whatever the replica still retains.
    next_exec_round: Round,
    /// Armed wall-clock timers: protocol `TimerId` → absolute logical time.
    timers: BTreeMap<TimerId, Time>,
    epoch: Instant,
    replies_sent: u64,
    auth_failures: u64,
    decode_failures: u64,
    suspicions: u64,
    view_changes: u64,
    /// Pipeline stage timings, queue-depth high-water, and the consensus
    /// flight recorder (shared with the spawn-side [`NodeHandle`]).
    telemetry: NodeTelemetry,
}

impl<T: Transport> Node<T> {
    fn now(&self) -> Time {
        Time::from_nanos(self.epoch.elapsed().as_nanos() as u64)
    }

    fn run(mut self, stop: Receiver<()>) -> NodeReport {
        loop {
            match stop.try_recv() {
                Ok(()) | Err(TryRecvError::Disconnected) => break,
                Err(TryRecvError::Empty) => {}
            }
            self.fire_due_timers();
            // Sleep until the next timer deadline (capped), unless frames
            // arrive first.
            let now = self.now();
            let wait = self
                .timers
                .values()
                .min()
                .map(|&deadline| {
                    Duration::from_nanos(deadline.as_nanos().saturating_sub(now.as_nanos()))
                })
                .unwrap_or(IDLE_WAIT)
                .min(IDLE_WAIT);
            let Some(first) = self.transport.recv_timeout(wait) else {
                self.execute_released();
                continue;
            };
            let drain_start = self.telemetry.now_nanos();
            let mut burst = vec![first];
            for _ in 0..DRAIN_BURST {
                match self.transport.try_recv() {
                    Some(bytes) => burst.push(bytes),
                    None => break,
                }
            }
            self.telemetry.queue_depth.set_max(burst.len() as u64);
            self.telemetry
                .drain_us
                .record(self.telemetry.now_nanos().saturating_sub(drain_start) / 1_000);
            self.process_burst(burst);
            self.execute_released();
        }
        self.execute_released();
        self.transport.shutdown();
        self.report()
    }

    fn fire_due_timers(&mut self) {
        loop {
            let now = self.now();
            let due: Vec<TimerId> = self
                .timers
                .iter()
                .filter(|(_, &at)| at <= now)
                .map(|(&id, _)| id)
                .collect();
            if due.is_empty() {
                return;
            }
            for timer in due {
                self.timers.remove(&timer);
                let actions = self.replica.on_timeout(self.now(), timer);
                self.absorb(actions);
            }
        }
    }

    /// Decodes a drained burst, verifies every frame's tag, then dispatches
    /// the frames in arrival order with their verdicts.
    fn process_burst(&mut self, burst: Vec<Vec<u8>>) {
        let mut frames: Vec<Frame> = Vec::with_capacity(burst.len());
        for bytes in &burst {
            match Frame::decode_frame(bytes) {
                Ok(frame) => frames.push(frame),
                Err(_) => self.decode_failures += 1,
            }
        }
        let verify_start = self.telemetry.now_nanos();
        let verdicts: Vec<bool> = frames.iter().map(|frame| self.verify(frame)).collect();
        let dispatch_start = self.telemetry.now_nanos();
        self.telemetry
            .verify_us
            .record(dispatch_start.saturating_sub(verify_start) / 1_000);
        for (frame, verified) in frames.into_iter().zip(verdicts) {
            self.dispatch(frame, verified);
        }
        self.telemetry
            .dispatch_us
            .record(self.telemetry.now_nanos().saturating_sub(dispatch_start) / 1_000);
    }

    /// Whether an inbound frame's tag authenticates its claimed sender. A
    /// replica frame claiming to come from this node is rejected unchecked;
    /// frames that carry no tag pass (dispatch ignores them).
    fn verify(&self, frame: &Frame) -> bool {
        match frame {
            Frame::Replica { from, payload, tag } => {
                *from != self.config.replica
                    && self.auth.verify_from_replica(*from, payload, tag).is_ok()
            }
            Frame::ClientSubmit {
                client,
                payload,
                tag,
                ..
            } => self.auth.verify_from_client(*client, payload, tag).is_ok(),
            _ => true,
        }
    }

    /// Handles one decoded frame whose authentication verdict was already
    /// computed by [`Node::verify`].
    fn dispatch(&mut self, frame: Frame, verified: bool) {
        match frame {
            Frame::Hello { .. } => {} // transport-level concern; nothing to do
            Frame::Replica { from, payload, .. } => {
                if !verified {
                    self.auth_failures += 1;
                    return;
                }
                let message = match RccMessage::<PbftMessage>::decode_all(&payload) {
                    Ok(message) => message,
                    Err(_) => {
                        self.decode_failures += 1;
                        return;
                    }
                };
                let actions = self.replica.on_message(self.now(), from, message);
                self.absorb(actions);
            }
            Frame::ClientSubmit {
                client,
                instance,
                payload,
                ..
            } => {
                if !verified {
                    self.auth_failures += 1;
                    return;
                }
                let batch = match Batch::decode_all(&payload) {
                    Ok(batch) => batch,
                    Err(_) => {
                        self.decode_failures += 1;
                        return;
                    }
                };
                let digest = rcc_crypto::digest_batch(&batch);
                let actions = if self.replica.proposal_capacity_for(instance) > 0 {
                    self.replica.propose_for(self.now(), instance, batch)
                } else {
                    Vec::new()
                };
                if actions.is_empty() {
                    // Turned away: free the client's window slot explicitly.
                    let reject = Frame::ClientReject {
                        replica: self.config.replica,
                        digest,
                    };
                    self.transport.send_to_client(client, reject.encode_frame());
                } else {
                    // Accepted into the pipeline: a liveness signal that
                    // keeps the client feeding this coordinator even while
                    // downstream releases are stalled (a blocked round must
                    // not starve the frontier the σ-lag detection needs).
                    let accept = Frame::ClientAccept {
                        replica: self.config.replica,
                        digest,
                    };
                    self.transport.send_to_client(client, accept.encode_frame());
                    self.absorb(actions);
                }
            }
            // Replies/accepts/rejects are client-bound; a replica receiving
            // one (misrouted or malicious) ignores it.
            Frame::ClientReply { .. } | Frame::ClientReject { .. } | Frame::ClientAccept { .. } => {
            }
        }
    }

    fn absorb(&mut self, actions: Vec<Action<RccMessage<PbftMessage>>>) {
        for action in actions {
            match action {
                Action::Send { to, message } => self.send(to, &message),
                Action::Broadcast { message } => {
                    for to in ReplicaId::all(self.config.system.n) {
                        if to != self.config.replica {
                            self.send(to, &message);
                        }
                    }
                }
                Action::SetTimer { timer, fires_at } => {
                    self.timers.insert(timer, fires_at);
                }
                Action::CancelTimer { timer } => {
                    self.timers.remove(&timer);
                }
                Action::Commit(slot) => self.reply(slot.digest, &slot.batch),
                Action::SuspectPrimary { primary, .. } => {
                    self.suspicions += 1;
                    self.telemetry.event(
                        self.config.replica.0,
                        FlightEventKind::SigmaLagDetected {
                            suspected: primary.0,
                        },
                    );
                }
                Action::ViewChanged { view, new_primary } => {
                    self.view_changes += 1;
                    self.telemetry.event(
                        self.config.replica.0,
                        FlightEventKind::ViewChangeCompleted {
                            view,
                            new_primary: new_primary.0,
                        },
                    );
                }
            }
        }
    }

    /// Executes every newly released round the replica retains. Checkpoint
    /// adoption can jump the release frontier past rounds this node never
    /// saw (they were pruned cluster-wide); execution resumes at the first
    /// retained round, which is exactly what the restart-robust ledger
    /// comparison in [`verify_identical_ledgers`] accounts for.
    fn execute_released(&mut self) {
        let execute_start = self.telemetry.now_nanos();
        let rounds: Vec<(Round, Vec<(BatchId, Batch)>)> = self
            .replica
            .execution_log()
            .iter()
            .filter(|released| released.round >= self.next_exec_round)
            .map(|released| {
                (
                    released.round,
                    released
                        .batches
                        .iter()
                        .map(|b| (b.id, b.batch.clone()))
                        .collect(),
                )
            })
            .collect();
        // Idle calls (no newly released rounds) would flood the histogram's
        // zero bucket and drown the real execution timings.
        if rounds.is_empty() {
            return;
        }
        for (round, ordered) in rounds {
            // Replies to clients travel via the §III-A digest protocol
            // (`Action::Commit` → `reply`); the engine's own reply records
            // are not re-sent here.
            let _ = self.engine.execute_round(round, &ordered);
            self.next_exec_round = round + 1;
        }
        self.telemetry
            .execute_us
            .record(self.telemetry.now_nanos().saturating_sub(execute_start) / 1_000);
    }

    fn send(&mut self, to: ReplicaId, message: &RccMessage<PbftMessage>) {
        let payload = message.encoded();
        let tag = self.auth.tag_for_replica(to, &payload);
        let frame = Frame::Replica {
            from: self.config.replica,
            payload,
            tag,
        };
        self.transport.send_to_replica(to, frame.encode_frame());
    }

    /// Sends the released batch's certified digest back to the client node
    /// that submitted it (§III-A replies; `f + 1` matching replies convince
    /// the client). No-op filler has no client; its release is silent.
    fn reply(&mut self, digest: Digest, batch: &Batch) {
        let mut last_stream = None;
        for request in &batch.requests {
            let Some(stream) = rcc_workload::stream_of_client(request.id.client) else {
                continue;
            };
            // Batches are assembled per client node: every request carries
            // the same stream. Dedup cheaply without a set.
            if last_stream == Some(stream) {
                continue;
            }
            last_stream = Some(stream);
            let client = ClientId(stream);
            let tag = self.auth.tag_for_client(client, digest.as_bytes());
            let frame = Frame::ClientReply {
                replica: self.config.replica,
                digest,
                tag,
            };
            self.transport.send_to_client(client, frame.encode_frame());
            self.replies_sent += 1;
        }
    }

    fn report(&self) -> NodeReport {
        // Fold the client edge's telemetry (TCP only) into the node's own:
        // one snapshot per node covers both the mailbox pipeline and the
        // readiness edge, and the flight trace interleaves consensus events
        // with admission rejections by wall timestamp. The two clocks are
        // anchored within the same spawn call, so the merge order is
        // faithful to within that setup window.
        let mut telemetry = self.telemetry.snapshot();
        let mut flight = self.telemetry.flight_events();
        if let Some(edge) = self.transport.edge_telemetry() {
            telemetry = telemetry.merged(&edge.snapshot());
            flight.extend(edge.flight_events());
            flight.sort_by_key(|event| event.at_nanos);
        }
        NodeReport {
            replica: self.config.replica,
            instances: self.config.system.instances,
            executed_batches: self.replica.committed_prefix(),
            execution_window_start: self.replica.execution_window_start(),
            execution_digests: self.replica.execution_digests(),
            ledger_head: self.replica.ledger_head(),
            ledger_blocks: self
                .engine
                .ledger()
                .blocks()
                .map(|block| (block.round, block.content_digest()))
                .collect(),
            state_fingerprint: self.engine.state_fingerprint(),
            replies_sent: self.replies_sent,
            auth_failures: self.auth_failures,
            decode_failures: self.decode_failures,
            suspicions: self.suspicions,
            view_changes: self.view_changes,
            // Counter snapshots stay readable after `shutdown` joined the
            // I/O threads, so report order does not matter.
            transport: self.transport.stats(),
            telemetry,
            flight,
        }
    }
}

/// Compares the execution orders of a set of node reports on the overlap of
/// their retained windows: every pair must agree digest-for-digest wherever
/// both still hold the round. Returns a human-readable explanation of the
/// first divergence.
pub fn verify_identical_orders(reports: &[NodeReport]) -> Result<(), String> {
    for (i, a) in reports.iter().enumerate() {
        for b in reports.iter().skip(i + 1) {
            let m = a.instances.max(1);
            let start = a.execution_window_start.max(b.execution_window_start);
            let skip_a = ((start - a.execution_window_start) as usize).saturating_mul(m);
            let skip_b = ((start - b.execution_window_start) as usize).saturating_mul(m);
            let wa = a.execution_digests.get(skip_a..).unwrap_or(&[]);
            let wb = b.execution_digests.get(skip_b..).unwrap_or(&[]);
            let overlap = wa.len().min(wb.len());
            if wa[..overlap] != wb[..overlap] {
                let at = wa[..overlap]
                    .iter()
                    .zip(&wb[..overlap])
                    .position(|(x, y)| x != y)
                    .unwrap_or(0);
                return Err(format!(
                    "{} and {} diverge at overlap index {at} (window start round {start})",
                    a.replica, b.replica
                ));
            }
        }
    }
    Ok(())
}

/// Compares the executed ledgers of a set of node reports, keyed by round:
/// wherever two replicas both executed a round, their blocks' content
/// digests must match, and replicas that executed the *same* span of rounds
/// must also agree on the post-execution state fingerprint. Keying by round
/// (rather than chain position) makes the check robust to restarts: a
/// rejoined replica's engine starts empty at its adopted checkpoint round,
/// so its chain is shorter but its per-round content must still agree.
pub fn verify_identical_ledgers(reports: &[NodeReport]) -> Result<(), String> {
    for (i, a) in reports.iter().enumerate() {
        for b in reports.iter().skip(i + 1) {
            let by_round: BTreeMap<Round, Digest> = b.ledger_blocks.iter().copied().collect();
            for &(round, digest) in &a.ledger_blocks {
                if let Some(&other) = by_round.get(&round) {
                    if other != digest {
                        return Err(format!(
                            "{} and {} executed different ledger blocks for round {round}",
                            a.replica, b.replica
                        ));
                    }
                }
            }
            let rounds_a: Vec<Round> = a.ledger_blocks.iter().map(|&(r, _)| r).collect();
            let rounds_b: Vec<Round> = b.ledger_blocks.iter().map(|&(r, _)| r).collect();
            if rounds_a == rounds_b && a.state_fingerprint != b.state_fingerprint {
                return Err(format!(
                    "{} and {} executed identical rounds but diverge on state \
                     fingerprints ({:016x} vs {:016x})",
                    a.replica, b.replica, a.state_fingerprint, b.state_fingerprint
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{queue_capacity, ClientChannel, InProcessNetwork};
    use rcc_common::{ClientRequest, CryptoMode, InstanceId, Transaction};
    use rcc_crypto::AuthTag;

    fn submission(client: ClientId, amount: i64) -> Batch {
        Batch::new(vec![ClientRequest::new(
            client,
            0,
            Transaction::transfer(0, 1, 0, amount),
        )])
    }

    /// One burst mixing valid and forged frames: only the forgeries are
    /// rejected, and the valid submission is accepted.
    #[test]
    fn inline_verification_rejects_forgeries_within_one_burst() {
        let system = SystemConfig::new(4)
            .with_instances(2)
            .with_crypto(CryptoMode::Mac);
        let me = ReplicaId(0);
        let keys = DeploymentKeys::generate(&system);
        let hub = InProcessNetwork::new(system.n, queue_capacity(&system));
        let transport = hub.transport(me);
        let client = ClientId(7);
        let mut channel = hub.client(client);

        // A real consensus message: replica 1's proposal on the instance
        // it coordinates.
        let mut peer = RccReplica::over_pbft(system.clone(), ReplicaId(1));
        let proposal = peer
            .propose_for(Time::ZERO, InstanceId(1), submission(ClientId(8), 5))
            .into_iter()
            .find_map(|action| match action {
                Action::Broadcast { message } => Some(message.encoded()),
                _ => None,
            })
            .expect("the coordinator broadcasts its proposal");
        let peer_auth = Authenticator::new(system.crypto, keys.replica_keys(ReplicaId(1)));
        let my_auth = Authenticator::new(system.crypto, keys.replica_keys(me));
        let valid_tag = peer_auth.tag_for_replica(me, &proposal);
        let AuthTag::Mac(mut corrupted) = valid_tag else {
            panic!("MAC deployment produced a non-MAC tag");
        };
        corrupted.0[0] ^= 0xFF;

        let client_mac = &keys.client_keys(client).mac_with_replicas[me.index()];
        let forged = submission(client, 10).encoded();
        let valid = submission(client, 20);
        let valid_payload = valid.encoded();
        let frames = [
            Frame::Replica {
                from: ReplicaId(1),
                payload: proposal.clone(),
                tag: valid_tag,
            },
            Frame::Replica {
                from: ReplicaId(1),
                payload: proposal.clone(),
                tag: AuthTag::Mac(corrupted),
            },
            Frame::Replica {
                from: me,
                tag: my_auth.tag_for_replica(me, &proposal),
                payload: proposal,
            },
            Frame::ClientSubmit {
                client,
                instance: InstanceId(0),
                tag: AuthTag::Mac(client_mac.tag(b"some other payload")),
                payload: forged,
            },
            Frame::ClientSubmit {
                client,
                instance: InstanceId(0),
                tag: AuthTag::Mac(client_mac.tag(&valid_payload)),
                payload: valid_payload,
            },
        ];
        // Queued before the node starts, so its first drain takes them as
        // one burst.
        for frame in &frames {
            channel.submit(me, frame.encode_frame());
        }
        let node = spawn_node(NodeConfig::new(system, me), transport).expect("spawn node");

        let want = rcc_crypto::digest_batch(&valid);
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut accepted = false;
        while !accepted && Instant::now() < deadline {
            let Some(bytes) = channel.recv_timeout(Duration::from_millis(50)) else {
                continue;
            };
            accepted = matches!(
                Frame::decode_frame(&bytes),
                Ok(Frame::ClientAccept { replica, digest }) if replica == me && digest == want
            );
        }
        let report = node.shutdown().expect("node report");
        assert!(accepted, "the valid submission got no ClientAccept");
        assert_eq!(report.auth_failures, 3);
        assert_eq!(report.decode_failures, 0);
    }

    fn report(replica: u32, start: Round, digests: Vec<u8>) -> NodeReport {
        NodeReport {
            replica: ReplicaId(replica),
            instances: 1,
            executed_batches: digests.len() as u64,
            execution_window_start: start,
            execution_digests: digests
                .into_iter()
                .map(|b| Digest::from_bytes([b; 32]))
                .collect(),
            ledger_head: Digest::ZERO,
            ledger_blocks: Vec::new(),
            state_fingerprint: 0,
            replies_sent: 0,
            auth_failures: 0,
            decode_failures: 0,
            suspicions: 0,
            view_changes: 0,
            transport: TransportStats::default(),
            telemetry: Snapshot::default(),
            flight: Vec::new(),
        }
    }

    #[test]
    fn identical_orders_verify_on_overlapping_windows() {
        // Replica 1 pruned its first two rounds; the overlap agrees.
        let a = report(0, 0, vec![1, 2, 3, 4]);
        let b = report(1, 2, vec![3, 4]);
        verify_identical_orders(&[a, b]).expect("overlap agrees");
    }

    #[test]
    fn diverging_orders_are_reported() {
        let a = report(0, 0, vec![1, 2, 3]);
        let b = report(1, 0, vec![1, 9, 3]);
        let err = verify_identical_orders(&[a, b]).expect_err("divergence");
        assert!(err.contains("diverge"), "{err}");
    }

    fn ledgered(replica: u32, blocks: Vec<(Round, u8)>, fingerprint: u64) -> NodeReport {
        let mut r = report(replica, 0, vec![]);
        r.ledger_blocks = blocks
            .into_iter()
            .map(|(round, b)| (round, Digest::from_bytes([b; 32])))
            .collect();
        r.state_fingerprint = fingerprint;
        r
    }

    #[test]
    fn identical_ledgers_verify_across_offset_windows() {
        // Replica 1 restarted from a round-2 checkpoint: its engine holds a
        // shorter chain, but the per-round content agrees.
        let a = ledgered(0, vec![(0, 1), (1, 2), (2, 3), (3, 4)], 77);
        let b = ledgered(1, vec![(2, 3), (3, 4)], 99);
        verify_identical_ledgers(&[a, b]).expect("round overlap agrees");
    }

    #[test]
    fn diverging_ledger_content_is_reported() {
        let a = ledgered(0, vec![(0, 1), (1, 2)], 77);
        let b = ledgered(1, vec![(0, 1), (1, 9)], 77);
        let err = verify_identical_ledgers(&[a, b]).expect_err("divergence");
        assert!(err.contains("round 1"), "{err}");
    }

    #[test]
    fn equal_round_spans_must_agree_on_state() {
        let a = ledgered(0, vec![(0, 1), (1, 2)], 77);
        let b = ledgered(1, vec![(0, 1), (1, 2)], 78);
        let err = verify_identical_ledgers(&[a, b]).expect_err("fingerprints");
        assert!(err.contains("fingerprints"), "{err}");
    }
}
