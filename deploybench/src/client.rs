//! The load generator's socket shell: one client identity, one nonblocking
//! connection per replica, all swept by the calling thread. It encodes and
//! MACs each [`Submit`] the driver hands out and feeds every verified reply,
//! accept, reject, and connection loss back into the driver.

use crate::driver::Driver;
use crate::workloads::STREAM;
use rcc_common::{ClientId, Digest, ReplicaId, SystemConfig};
use rcc_crypto::{AuthTag, ClientKeys, DeploymentKeys};
use rcc_network::{Frame, NbConn, PeerKind};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Outbound frames one connection may queue: room for every batch the
/// closed loop keeps in flight, so a submission is never dropped here.
const CONN_QUEUE: usize = 256;
/// Bytes read per connection per sweep.
const READ_BUDGET: usize = 64 * 1024;
/// Connect timeout of one dial.
const DIAL_TIMEOUT: Duration = Duration::from_millis(100);
/// Re-dial backoff after a failed dial or a lost connection.
const REDIAL_FLOOR_US: u64 = 50_000;
const REDIAL_CAP_US: u64 = 500_000;
/// Park between sweeps that moved nothing.
const IDLE_PARK: Duration = Duration::from_micros(200);

struct Link {
    conn: Option<NbConn>,
    next_dial_us: u64,
    backoff_us: u64,
}

/// Protocol violations the shell saw; any of them fails the run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Violations {
    /// Frames from a replica that did not decode.
    pub undecodable: u64,
    /// Replies whose tag did not verify under the replica's MAC key.
    pub bad_tags: u64,
}

/// The generator's connections and keys.
pub struct Client {
    system: SystemConfig,
    addrs: Vec<SocketAddr>,
    keys: ClientKeys,
    links: Vec<Link>,
    epoch: Instant,
    /// Protocol violations seen so far.
    pub violations: Violations,
}

impl Client {
    /// A client of the deployment at `addrs`, clocked from `epoch`. Links
    /// are dialed on the first sweep.
    pub fn new(system: &SystemConfig, addrs: &[SocketAddr], epoch: Instant) -> Client {
        let keys = DeploymentKeys::generate(system).client_keys(ClientId(STREAM));
        Client {
            system: system.clone(),
            addrs: addrs.to_vec(),
            keys,
            links: addrs
                .iter()
                .map(|_| Link {
                    conn: None,
                    next_dial_us: 0,
                    backoff_us: REDIAL_FLOOR_US,
                })
                .collect(),
            epoch,
            violations: Violations::default(),
        }
    }

    /// Microseconds since the epoch.
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    fn dial(&self, addr: SocketAddr) -> std::io::Result<NbConn> {
        let stream = TcpStream::connect_timeout(&addr, DIAL_TIMEOUT)?;
        let mut conn = NbConn::new(stream, CONN_QUEUE)?;
        let hello = Frame::Hello {
            peer: PeerKind::Client(ClientId(STREAM)),
        };
        if !conn.enqueue(&hello.encode_frame()) {
            return Err(std::io::ErrorKind::WouldBlock.into());
        }
        conn.flush();
        Ok(conn)
    }

    fn lose(&mut self, driver: &mut Driver, replica: usize, now: u64) {
        let link = &mut self.links[replica];
        link.conn = None;
        link.next_dial_us = now + link.backoff_us;
        link.backoff_us = (link.backoff_us * 2).min(REDIAL_CAP_US);
        driver.on_refused(now, ReplicaId(replica as u32));
    }

    /// One sweep: re-dial, read and dispatch replies, submit what the driver
    /// wants, flush. Returns whether anything moved.
    pub fn sweep(&mut self, driver: &mut Driver) -> bool {
        let mut moved = false;
        for replica in 0..self.links.len() {
            let now = self.now_us();
            if self.links[replica].conn.is_none() {
                if now < self.links[replica].next_dial_us {
                    continue;
                }
                match self.dial(self.addrs[replica]) {
                    Ok(conn) => {
                        self.links[replica].conn = Some(conn);
                        self.links[replica].backoff_us = REDIAL_FLOOR_US;
                    }
                    Err(_) => {
                        self.lose(driver, replica, now);
                        continue;
                    }
                }
            }
            let mut frames = Vec::new();
            let mut dead = false;
            if let Some(conn) = self.links[replica].conn.as_mut() {
                moved |= conn.flush();
                moved |= conn.fill(READ_BUDGET) > 0;
                while let Some(frame) = conn.next_frame() {
                    frames.push(frame);
                }
                dead = conn.is_dead();
            }
            let now = self.now_us();
            for bytes in frames {
                dead |= self.dispatch(driver, &bytes, now);
            }
            if dead {
                self.lose(driver, replica, now);
                moved = true;
            }
        }
        let now = self.now_us();
        for submit in driver.poll(now) {
            moved = true;
            let payload = driver.ops()[submit.op].payload.clone();
            let tag =
                AuthTag::Mac(self.keys.mac_with_replicas[submit.replica.index()].tag(&payload));
            let frame = Frame::ClientSubmit {
                client: ClientId(STREAM),
                instance: submit.instance,
                payload,
                tag,
            }
            .encode_frame();
            let queued = self.links[submit.replica.index()]
                .conn
                .as_mut()
                .is_some_and(|conn| conn.enqueue(&frame));
            if !queued {
                driver.on_refused(now, submit.replica);
            }
        }
        for link in &mut self.links {
            if let Some(conn) = link.conn.as_mut() {
                moved |= conn.flush();
            }
        }
        moved
    }

    /// Applies one frame from a replica. Returns `true` when the replica
    /// turned the whole connection away.
    fn dispatch(&mut self, driver: &mut Driver, bytes: &[u8], now: u64) -> bool {
        match Frame::decode_frame(bytes) {
            Ok(Frame::ClientReply {
                replica,
                digest,
                tag,
            }) => {
                let verified = replica.index() < self.system.n
                    && matches!(&tag, AuthTag::Mac(mac)
                        if self.keys.mac_with_replicas[replica.index()].verify(digest.as_bytes(), mac));
                if verified {
                    driver.on_reply(now, replica, digest);
                } else {
                    self.violations.bad_tags += 1;
                }
            }
            Ok(Frame::ClientAccept { replica, digest }) => driver.on_accept(now, replica, digest),
            Ok(Frame::ClientReject { digest, .. }) if digest == Digest::ZERO => return true,
            Ok(Frame::ClientReject { replica, digest }) => driver.on_reject(now, replica, digest),
            Ok(_) => {}
            Err(_) => self.violations.undecodable += 1,
        }
        false
    }

    /// Sweeps until `until_us`, or until `done` holds.
    pub fn run(&mut self, driver: &mut Driver, until_us: u64, done: impl Fn(&Driver) -> bool) {
        while self.now_us() < until_us && !done(driver) {
            if !self.sweep(driver) {
                std::thread::sleep(IDLE_PARK);
            }
        }
    }
}
