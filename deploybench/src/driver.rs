//! The load generator's policy, sans-io: which batch goes where and when,
//! what counts as completed or failed, and every timestamp the metrics
//! need. Time is microseconds of the caller's clock, so the tests drive it
//! with synthetic events and the socket shell in `client.rs` drives it
//! with the wall clock.
//!
//! Batches go round-robin over the instances' believed coordinators. A
//! batch completes on `f + 1` matching replies from distinct replicas whose
//! digest equals the generator's own `digest_batch` of what it sent. An
//! *attempt* fails when the coordinator rejects it, its connection is
//! refused or lost, or no reply quorum arrives within the reply timeout;
//! the batch is then resubmitted, so a due request stays counted until it
//! completes. Failover follows §III-E as `rcc_workload::DriverSession`
//! does, with its default timings ([`Policy`]): a silent or refusing
//! coordinator is rotated past, and an instance that fails
//! `strikes_before_drain` times in a row is drained for a probe interval
//! while its batches go to the other instance.

use crate::workloads::{Load, Source};
use rcc_common::codec::Encode;
use rcc_common::{Digest, InstanceId, ReplicaId, SystemConfig};
use std::collections::{HashMap, VecDeque};

/// A batch its coordinator accepted but that is still unanswered this long
/// after submission is sent again: the coordinator may have died holding it.
pub const ACKED_RESUBMIT_US: u64 = 3_000_000;

/// The §III-E client timings, in microseconds, taken from the program's
/// `SessionConfig::default()` so a change to a default is measured.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Policy {
    /// A batch without its reply quorum this long is a failed attempt.
    pub reply_timeout_us: u64,
    /// Consecutive failures of one instance before its batches are drained
    /// to the other instance.
    pub strikes_before_drain: u32,
    /// How long a drained instance receives no batches before it is probed.
    pub probe_interval_us: u64,
    /// Pause before resubmitting after a reject or refusal, so a rejecting
    /// replica is not hot-spun.
    pub retry_pause_us: u64,
}

impl Policy {
    /// The program's default client policy.
    pub fn program_default() -> Policy {
        let config = rcc_workload::SessionConfig::default();
        Policy {
            reply_timeout_us: config.reply_timeout_ms * 1_000,
            strikes_before_drain: config.home_failures_before_drain,
            probe_interval_us: config.home_probe_interval_ms * 1_000,
            retry_pause_us: config.reject_pause_ms * 1_000,
        }
    }
}

/// Why an attempt failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Failure {
    /// The coordinator answered with a `ClientReject` for the batch.
    Rejected,
    /// The connection was refused, closed, or turned away at admission.
    Refused,
    /// No reply quorum within [`Policy::reply_timeout_us`].
    TimedOut,
}

/// Attempts made in the measurement window and how they failed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Attempts {
    /// Submissions put on the wire.
    pub attempted: u64,
    /// Rejected by the coordinator.
    pub rejected: u64,
    /// Lost to a refused or dead connection.
    pub refused: u64,
    /// Unanswered after the reply timeout.
    pub timed_out: u64,
}

impl Attempts {
    /// Failed attempts of every kind.
    pub fn failed(&self) -> u64 {
        self.rejected + self.refused + self.timed_out
    }

    /// Failed attempts over attempts (0 when nothing was attempted).
    pub fn failed_frac(&self) -> f64 {
        crate::stats::ratio(self.failed() as f64, self.attempted as f64)
    }
}

/// One submission for the shell to put on the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Submit {
    /// Index of the batch in [`Driver::ops`].
    pub op: usize,
    /// The replica believed to coordinate `instance`.
    pub replica: ReplicaId,
    /// The instance the batch is submitted to.
    pub instance: InstanceId,
}

#[derive(Clone, Copy, Debug)]
struct Attempt {
    replica: ReplicaId,
    instance: InstanceId,
    sent_us: u64,
    acked: bool,
    /// Already counted as timed out (accepted but still unanswered).
    overdue: bool,
    counted: bool,
}

/// One batch the generator owes the deployment.
#[derive(Clone, Debug)]
pub struct Op {
    /// The encoded batch, the payload of every `ClientSubmit` for it.
    pub payload: Vec<u8>,
    /// Transactions in the batch.
    pub txns: u64,
    /// When the batch became due: its schedule slot in the open loop, the
    /// moment its window slot freed in the closed loop.
    pub due_us: u64,
    /// First submission.
    pub first_sent_us: Option<u64>,
    /// First `ClientAccept` from the replica it was submitted to.
    pub accepted_us: Option<u64>,
    /// First verified reply.
    pub first_reply_us: Option<u64>,
    /// The `f + 1`-th matching reply.
    pub completed_us: Option<u64>,
    home: InstanceId,
    attempt: Option<Attempt>,
    retry_at_us: u64,
    replied: u32,
}

#[derive(Clone, Copy, Debug)]
struct Route {
    candidate: ReplicaId,
    strikes: u32,
    drained_until_us: u64,
    /// When the candidate last accepted a batch: a coordinator that did so
    /// within the reply timeout is alive, so its rejects mean a full
    /// window, not a wrong coordinator.
    last_accept_us: Option<u64>,
}

/// The generator's state.
pub struct Driver {
    n: usize,
    m: usize,
    quorum: u32,
    policy: Policy,
    load: Load,
    source: Source,
    ops: Vec<Op>,
    by_digest: HashMap<Digest, usize>,
    /// Ops created and not yet completed.
    active: Vec<usize>,
    routes: Vec<Route>,
    next_home: usize,
    next_due_us: u64,
    /// Closed loop: when each freed window slot freed, oldest first; the
    /// batch that takes the slot is due then.
    freed_us: VecDeque<u64>,
    window: (u64, u64),
    attempts: Attempts,
    /// Replies whose digest matches no batch this generator sent.
    pub unknown_replies: u64,
    /// Submit → `ClientAccept`, per accepted attempt sent in the window.
    pub accept_us: Vec<u64>,
    /// `ClientAccept` → first reply, per batch due in the window.
    pub commit_us: Vec<u64>,
    /// First reply → `f + 1`-th reply, per batch due in the window.
    pub quorum_us: Vec<u64>,
}

impl Driver {
    /// A generator for `system` offering `load` from `source`, starting at
    /// time `now_us`.
    pub fn new(system: &SystemConfig, load: Load, source: Source, now_us: u64) -> Driver {
        let m = system.instances.max(1);
        Driver {
            n: system.n,
            m,
            quorum: system.client_reply_quorum() as u32,
            policy: Policy::program_default(),
            load,
            source,
            ops: Vec::new(),
            by_digest: HashMap::new(),
            active: Vec::new(),
            routes: (0..m as u32)
                .map(|i| Route {
                    candidate: InstanceId(i).primary(),
                    strikes: 0,
                    drained_until_us: 0,
                    last_accept_us: None,
                })
                .collect(),
            next_home: 0,
            next_due_us: now_us,
            freed_us: VecDeque::new(),
            window: (u64::MAX, u64::MAX),
            attempts: Attempts::default(),
            unknown_replies: 0,
            accept_us: Vec::new(),
            commit_us: Vec::new(),
            quorum_us: Vec::new(),
        }
    }

    /// Offers `load` from `now_us` on. Batches already created keep going.
    pub fn set_load(&mut self, load: Load, now_us: u64) {
        self.load = load;
        self.next_due_us = now_us;
        self.freed_us.clear();
    }

    /// Every batch created so far.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Sets the measurement window `[start, end)`: attempts sent inside it
    /// are counted in [`Driver::attempts`].
    pub fn set_window(&mut self, start_us: u64, end_us: u64) {
        self.window = (start_us, end_us);
    }

    fn in_window(&self, at_us: u64) -> bool {
        at_us >= self.window.0 && at_us < self.window.1
    }

    /// Batches due before `end_us` and not yet completed.
    pub fn owed_before(&self, end_us: u64) -> usize {
        self.active
            .iter()
            .filter(|&&i| self.ops[i].due_us < end_us)
            .count()
    }

    /// Attempt accounting of the window.
    pub fn attempts(&self) -> Attempts {
        self.attempts
    }

    /// Advances to `now_us`: fails silent attempts, creates the batches the
    /// load calls for, and returns every submission now due.
    pub fn poll(&mut self, now_us: u64) -> Vec<Submit> {
        let timeout_us = self.policy.reply_timeout_us;
        for index in self.active.clone() {
            let Some(attempt) = self.ops[index].attempt else {
                continue;
            };
            let age = now_us.saturating_sub(attempt.sent_us);
            if !attempt.acked {
                if age > timeout_us {
                    self.fail(index, Failure::TimedOut, now_us);
                }
                continue;
            }
            if age > timeout_us && !attempt.overdue {
                if attempt.counted {
                    self.attempts.timed_out += 1;
                }
                if let Some(a) = self.ops[index].attempt.as_mut() {
                    a.overdue = true;
                }
            }
            if age > ACKED_RESUBMIT_US {
                self.ops[index].attempt = None;
                self.ops[index].retry_at_us = now_us;
            }
        }
        match self.load {
            Load::Closed { per_instance } => {
                while self.active.len() < per_instance * self.m {
                    let due = self.freed_us.pop_front().unwrap_or(now_us);
                    self.create(due);
                }
            }
            Load::Open { interval_us } => {
                while self.next_due_us <= now_us {
                    let due = self.next_due_us;
                    self.create(due);
                    self.next_due_us += interval_us.max(1);
                }
            }
        }
        let mut out = Vec::new();
        for position in 0..self.active.len() {
            let index = self.active[position];
            let op = &self.ops[index];
            if op.attempt.is_some() || op.retry_at_us > now_us {
                continue;
            }
            let instance = self.route_for(op.home, now_us);
            let replica = self.routes[instance.index()].candidate;
            let counted = self.in_window(now_us);
            if counted {
                self.attempts.attempted += 1;
            }
            let op = &mut self.ops[index];
            op.first_sent_us.get_or_insert(now_us);
            op.attempt = Some(Attempt {
                replica,
                instance,
                sent_us: now_us,
                acked: false,
                overdue: false,
                counted,
            });
            out.push(Submit {
                op: index,
                replica,
                instance,
            });
        }
        out
    }

    fn create(&mut self, due_us: u64) {
        let batch = self.source.next_batch();
        let digest = rcc_crypto::digest_batch(&batch);
        let home = match self.load {
            // Refill the instance with the fewest batches in flight, so
            // each coordinator holds at most its window.
            Load::Closed { .. } => {
                let mut load = vec![0usize; self.m];
                for &i in &self.active {
                    load[self.ops[i].home.index()] += 1;
                }
                let start = self.next_home;
                (0..self.m)
                    .map(|k| (start + k) % self.m)
                    .min_by_key(|&i| load[i])
                    .unwrap_or(0)
            }
            Load::Open { .. } => self.next_home % self.m,
        };
        self.next_home = (home + 1) % self.m;
        let index = self.ops.len();
        self.ops.push(Op {
            payload: batch.encoded(),
            txns: batch.len() as u64,
            due_us,
            first_sent_us: None,
            accepted_us: None,
            first_reply_us: None,
            completed_us: None,
            home: InstanceId(home as u32),
            attempt: None,
            retry_at_us: due_us,
            replied: 0,
        });
        self.by_digest.insert(digest, index);
        self.active.push(index);
    }

    /// The home instance unless it is drained; then the next undrained one.
    fn route_for(&self, home: InstanceId, now_us: u64) -> InstanceId {
        (0..self.m)
            .map(|k| (home.index() + k) % self.m)
            .find(|&i| self.routes[i].drained_until_us <= now_us)
            .map_or(home, |i| InstanceId(i as u32))
    }

    fn fail(&mut self, index: usize, why: Failure, now_us: u64) {
        let Some(attempt) = self.ops[index].attempt.take() else {
            return;
        };
        if attempt.counted && !attempt.overdue {
            match why {
                Failure::Rejected => self.attempts.rejected += 1,
                Failure::Refused => self.attempts.refused += 1,
                Failure::TimedOut => self.attempts.timed_out += 1,
            }
        }
        self.ops[index].retry_at_us = match why {
            Failure::TimedOut => now_us,
            Failure::Rejected | Failure::Refused => now_us + self.policy.retry_pause_us,
        };
        let n = self.n as u32;
        let policy = self.policy;
        let route = &mut self.routes[attempt.instance.index()];
        let window_full = why == Failure::Rejected
            && route.candidate == attempt.replica
            && route
                .last_accept_us
                .is_some_and(|at| now_us.saturating_sub(at) <= policy.reply_timeout_us);
        if window_full {
            return;
        }
        if route.candidate == attempt.replica {
            route.candidate = ReplicaId((attempt.replica.0 + 1) % n);
            route.last_accept_us = None;
        }
        route.strikes += 1;
        if route.strikes >= policy.strikes_before_drain && self.m > 1 {
            route.strikes = 0;
            route.drained_until_us = now_us + policy.probe_interval_us;
        }
    }

    /// The coordinator accepted `digest` into its pipeline.
    pub fn on_accept(&mut self, now_us: u64, replica: ReplicaId, digest: Digest) {
        let Some(&index) = self.by_digest.get(&digest) else {
            return;
        };
        let window = self.window;
        let op = &mut self.ops[index];
        if let Some(attempt) = op.attempt.as_mut() {
            if attempt.replica == replica && !attempt.acked {
                attempt.acked = true;
                let route = &mut self.routes[attempt.instance.index()];
                if route.candidate == replica {
                    route.last_accept_us = Some(now_us);
                }
                op.accepted_us.get_or_insert(now_us);
                if attempt.sent_us >= window.0 && attempt.sent_us < window.1 {
                    self.accept_us.push(now_us - attempt.sent_us);
                }
            }
        }
    }

    /// The coordinator turned `digest` away.
    pub fn on_reject(&mut self, now_us: u64, replica: ReplicaId, digest: Digest) {
        let Some(&index) = self.by_digest.get(&digest) else {
            return;
        };
        if self.ops[index]
            .attempt
            .is_some_and(|a| a.replica == replica)
        {
            self.fail(index, Failure::Rejected, now_us);
        }
    }

    /// The connection to `replica` was refused, lost, or turned away: every
    /// attempt routed there fails, and no instance keeps it as candidate.
    pub fn on_refused(&mut self, now_us: u64, replica: ReplicaId) {
        for index in self.active.clone() {
            if self.ops[index]
                .attempt
                .is_some_and(|a| a.replica == replica)
            {
                self.fail(index, Failure::Refused, now_us);
            }
        }
        let n = self.n as u32;
        for route in &mut self.routes {
            if route.candidate == replica {
                route.candidate = ReplicaId((replica.0 + 1) % n);
                route.last_accept_us = None;
            }
        }
    }

    /// A verified reply from `replica` carrying `digest`. Returns `false`
    /// for a digest this generator never sent: a correctness failure.
    pub fn on_reply(&mut self, now_us: u64, replica: ReplicaId, digest: Digest) -> bool {
        let Some(&index) = self.by_digest.get(&digest) else {
            self.unknown_replies += 1;
            return false;
        };
        let window = self.window;
        let op = &mut self.ops[index];
        let bit = 1u32 << replica.index().min(31);
        if op.replied & bit != 0 {
            return true;
        }
        op.replied |= bit;
        op.first_reply_us.get_or_insert(now_us);
        if op.completed_us.is_some() || op.replied.count_ones() < self.quorum {
            return true;
        }
        op.completed_us = Some(now_us);
        let instance = op.attempt.take().map_or(op.home, |a| a.instance);
        if op.due_us >= window.0 && op.due_us < window.1 {
            if let (Some(accepted), Some(first)) = (op.accepted_us, op.first_reply_us) {
                self.commit_us.push(first.saturating_sub(accepted));
            }
            if let Some(first) = op.first_reply_us {
                self.quorum_us.push(now_us - first);
            }
        }
        self.routes[instance.index()].strikes = 0;
        self.active.retain(|&i| i != index);
        if matches!(self.load, Load::Closed { .. }) {
            self.freed_us.push_back(now_us);
        }
        true
    }
}

/// What one run's batches add up to over a window `[start, end)`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WindowResult {
    /// Batches that completed inside the window.
    pub completed_batches: u64,
    /// Their transactions.
    pub completed_txns: u64,
    /// Transactions per second between the window's first and last
    /// completion: every completion but the first, over the time they span.
    pub txns_per_s: f64,
    /// Completions in each whole second of the window.
    pub per_second: Vec<u64>,
    /// Batches due inside the window.
    pub due: u64,
    /// Of those, batches never completed.
    pub never_completed: u64,
    /// Due → quorum (open loop) or first submit → quorum (closed loop) of
    /// every completed batch due in the window.
    pub latency_us: Vec<u64>,
    /// Due → first submission of every batch due in the window.
    pub late_us: Vec<u64>,
    /// Longest stretch without a completed batch, from `outage_from` to
    /// the window's end.
    pub outage_us: u64,
}

/// Summarises `ops` over the window. `open` selects the latency origin;
/// `outage_from` is where the outage scan starts (the kill, or the
/// window's start).
pub fn window_result(
    ops: &[Op],
    start: u64,
    end: u64,
    open: bool,
    outage_from: u64,
) -> WindowResult {
    let mut r = WindowResult {
        per_second: vec![0; end.saturating_sub(start).div_ceil(1_000_000) as usize],
        ..WindowResult::default()
    };
    let mut completions: Vec<(u64, u64)> = Vec::new();
    for op in ops {
        if let Some(done) = op.completed_us.filter(|&d| d >= start && d < end) {
            completions.push((done, op.txns));
            r.per_second[((done - start) / 1_000_000) as usize] += 1;
        }
        if op.due_us < start || op.due_us >= end {
            continue;
        }
        r.due += 1;
        if let Some(sent) = op.first_sent_us {
            r.late_us.push(sent.saturating_sub(op.due_us));
        }
        match op.completed_us {
            Some(done) => {
                let origin = if open {
                    op.due_us
                } else {
                    op.first_sent_us.unwrap_or(op.due_us)
                };
                r.latency_us.push(done.saturating_sub(origin));
            }
            None => r.never_completed += 1,
        }
    }
    completions.sort_unstable();
    r.completed_batches = completions.len() as u64;
    r.completed_txns = completions.iter().map(|&(_, txns)| txns).sum();
    if let (Some(&(first, first_txns)), Some(&(last, _))) =
        (completions.first(), completions.last())
    {
        if last > first {
            r.txns_per_s = (r.completed_txns - first_txns) as f64 * 1e6 / (last - first) as f64;
        }
    }
    let mut previous = outage_from;
    for &(done, _) in completions.iter().filter(|&&(done, _)| done >= outage_from) {
        r.outage_us = r.outage_us.max(done - previous);
        previous = done;
    }
    r.outage_us = r.outage_us.max(end.saturating_sub(previous));
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{Mix, Source};

    const OPEN: Load = Load::Open {
        interval_us: 10_000,
    };
    /// One batch at time 0, the next only after every test has finished.
    const ONE: Load = Load::Open {
        interval_us: 1_000_000_000,
    };

    fn timeout_us() -> u64 {
        Policy::program_default().reply_timeout_us
    }

    fn pause_us() -> u64 {
        Policy::program_default().retry_pause_us
    }

    fn system() -> SystemConfig {
        SystemConfig::new(4).with_instances(2)
    }

    fn driver(load: Load) -> Driver {
        Driver::new(&system(), load, Source::new(Mix::Ycsb, 3, 10), 0)
    }

    /// The digest the generator keys batch `op` by.
    fn digest_of(d: &Driver, op: usize) -> Digest {
        d.by_digest
            .iter()
            .find_map(|(&digest, &i)| (i == op).then_some(digest))
            .expect("every created batch has a digest")
    }

    fn complete(d: &mut Driver, now: u64, op: usize) {
        let digest = digest_of(d, op);
        assert!(d.on_reply(now, ReplicaId(2), digest));
        assert!(d.on_reply(now, ReplicaId(3), digest));
    }

    #[test]
    fn the_policy_is_the_programs_session_default() {
        let policy = Policy::program_default();
        let config = rcc_workload::SessionConfig::default();
        assert_eq!(policy.reply_timeout_us, config.reply_timeout_ms * 1_000);
        assert_eq!(policy.retry_pause_us, config.reject_pause_ms * 1_000);
        assert_eq!(
            policy.strikes_before_drain,
            config.home_failures_before_drain
        );
        assert_eq!(
            policy.probe_interval_us,
            config.home_probe_interval_ms * 1_000
        );
    }

    #[test]
    fn a_load_switch_keeps_earlier_batches_and_schedules_from_the_switch() {
        let mut d = driver(Load::Closed { per_instance: 1 });
        assert_eq!(d.poll(0).len(), 2);
        complete(&mut d, 50, 0);
        d.set_load(OPEN, 100);
        // Batch 1 is still in flight; the schedule starts at the switch.
        assert!(d.poll(100).iter().all(|s| s.op == 2));
        assert_eq!(d.ops()[2].due_us, 100);
        assert_eq!(d.poll(25_000).len(), 2);
        let due: Vec<u64> = d.ops()[3..].iter().map(|op| op.due_us).collect();
        assert_eq!(due, vec![10_100, 20_100]);
        complete(&mut d, 30_000, 1);
        assert_eq!(d.owed_before(u64::MAX), 3);
    }

    #[test]
    fn open_loop_batches_are_due_on_the_schedule_even_when_polled_late() {
        let mut d = driver(OPEN);
        d.set_window(0, 1_000_000);
        // Polled 35 ms in: four slots (0, 10, 20, 30 ms) are due at once.
        let subs = d.poll(35_000);
        assert_eq!(subs.len(), 4);
        let due: Vec<u64> = d.ops().iter().map(|op| op.due_us).collect();
        assert_eq!(due, vec![0, 10_000, 20_000, 30_000]);
        // Round-robin over both instances' initial coordinators.
        let targets: Vec<(u32, u32)> = subs.iter().map(|s| (s.instance.0, s.replica.0)).collect();
        assert_eq!(targets, vec![(0, 0), (1, 1), (0, 0), (1, 1)]);
        for op in 0..4 {
            complete(&mut d, 40_000, op);
        }
        let r = window_result(d.ops(), 0, 1_000_000, true, 0);
        // Latency runs from the due time, lateness from due to first send.
        assert_eq!(r.latency_us, vec![40_000, 30_000, 20_000, 10_000]);
        assert_eq!(r.late_us, vec![35_000, 25_000, 15_000, 5_000]);
        assert_eq!(r.due, 4);
        assert_eq!(r.completed_batches, 4);
        assert_eq!(r.per_second, vec![4]);
    }

    #[test]
    fn closed_loop_keeps_the_window_per_instance_and_refills_on_completion() {
        let mut d = driver(Load::Closed { per_instance: 3 });
        let subs = d.poll(0);
        assert_eq!(subs.len(), 6);
        for instance in 0..2 {
            assert_eq!(subs.iter().filter(|s| s.instance.0 == instance).count(), 3);
        }
        assert!(d.poll(1).is_empty());
        complete(&mut d, 500, 1);
        let refill = d.poll(600);
        assert_eq!(refill.len(), 1);
        assert_eq!(refill[0].instance, subs[1].instance);
        let r = window_result(d.ops(), 0, 1_000, false, 0);
        assert_eq!(r.latency_us, vec![500]);
        // The refill was due when the slot freed, and went out at 600.
        assert_eq!(refill[0].op, 6);
        assert_eq!(d.ops()[6].due_us, 500);
        assert_eq!(r.late_us.iter().copied().max(), Some(100));
    }

    #[test]
    fn a_quorum_needs_distinct_replicas_and_unknown_digests_are_counted() {
        let mut d = driver(OPEN);
        d.poll(0);
        let digest = digest_of(&d, 0);
        assert!(d.on_reply(10, ReplicaId(1), digest));
        assert!(d.on_reply(11, ReplicaId(1), digest));
        assert_eq!(d.ops()[0].completed_us, None);
        assert!(d.on_reply(12, ReplicaId(0), digest));
        assert_eq!(d.ops()[0].completed_us, Some(12));
        assert!(!d.on_reply(13, ReplicaId(0), Digest::ZERO));
        assert_eq!(d.unknown_replies, 1);
    }

    #[test]
    fn rejects_timeouts_and_refusals_count_as_failed_attempts() {
        let mut d = driver(ONE);
        d.set_window(0, u64::MAX);
        assert_eq!(d.poll(0).len(), 1);
        let digest = digest_of(&d, 0);
        // 1: rejected by the coordinator; resent after the pause, to R1.
        d.on_reject(100, ReplicaId(0), digest);
        assert!(d.poll(5_000).is_empty(), "the resend waits out the pause");
        let resent = d.poll(10_100);
        assert_eq!(resent.len(), 1);
        assert_eq!(resent[0].replica, ReplicaId(1), "rotated past R0");
        // 2: the connection to R1 is refused.
        d.on_refused(10_200, ReplicaId(1));
        // 3: the resend to R2 draws no answer within the reply timeout and
        // goes out again at once.
        let resent = d.poll(20_200);
        assert_eq!(resent[0].replica, ReplicaId(2));
        assert_eq!(d.poll(20_200 + timeout_us() + 1).len(), 1);
        let a = d.attempts();
        assert_eq!(
            (a.attempted, a.rejected, a.refused, a.timed_out),
            (4, 1, 1, 1)
        );
        assert_eq!(a.failed(), 3);
        assert_eq!(a.failed_frac(), 0.75);
        // The batch is still owed, and counts as never completed.
        assert_eq!(d.owed_before(1), 1);
        assert_eq!(window_result(d.ops(), 0, 1_000, true, 0).never_completed, 1);
    }

    #[test]
    fn an_accepted_batch_that_stalls_counts_once_and_is_resent_later() {
        let mut d = driver(ONE);
        d.set_window(0, u64::MAX);
        d.poll(0);
        let digest = digest_of(&d, 0);
        d.on_accept(50, ReplicaId(0), digest);
        assert_eq!(d.accept_us, vec![50]);
        assert!(d.poll(timeout_us() + 1).is_empty(), "no resend yet");
        assert!(d.poll(2 * timeout_us()).is_empty());
        assert_eq!(d.attempts().timed_out, 1);
        let resent = d.poll(ACKED_RESUBMIT_US + 1);
        assert_eq!(resent.len(), 1);
        assert_eq!(
            resent[0].replica,
            ReplicaId(0),
            "an accepting coordinator is kept"
        );
        assert_eq!(d.attempts().attempted, 2);
        assert_eq!(d.attempts().timed_out, 1);
    }

    #[test]
    fn a_coordinator_that_just_accepted_keeps_its_batches_after_a_reject() {
        let mut d = driver(Load::Closed { per_instance: 2 });
        d.set_window(0, u64::MAX);
        let subs = d.poll(0);
        let on_r0: Vec<usize> = subs
            .iter()
            .filter(|s| s.replica.0 == 0)
            .map(|s| s.op)
            .collect();
        d.on_accept(10, ReplicaId(0), digest_of(&d, on_r0[0]));
        // A full window: the live coordinator rejects the second batch.
        d.on_reject(20, ReplicaId(0), digest_of(&d, on_r0[1]));
        let retry = d.poll(20 + pause_us());
        assert_eq!(retry.len(), 1);
        assert_eq!((retry[0].op, retry[0].replica), (on_r0[1], ReplicaId(0)));
        assert_eq!(d.attempts().rejected, 1);
        // Without a recent accept, a reject means a wrong coordinator.
        d.on_reject(timeout_us() + 100, ReplicaId(0), digest_of(&d, on_r0[1]));
        let retry = d.poll(timeout_us() + 100 + pause_us());
        assert_eq!(retry[0].replica, ReplicaId(1));
    }

    #[test]
    fn refused_instances_drain_to_the_other_instance() {
        let mut d = driver(OPEN);
        d.poll(0); // batch 0 → instance 0 at R0
        d.on_refused(1, ReplicaId(0));
        d.on_refused(2, ReplicaId(1));
        // Instance 0 struck once (R0's attempt). Its next failure drains it.
        let subs = d.poll(pause_us() + 10);
        let home0 = subs.iter().find(|s| s.op == 0).expect("retry");
        assert_eq!(home0.replica, ReplicaId(2), "rotated past R0 and R1");
        d.on_reject(pause_us() + 20, ReplicaId(2), digest_of(&d, 0));
        let subs = d.poll(2 * pause_us() + 30);
        let retry = subs.iter().find(|s| s.op == 0).expect("retry");
        assert_eq!(retry.instance, InstanceId(1), "instance 0 is drained");
    }

    #[test]
    fn outage_is_the_longest_gap_from_the_origin() {
        let ops: Vec<Op> = [100u64, 150, 900, 950]
            .iter()
            .map(|&done| {
                let mut d = driver(OPEN);
                d.poll(0);
                let mut op = d.ops()[0].clone();
                op.completed_us = Some(done);
                op
            })
            .collect();
        let r = window_result(&ops, 0, 1_000, true, 0);
        assert_eq!(r.outage_us, 750);
        // Three more batches of 10 transactions over the 850 µs they span.
        assert_eq!(r.txns_per_s, 30.0 * 1e6 / 850.0);
        assert_eq!(window_result(&ops, 0, 1_000, true, 920).outage_us, 50);
        // Nothing after the origin: the whole remainder is an outage.
        assert_eq!(window_result(&ops, 0, 2_000, true, 960).outage_us, 1_040);
    }
}
