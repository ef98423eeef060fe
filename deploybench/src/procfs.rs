//! Reads OS accounting from `/proc` with the standard library only: per
//! thread CPU and run-queue wait (`/proc/self/task/*/schedstat`), process
//! CPU (`/proc/self/stat`), and machine-wide busy/idle/steal time
//! (`/proc/stat`). Everything here observes the program from outside.

use std::collections::BTreeMap;
use std::fs;

/// The layer a thread of the deployment belongs to, recognised by the name
/// the program gives it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Group {
    /// `rcc-node-N`: the replica mailbox threads (`network::node`).
    Mailbox,
    /// `rcc-edge-N-i`: the client-edge I/O threads (`network::event_loop`).
    Edge,
    /// `rcc-worker-i`: the verify/execute pool (`common::pool`).
    Pool,
    /// `rcc-peer-reader` plus every unnamed thread: the TCP acceptor and
    /// per-peer writer threads of `network::tcp` are spawned without a name
    /// and inherit their creator's.
    Tcp,
}

impl Group {
    /// Every group, in report order.
    pub const ALL: [Group; 4] = [Group::Mailbox, Group::Tcp, Group::Edge, Group::Pool];

    /// The metric-name prefix of the group.
    pub fn label(self) -> &'static str {
        match self {
            Group::Mailbox => "node.mailbox",
            Group::Edge => "edge",
            Group::Pool => "pool",
            Group::Tcp => "tcp",
        }
    }
}

/// Maps a thread name (as `/proc/*/comm` shows it, at most 15 bytes) to its
/// group. Names the program does not set fall to [`Group::Tcp`].
pub fn group_of(name: &str) -> Group {
    if name.starts_with("rcc-node-") {
        Group::Mailbox
    } else if name.starts_with("rcc-edge-") {
        Group::Edge
    } else if name.starts_with("rcc-worker") {
        Group::Pool
    } else {
        Group::Tcp
    }
}

/// One thread's cumulative scheduler accounting.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ThreadSample {
    /// Thread name from `comm`, trailing newline removed.
    pub name: String,
    /// Nanoseconds spent running on a CPU.
    pub run_ns: u64,
    /// Nanoseconds spent runnable but waiting for a CPU.
    pub wait_ns: u64,
}

/// Parses the first two fields of a `schedstat` line:
/// `<run ns> <run-queue wait ns> <timeslices>`.
pub fn parse_schedstat(text: &str) -> Option<(u64, u64)> {
    let mut fields = text.split_whitespace();
    let run = fields.next()?.parse().ok()?;
    let wait = fields.next()?.parse().ok()?;
    Some((run, wait))
}

/// Samples every live thread of this process, keyed by thread id. Threads
/// that exit between listing and reading are skipped.
pub fn threads() -> BTreeMap<u32, ThreadSample> {
    let mut out = BTreeMap::new();
    let Ok(entries) = fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in entries.flatten() {
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        let dir = entry.path();
        let (Ok(comm), Ok(stat)) = (
            fs::read_to_string(dir.join("comm")),
            fs::read_to_string(dir.join("schedstat")),
        ) else {
            continue;
        };
        if let Some((run_ns, wait_ns)) = parse_schedstat(&stat) {
            out.insert(
                tid,
                ThreadSample {
                    name: comm.trim_end().to_string(),
                    run_ns,
                    wait_ns,
                },
            );
        }
    }
    out
}

/// The calling thread's id, from the `/proc/thread-self` link
/// (`<pid>/task/<tid>`).
pub fn current_tid() -> Option<u32> {
    let link = fs::read_link("/proc/thread-self").ok()?;
    link.file_name()?.to_str()?.parse().ok()
}

/// CPU and run-queue wait per group over an interval, in nanoseconds.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GroupCpu {
    /// Nanoseconds running, per group.
    pub run_ns: BTreeMap<Group, u64>,
    /// Nanoseconds runnable but not running, per group.
    pub wait_ns: BTreeMap<Group, u64>,
    /// Nanoseconds running of the excluded (benchmark-owned) threads.
    pub excluded_run_ns: u64,
}

/// Attributes the growth between two samples to groups. Threads listed in
/// `exclude` (the load generator) are summed apart. A thread born after
/// `before` counts from zero; one that exited before `after` is lost, which
/// only happens to a node killed on purpose.
pub fn group_delta(
    before: &BTreeMap<u32, ThreadSample>,
    after: &BTreeMap<u32, ThreadSample>,
    exclude: &[u32],
) -> GroupCpu {
    let mut cpu = GroupCpu::default();
    for (tid, now) in after {
        let (run0, wait0) = before
            .get(tid)
            .filter(|then| then.name == now.name)
            .map_or((0, 0), |then| (then.run_ns, then.wait_ns));
        let run = now.run_ns.saturating_sub(run0);
        let wait = now.wait_ns.saturating_sub(wait0);
        if exclude.contains(tid) {
            cpu.excluded_run_ns += run;
            continue;
        }
        let group = group_of(&now.name);
        *cpu.run_ns.entry(group).or_default() += run;
        *cpu.wait_ns.entry(group).or_default() += wait;
    }
    cpu
}

/// Clock ticks per second of `/proc` time fields (`USER_HZ`, fixed at 100 by
/// the Linux ABI on every mainstream architecture).
const USER_HZ: u64 = 100;

/// Parses `utime + stime` of a `/proc/<pid>/stat` line into nanoseconds.
/// The command name may contain spaces and parentheses, so fields are
/// counted from the last `)`.
pub fn parse_process_cpu_ns(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After the command: state is field 3 of the line, utime 14, stime 15.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) * (1_000_000_000 / USER_HZ))
}

/// CPU time of the whole process so far, including threads that exited.
pub fn process_cpu_ns() -> Option<u64> {
    parse_process_cpu_ns(&fs::read_to_string("/proc/self/stat").ok()?)
}

/// Machine-wide CPU time from the aggregate line of `/proc/stat`, in ticks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MachineCpu {
    /// All ticks (guest time is already inside user time).
    pub total: u64,
    /// Idle plus I/O-wait ticks.
    pub idle: u64,
    /// Ticks the hypervisor ran something else while this guest wanted a CPU.
    pub steal: u64,
}

/// Parses the aggregate `cpu` line of `/proc/stat`.
pub fn parse_machine_cpu(text: &str) -> Option<MachineCpu> {
    let line = text.lines().find(|l| l.starts_with("cpu "))?;
    let ticks: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().unwrap_or(0))
        .collect();
    let get = |i: usize| ticks.get(i).copied().unwrap_or(0);
    // user nice system idle iowait irq softirq steal [guest guest_nice]
    Some(MachineCpu {
        total: (0..8).map(get).sum(),
        idle: get(3) + get(4),
        steal: get(7),
    })
}

/// Samples `/proc/stat`.
pub fn machine_cpu() -> MachineCpu {
    fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|t| parse_machine_cpu(&t))
        .unwrap_or_default()
}

/// The first three fields of `/proc/loadavg`.
pub fn loadavg() -> String {
    fs::read_to_string("/proc/loadavg")
        .map(|t| t.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|_| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(name: &str, run_ns: u64, wait_ns: u64) -> ThreadSample {
        ThreadSample {
            name: name.to_string(),
            run_ns,
            wait_ns,
        }
    }

    #[test]
    fn schedstat_lines_parse() {
        assert_eq!(parse_schedstat("1234 567 89\n"), Some((1234, 567)));
        assert_eq!(parse_schedstat("12"), None);
        assert_eq!(parse_schedstat("x 1 2"), None);
    }

    #[test]
    fn thread_names_map_to_layers_and_unnamed_threads_to_tcp() {
        assert_eq!(group_of("rcc-node-3"), Group::Mailbox);
        assert_eq!(group_of("rcc-edge-0-1"), Group::Edge);
        assert_eq!(group_of("rcc-worker-2"), Group::Pool);
        assert_eq!(group_of("rcc-peer-reader"), Group::Tcp);
        // Unnamed threads inherit whatever their creator was called.
        assert_eq!(group_of("deploybench"), Group::Tcp);
        assert_eq!(group_of(""), Group::Tcp);
    }

    #[test]
    fn deltas_group_by_name_count_new_threads_from_zero_and_exclude_the_driver() {
        let before: BTreeMap<u32, ThreadSample> = [
            (10, sample("rcc-node-0", 100, 10)),
            (11, sample("rcc-worker-0", 50, 5)),
            (12, sample("deploybench", 7, 0)),
        ]
        .into_iter()
        .collect();
        let after: BTreeMap<u32, ThreadSample> = [
            (10, sample("rcc-node-0", 300, 30)),
            (11, sample("rcc-worker-0", 80, 6)),
            (12, sample("deploybench", 1007, 0)),
            (13, sample("deploybench", 40, 4)), // unnamed writer born later
            (14, sample("rcc-peer-reader", 25, 1)),
        ]
        .into_iter()
        .collect();
        let cpu = group_delta(&before, &after, &[12]);
        assert_eq!(cpu.run_ns[&Group::Mailbox], 200);
        assert_eq!(cpu.wait_ns[&Group::Mailbox], 20);
        assert_eq!(cpu.run_ns[&Group::Pool], 30);
        assert_eq!(cpu.run_ns[&Group::Tcp], 65);
        assert_eq!(cpu.wait_ns[&Group::Tcp], 5);
        assert_eq!(cpu.excluded_run_ns, 1000);
        assert!(!cpu.run_ns.contains_key(&Group::Edge));
    }

    #[test]
    fn a_reused_thread_id_with_a_new_name_counts_from_zero() {
        let before: BTreeMap<u32, ThreadSample> =
            [(10, sample("rcc-node-1", 900, 90))].into_iter().collect();
        let after: BTreeMap<u32, ThreadSample> =
            [(10, sample("rcc-edge-1-0", 40, 4))].into_iter().collect();
        let cpu = group_delta(&before, &after, &[]);
        assert_eq!(cpu.run_ns[&Group::Edge], 40);
    }

    #[test]
    fn process_stat_counts_fields_after_the_command_name() {
        // Fields 14 and 15 (utime, stime) are 250 and 50 ticks.
        let line = "4242 (deploy (x) bench) S 1 4242 4242 0 -1 4194560 100 0 0 0 \
                    250 50 0 0 20 0 61 0 123 456 789";
        assert_eq!(parse_process_cpu_ns(line), Some(300 * 10_000_000));
    }

    #[test]
    fn machine_cpu_reads_idle_and_steal() {
        let text = "cpu  100 5 50 800 20 1 4 20 0 0\ncpu0 1 2 3 4 5 6 7 8 0 0\n";
        let cpu = parse_machine_cpu(text).expect("aggregate line");
        assert_eq!(cpu.total, 1000);
        assert_eq!(cpu.idle, 820);
        assert_eq!(cpu.steal, 20);
    }
}
