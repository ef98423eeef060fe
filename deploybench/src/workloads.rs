//! The named workloads and their seeded batch sources.

use rcc_common::rng::SplitMix64;
use rcc_common::{Batch, ClientId, ClientRequest, Transaction, TransactionKind};
use rcc_workload::YcsbGenerator;

/// The benchmark's only client identity. Request ids are tagged with it
/// (see [`rcc_workload::stream_of_client`]) so replicas route every reply
/// back over this client's connections.
pub const STREAM: u64 = 0;

/// Batches in flight per instance in the closed loop: the coordinators'
/// `out_of_order_window`. A refill that reaches a coordinator before its
/// own commit frees the slot is rejected and retried.
pub const CLOSED_PER_INSTANCE: usize = 32;

/// Open-loop schedule: one batch every 20 ms (50 batches/s, 5 k txn/s),
/// which keeps most of a 2-vCPU machine idle.
pub const PACED_INTERVAL_US: u64 = 20_000;

/// How a workload offers load.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Load {
    /// Keep this many batches in flight per instance.
    Closed {
        /// Batches in flight per instance.
        per_instance: usize,
    },
    /// Submit one batch every `interval_us`, whatever the replies do.
    Open {
        /// Microseconds between due times.
        interval_us: u64,
    },
}

/// What transactions the batches carry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mix {
    /// The repository's YCSB mix: 90 % writes, uniform over 500 k keys.
    Ycsb,
    /// Deposits and conditional transfers (Example IV.1) over 64 accounts.
    BankHot,
}

/// One named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Workload {
    /// Name on the command line.
    pub name: &'static str,
    /// Offered load.
    pub load: Load,
    /// Transaction mix.
    pub mix: Mix,
    /// Whether instance 1's coordinator is killed and restarted mid-window.
    pub crash: bool,
}

/// Every workload the benchmark knows. `BENCHMARK.json` gates the three
/// paced ones; the two closed loops are kept for runs by hand, because
/// what they measure, the capacity of the CPUs the host grants, moves with
/// the hypervisor's steal on a shared machine (see `README.md`).
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "ycsb-saturate",
        load: Load::Closed {
            per_instance: CLOSED_PER_INSTANCE,
        },
        mix: Mix::Ycsb,
        crash: false,
    },
    Workload {
        name: "ycsb-paced",
        load: Load::Open {
            interval_us: PACED_INTERVAL_US,
        },
        mix: Mix::Ycsb,
        crash: false,
    },
    Workload {
        name: "bank-paced",
        load: Load::Open {
            interval_us: PACED_INTERVAL_US,
        },
        mix: Mix::BankHot,
        crash: false,
    },
    Workload {
        name: "bank-hot",
        load: Load::Closed {
            per_instance: CLOSED_PER_INSTANCE,
        },
        mix: Mix::BankHot,
        crash: false,
    },
    Workload {
        name: "crash-paced",
        load: Load::Open {
            interval_us: PACED_INTERVAL_US,
        },
        mix: Mix::Ycsb,
        crash: true,
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// Accounts of the bank mix: few enough that nearly every pair of
/// transactions in a round conflicts.
const BANK_ACCOUNTS: u64 = 64;
/// Pseudo-clients per stream, matching the YCSB generator's id tagging.
const CLIENTS_PER_STREAM: u64 = 64;

/// Seeded deposits and conditional transfers over [`BANK_ACCOUNTS`].
#[derive(Clone, Debug)]
pub struct BankGenerator {
    rng: SplitMix64,
    client_base: u64,
    next_sequence: u64,
    batch_size: usize,
}

impl BankGenerator {
    /// The generator of `stream`, forked from `seed`.
    pub fn new(seed: u64, stream: u64, batch_size: usize) -> BankGenerator {
        BankGenerator {
            rng: SplitMix64::new(seed).fork(stream + 1),
            client_base: (stream + 1) << 32,
            next_sequence: 0,
            batch_size: batch_size.max(1),
        }
    }

    /// The next batch: half deposits, half transfers that move money only
    /// when the source holds more than 100.
    pub fn next_batch(&mut self) -> Batch {
        let requests = (0..self.batch_size)
            .map(|_| {
                let sequence = self.next_sequence;
                self.next_sequence += 1;
                let client = ClientId(self.client_base + sequence % CLIENTS_PER_STREAM);
                let account = self.rng.next_below(BANK_ACCOUNTS) as u32;
                let transaction = if self.rng.next_below(2) == 0 {
                    Transaction::new(TransactionKind::Deposit {
                        account,
                        amount: 1 + self.rng.next_below(100) as i64,
                    })
                } else {
                    let to = (account + 1 + self.rng.next_below(BANK_ACCOUNTS - 1) as u32)
                        % BANK_ACCOUNTS as u32;
                    Transaction::transfer(account, to, 100, 1 + self.rng.next_below(50) as i64)
                };
                ClientRequest::new(client, sequence, transaction)
            })
            .collect();
        Batch::new(requests)
    }
}

/// A workload's batch source.
#[derive(Clone, Debug)]
pub enum Source {
    /// YCSB batches.
    Ycsb(YcsbGenerator),
    /// Bank batches.
    Bank(BankGenerator),
}

impl Source {
    /// The source of `mix`, seeded by the workload seed.
    pub fn new(mix: Mix, seed: u64, batch_size: usize) -> Source {
        match mix {
            Mix::Ycsb => Source::Ycsb(YcsbGenerator::new(seed, STREAM, batch_size)),
            Mix::BankHot => Source::Bank(BankGenerator::new(seed, STREAM, batch_size)),
        }
    }

    /// The next batch.
    pub fn next_batch(&mut self) -> Batch {
        match self {
            Source::Ycsb(g) => g.next_batch(),
            Source::Bank(g) => g.next_batch(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sources_repeat_per_seed_and_differ_across_seeds() {
        for mix in [Mix::Ycsb, Mix::BankHot] {
            let mut a = Source::new(mix, 7, 100);
            let mut b = Source::new(mix, 7, 100);
            let mut c = Source::new(mix, 8, 100);
            let first = a.next_batch();
            assert_eq!(first, b.next_batch());
            assert_ne!(first, c.next_batch());
            assert_eq!(first.len(), 100);
        }
    }

    #[test]
    fn bank_requests_route_replies_to_the_benchmark_client() {
        let batch = BankGenerator::new(1, STREAM, 100).next_batch();
        for request in &batch.requests {
            assert_eq!(
                rcc_workload::stream_of_client(request.id.client),
                Some(STREAM)
            );
            match request.transaction.kind {
                TransactionKind::Deposit { account, .. } => {
                    assert!((account as u64) < BANK_ACCOUNTS)
                }
                TransactionKind::Transfer { from, to, .. } => {
                    assert!((from as u64) < BANK_ACCOUNTS && (to as u64) < BANK_ACCOUNTS);
                    assert_ne!(from, to);
                }
                ref other => panic!("unexpected transaction {other:?}"),
            }
        }
    }

    #[test]
    fn every_workload_name_resolves() {
        for w in WORKLOADS {
            assert_eq!(by_name(w.name), Some(w));
        }
        assert_eq!(by_name("nope"), None);
    }
}
