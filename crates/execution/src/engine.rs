//! The deterministic execution engine.
//!
//! Two execution paths produce byte-identical results:
//!
//! * [`ExecutionEngine::execute_round`] — the sequential path, and the one
//!   the deployed node runs: every transaction of the round applied in the
//!   agreed order.
//! * [`ExecutionEngine::execute_round_parallel`] — the pipelined path: the
//!   round's transactions are partitioned into independent conflict groups
//!   (see [`crate::conflict`]), groups execute concurrently on a
//!   [`WorkerPool`] with their writes buffered in per-group overlays, and
//!   the overlays merge back in deterministic group order. Groups touch
//!   provably disjoint written state and the storage fingerprints compose
//!   by XOR over final records, so the merged state, ledger, summary, and
//!   replies are bit-identical to the sequential path — the property the
//!   `parallel_equivalence` harness pins across seeds and worker counts.

use crate::conflict::{access_set, conflict_groups};
use crate::reply::{ClientReply, ExecutionOutcome};
use rcc_common::pool::WorkerPool;
use rcc_common::BatchId;
use rcc_common::{Batch, ClientRequest, Digest, ReplicaId, Round, TransactionKind};
use rcc_crypto::hash::digest_batch;
use rcc_storage::ledger::BlockEntry;
use rcc_storage::table::Record;
use rcc_storage::{AccountStore, Checkpoint, Ledger, RecordTable};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Summary statistics of everything the engine has executed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecutionSummary {
    /// Rounds (blocks) executed.
    pub rounds: u64,
    /// Batches executed.
    pub batches: u64,
    /// Client transactions executed (excluding no-ops).
    pub transactions: u64,
    /// No-op filler requests skipped.
    pub noops: u64,
}

/// Executes ordered batches deterministically against replica state.
pub struct ExecutionEngine {
    replica: ReplicaId,
    table: RecordTable,
    accounts: AccountStore,
    ledger: Ledger,
    summary: ExecutionSummary,
}

impl ExecutionEngine {
    /// Creates an engine for `replica` with an empty table and empty
    /// accounts.
    pub fn new(replica: ReplicaId) -> Self {
        ExecutionEngine {
            replica,
            table: RecordTable::new(),
            accounts: AccountStore::new(),
            ledger: Ledger::new(),
            summary: ExecutionSummary::default(),
        }
    }

    /// Creates an engine whose record table is pre-populated with `records`
    /// keys of `payload_size` bytes each — the experiment initialization of
    /// Section V-A (500 000 records in the paper).
    pub fn with_ycsb_table(replica: ReplicaId, records: u64, payload_size: usize) -> Self {
        ExecutionEngine {
            replica,
            table: RecordTable::initialize(records, payload_size),
            accounts: AccountStore::new(),
            ledger: Ledger::new(),
            summary: ExecutionSummary::default(),
        }
    }

    /// Creates an engine with initial account balances (for bank scenarios).
    pub fn with_accounts(replica: ReplicaId, balances: &[(u32, i64)]) -> Self {
        ExecutionEngine {
            replica,
            table: RecordTable::new(),
            accounts: AccountStore::with_balances(balances),
            ledger: Ledger::new(),
            summary: ExecutionSummary::default(),
        }
    }

    /// The replica this engine belongs to.
    pub fn replica(&self) -> ReplicaId {
        self.replica
    }

    /// Read access to the ledger.
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// Read access to the record table.
    pub fn table(&self) -> &RecordTable {
        &self.table
    }

    /// Read access to the account store.
    pub fn accounts(&self) -> &AccountStore {
        &self.accounts
    }

    /// Execution statistics so far.
    pub fn summary(&self) -> ExecutionSummary {
        self.summary
    }

    /// A combined fingerprint of the mutable state (table + accounts);
    /// replicas that executed the same ordered transactions have equal
    /// fingerprints.
    pub fn state_fingerprint(&self) -> u64 {
        self.table.fingerprint() ^ self.accounts.fingerprint().rotate_left(17)
    }

    /// Takes a checkpoint of the current state after `round`.
    pub fn checkpoint(&self, round: Round) -> Checkpoint {
        Checkpoint {
            round,
            ledger_head: self.ledger.head_digest(),
            table_fingerprint: self.table.fingerprint(),
            accounts_fingerprint: self.accounts.fingerprint(),
            state_bytes: self.table.snapshot_bytes() + self.accounts.snapshot_bytes(),
        }
    }

    fn execute_kind(&mut self, kind: &TransactionKind) -> ExecutionOutcome {
        match kind {
            TransactionKind::YcsbRead { key } => match self.table.read(*key) {
                Some(record) => ExecutionOutcome::ReadResult {
                    bytes: record.payload.len(),
                    found: true,
                },
                None => ExecutionOutcome::ReadResult {
                    bytes: 0,
                    found: false,
                },
            },
            TransactionKind::YcsbWrite { key, value } => {
                self.table.write(*key, value.clone());
                let version = self.table.peek(*key).map(|r| r.version).unwrap_or(0);
                ExecutionOutcome::WriteApplied { version }
            }
            TransactionKind::YcsbReadModifyWrite { key, delta } => {
                self.table.read_modify_write(*key, delta);
                let version = self.table.peek(*key).map(|r| r.version).unwrap_or(0);
                ExecutionOutcome::WriteApplied { version }
            }
            TransactionKind::YcsbScan { start, count } => {
                let records = self.table.scan(*start, *count);
                ExecutionOutcome::ScanResult { records }
            }
            TransactionKind::Transfer {
                from,
                to,
                min_balance,
                amount,
            } => {
                let applied = self.accounts.transfer(*from, *to, *min_balance, *amount);
                ExecutionOutcome::TransferResult {
                    applied,
                    from_balance: self.accounts.balance(*from),
                    to_balance: self.accounts.balance(*to),
                }
            }
            TransactionKind::Deposit { account, amount } => {
                self.accounts.deposit(*account, *amount);
                ExecutionOutcome::Balance {
                    balance: self.accounts.balance(*account),
                }
            }
            TransactionKind::BalanceQuery { account } => ExecutionOutcome::Balance {
                balance: self.accounts.balance(*account),
            },
            TransactionKind::NoOp => ExecutionOutcome::NoOp,
        }
    }

    /// Executes one ordered round: the given `(batch id, batch)` pairs are
    /// executed in the order provided, a block is appended to the ledger, and
    /// one reply per client request is returned.
    ///
    /// The `round` is the RCC round (or the baseline's sequence number); the
    /// caller is responsible for having agreed on the order (Section III-B
    /// step 2 / the Section IV permutation).
    pub fn execute_round(
        &mut self,
        round: Round,
        ordered: &[(BatchId, Batch)],
    ) -> Vec<ClientReply> {
        let entries: Vec<BlockEntry> = ordered
            .iter()
            .map(|(id, batch)| BlockEntry {
                batch: *id,
                digest: digest_batch(batch),
                transactions: batch.effective_transactions(),
            })
            .collect();
        let block_digest: Digest = {
            let block = self.ledger.append(round, entries);
            block.digest
        };

        let mut replies = Vec::new();
        let mut position: u32 = 0;
        for (_, batch) in ordered {
            self.summary.batches += 1;
            for request in &batch.requests {
                if request.is_noop() {
                    self.summary.noops += 1;
                    continue;
                }
                let outcome = self.execute_kind(&request.transaction.kind);
                self.summary.transactions += 1;
                replies.push(ClientReply {
                    request: request.id,
                    replica: self.replica,
                    executed_in_round: round,
                    position_in_round: position,
                    outcome,
                    block_digest,
                });
                position += 1;
            }
        }
        self.summary.rounds += 1;
        replies
    }

    /// Executes one ordered round with non-conflicting transactions running
    /// concurrently on `pool`, producing results byte-identical to
    /// [`ExecutionEngine::execute_round`] — same state fingerprints, same
    /// ledger blocks, same summary, same replies in the same order.
    ///
    /// The ledger append, reply positions, and summary counters are computed
    /// sequentially (they depend only on the agreed order, not on outcomes);
    /// the transactions themselves execute in conflict groups buffered
    /// against the shared pre-round state, and each group's final writes and
    /// access counts merge back in deterministic group order.
    pub fn execute_round_parallel(
        &mut self,
        round: Round,
        ordered: &[(BatchId, Batch)],
        pool: &WorkerPool,
    ) -> Vec<ClientReply> {
        let entries: Vec<BlockEntry> = ordered
            .iter()
            .map(|(id, batch)| BlockEntry {
                batch: *id,
                digest: digest_batch(batch),
                transactions: batch.effective_transactions(),
            })
            .collect();
        let block_digest: Digest = {
            let block = self.ledger.append(round, entries);
            block.digest
        };

        // Flatten the round into its deterministic execution order: batches
        // in instance-id order, requests in batch order, no-ops skipped.
        // Positions are assigned here, before anything runs.
        let mut txns: Vec<(u32, ClientRequest)> = Vec::new();
        let mut sets = Vec::new();
        let mut position: u32 = 0;
        for (_, batch) in ordered {
            self.summary.batches += 1;
            for request in &batch.requests {
                if request.is_noop() {
                    self.summary.noops += 1;
                    continue;
                }
                sets.push(access_set(&request.transaction.kind));
                txns.push((position, request.clone()));
                self.summary.transactions += 1;
                position += 1;
            }
        }
        self.summary.rounds += 1;
        if txns.is_empty() {
            return Vec::new();
        }

        let groups = conflict_groups(&sets);
        // Workers read the pre-round state concurrently; shared ownership
        // is temporary and reclaimed below once every job has finished.
        let base_table = Arc::new(std::mem::take(&mut self.table));
        let base_accounts = Arc::new(std::mem::take(&mut self.accounts));
        let mut slots: Vec<Option<(u32, ClientRequest)>> = txns.into_iter().map(Some).collect();
        let replica = self.replica;
        let jobs: Vec<_> = groups
            .into_iter()
            .map(|members| {
                let members: Vec<(u32, ClientRequest)> = members
                    .into_iter()
                    .map(|i| slots[i].take().expect("each txn is in exactly one group"))
                    .collect();
                let table = Arc::clone(&base_table);
                let accounts = Arc::clone(&base_accounts);
                move || {
                    let mut group = GroupExecution::new(&table, &accounts);
                    let outcomes: Vec<(u32, ClientReply)> = members
                        .into_iter()
                        .map(|(pos, request)| {
                            let outcome = group.execute(&request.transaction.kind);
                            (
                                pos,
                                ClientReply {
                                    request: request.id,
                                    replica,
                                    executed_in_round: round,
                                    position_in_round: pos,
                                    outcome,
                                    block_digest,
                                },
                            )
                        })
                        .collect();
                    group.finish(outcomes)
                }
            })
            .collect();
        let results = pool.run_ordered(jobs);

        // Every job has returned, so the temporary shared ownership is back
        // to exactly one reference each.
        self.table = Arc::try_unwrap(base_table).expect("workers released the table");
        self.accounts = Arc::try_unwrap(base_accounts).expect("workers released the accounts");

        // Merge in deterministic group order. Groups write disjoint keys, so
        // the order provably cannot matter — it is fixed anyway so that any
        // future invariant violation shows up as a deterministic divergence,
        // not a heisenbug.
        let mut replies: Vec<(u32, ClientReply)> = Vec::with_capacity(position as usize);
        for result in results {
            for (key, record) in result.records {
                self.table.install(key, record.payload, record.version);
            }
            for (account, balance) in result.balances {
                self.accounts.set_balance(account, balance);
            }
            self.table.note_accesses(result.reads, result.writes);
            replies.extend(result.outcomes);
        }
        replies.sort_by_key(|(pos, _)| *pos);
        replies.into_iter().map(|(_, reply)| reply).collect()
    }
}

/// What one conflict group produced: its buffered writes and statistics.
struct GroupResult {
    records: BTreeMap<u64, Record>,
    balances: BTreeMap<u32, i64>,
    reads: u64,
    writes: u64,
    outcomes: Vec<(u32, ClientReply)>,
}

/// Executes one conflict group against the shared pre-round state, buffering
/// all writes in overlays. The semantics of every operation mirror
/// [`ExecutionEngine`]'s sequential `execute_kind` exactly — versions,
/// access-counter increments, entry creation, and outcome payloads included.
/// Other groups cannot observe or disturb this group's keys (that is what
/// the conflict partition guarantees), so overlay-over-base reads see
/// precisely the state the sequential schedule would have seen.
struct GroupExecution<'a> {
    table: &'a RecordTable,
    accounts: &'a AccountStore,
    records: BTreeMap<u64, Record>,
    balances: BTreeMap<u32, i64>,
    reads: u64,
    writes: u64,
}

impl<'a> GroupExecution<'a> {
    fn new(table: &'a RecordTable, accounts: &'a AccountStore) -> Self {
        GroupExecution {
            table,
            accounts,
            records: BTreeMap::new(),
            balances: BTreeMap::new(),
            reads: 0,
            writes: 0,
        }
    }

    fn record(&self, key: u64) -> Option<&Record> {
        self.records.get(&key).or_else(|| self.table.peek(key))
    }

    fn balance(&self, account: u32) -> i64 {
        self.balances
            .get(&account)
            .copied()
            .unwrap_or_else(|| self.accounts.balance(account))
    }

    fn write(&mut self, key: u64, payload: Vec<u8>) -> u64 {
        self.writes += 1;
        let version = self.record(key).map(|r| r.version + 1).unwrap_or(0);
        self.records.insert(key, Record { payload, version });
        version
    }

    fn execute(&mut self, kind: &TransactionKind) -> ExecutionOutcome {
        match kind {
            TransactionKind::YcsbRead { key } => {
                self.reads += 1;
                match self.record(*key) {
                    Some(record) => ExecutionOutcome::ReadResult {
                        bytes: record.payload.len(),
                        found: true,
                    },
                    None => ExecutionOutcome::ReadResult {
                        bytes: 0,
                        found: false,
                    },
                }
            }
            TransactionKind::YcsbWrite { key, value } => {
                let version = self.write(*key, value.clone());
                ExecutionOutcome::WriteApplied { version }
            }
            TransactionKind::YcsbReadModifyWrite { key, delta } => {
                self.reads += 1;
                let mut payload = self
                    .record(*key)
                    .map(|r| r.payload.clone())
                    .unwrap_or_default();
                payload.extend_from_slice(delta);
                let version = self.write(*key, payload);
                ExecutionOutcome::WriteApplied { version }
            }
            TransactionKind::YcsbScan { start, count } => {
                self.reads += *count as u64;
                // Base records in range, plus overlay-created keys the base
                // does not know. Writers inside the range are necessarily in
                // this group, so the overlay is the only delta to consider.
                let end = start.saturating_add(*count as u64);
                let created = self
                    .records
                    .range(*start..end)
                    .filter(|(key, _)| self.table.peek(**key).is_none())
                    .count();
                ExecutionOutcome::ScanResult {
                    records: self.table.count_range(*start, *count) + created,
                }
            }
            TransactionKind::Transfer {
                from,
                to,
                min_balance,
                amount,
            } => {
                let applied = self.balance(*from) > *min_balance;
                if applied {
                    let debited = self.balance(*from) - amount;
                    self.balances.insert(*from, debited);
                    let credited = self.balance(*to) + amount;
                    self.balances.insert(*to, credited);
                }
                ExecutionOutcome::TransferResult {
                    applied,
                    from_balance: self.balance(*from),
                    to_balance: self.balance(*to),
                }
            }
            TransactionKind::Deposit { account, amount } => {
                let balance = self.balance(*account) + amount;
                self.balances.insert(*account, balance);
                ExecutionOutcome::Balance { balance }
            }
            TransactionKind::BalanceQuery { account } => ExecutionOutcome::Balance {
                balance: self.balance(*account),
            },
            TransactionKind::NoOp => ExecutionOutcome::NoOp,
        }
    }

    fn finish(self, outcomes: Vec<(u32, ClientReply)>) -> GroupResult {
        GroupResult {
            records: self.records,
            balances: self.balances,
            reads: self.reads,
            writes: self.writes,
            outcomes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcc_common::{ClientId, ClientRequest, InstanceId, Transaction};

    fn write_request(client: u64, seq: u64, key: u64) -> ClientRequest {
        ClientRequest::new(
            ClientId(client),
            seq,
            Transaction::new(TransactionKind::YcsbWrite {
                key,
                value: vec![(client + seq) as u8; 16],
            }),
        )
    }

    fn batch_id(instance: u32, round: Round) -> BatchId {
        BatchId {
            instance: InstanceId(instance),
            round,
        }
    }

    #[test]
    fn identical_ordered_input_produces_identical_state_and_replies() {
        let ordered = vec![
            (
                batch_id(0, 0),
                Batch::new(vec![write_request(1, 0, 10), write_request(2, 0, 11)]),
            ),
            (batch_id(1, 0), Batch::new(vec![write_request(3, 0, 10)])),
        ];
        let mut a = ExecutionEngine::with_ycsb_table(ReplicaId(0), 100, 8);
        let mut b = ExecutionEngine::with_ycsb_table(ReplicaId(1), 100, 8);
        let ra = a.execute_round(0, &ordered);
        let rb = b.execute_round(0, &ordered);
        assert_eq!(a.state_fingerprint(), b.state_fingerprint());
        assert_eq!(a.ledger().head_digest(), b.ledger().head_digest());
        assert_eq!(ra.len(), rb.len());
        for (x, y) in ra.iter().zip(rb.iter()) {
            assert!(x.matches(y), "replies from two replicas must match");
        }
    }

    #[test]
    fn different_order_produces_different_state_when_transactions_conflict() {
        // Two writes to the same key in different orders leave different
        // final payloads.
        let b0 = Batch::new(vec![write_request(1, 0, 5)]);
        let b1 = Batch::new(vec![write_request(2, 0, 5)]);
        let mut x = ExecutionEngine::new(ReplicaId(0));
        let mut y = ExecutionEngine::new(ReplicaId(1));
        x.execute_round(
            0,
            &[(batch_id(0, 0), b0.clone()), (batch_id(1, 0), b1.clone())],
        );
        y.execute_round(0, &[(batch_id(1, 0), b1), (batch_id(0, 0), b0)]);
        assert_ne!(
            x.table().peek(5).unwrap().payload,
            y.table().peek(5).unwrap().payload,
            "conflicting writes applied in different orders must differ"
        );
    }

    #[test]
    fn fig6_ordering_attack_outcomes() {
        // Reproduces the table of Fig. 6: initial balances Alice 800, Bob 300,
        // Eve 100; T1 = transfer(Alice, Bob, 500, 200), T2 = transfer(Bob, Eve, 400, 300).
        let t1 = ClientRequest::new(ClientId(1), 0, Transaction::transfer(0, 1, 500, 200));
        let t2 = ClientRequest::new(ClientId(2), 0, Transaction::transfer(1, 2, 400, 300));
        let balances = [(0, 800), (1, 300), (2, 100)];

        let mut first = ExecutionEngine::with_accounts(ReplicaId(0), &balances);
        first.execute_round(
            0,
            &[
                (batch_id(0, 0), Batch::new(vec![t1.clone()])),
                (batch_id(1, 0), Batch::new(vec![t2.clone()])),
            ],
        );
        assert_eq!(
            (
                first.accounts().balance(0),
                first.accounts().balance(1),
                first.accounts().balance(2)
            ),
            (600, 200, 400),
            "T1 then T2 column of Fig. 6"
        );

        let mut second = ExecutionEngine::with_accounts(ReplicaId(0), &balances);
        second.execute_round(
            0,
            &[
                (batch_id(1, 0), Batch::new(vec![t2])),
                (batch_id(0, 0), Batch::new(vec![t1])),
            ],
        );
        assert_eq!(
            (
                second.accounts().balance(0),
                second.accounts().balance(1),
                second.accounts().balance(2)
            ),
            (600, 500, 100),
            "T2 then T1 column of Fig. 6"
        );
    }

    #[test]
    fn noops_are_not_counted_as_transactions() {
        let mut engine = ExecutionEngine::new(ReplicaId(0));
        let replies = engine.execute_round(0, &[(batch_id(0, 0), Batch::noop(InstanceId(0), 0))]);
        assert!(replies.is_empty(), "no replies for no-op filler");
        assert_eq!(engine.summary().transactions, 0);
        assert_eq!(engine.summary().noops, 1);
        assert_eq!(engine.summary().rounds, 1);
    }

    #[test]
    fn ledger_records_every_round_with_transaction_counts() {
        let mut engine = ExecutionEngine::new(ReplicaId(0));
        for round in 0..3u64 {
            let batch = Batch::new(vec![write_request(1, round, round)]);
            engine.execute_round(round, &[(batch_id(0, round), batch)]);
        }
        assert_eq!(engine.ledger().height(), 3);
        assert_eq!(engine.ledger().total_transactions(), 3);
        engine.ledger().verify().unwrap();
    }

    #[test]
    fn reads_and_scans_report_results() {
        let mut engine = ExecutionEngine::with_ycsb_table(ReplicaId(0), 50, 16);
        let read = ClientRequest::new(
            ClientId(1),
            0,
            Transaction::new(TransactionKind::YcsbRead { key: 7 }),
        );
        let miss = ClientRequest::new(
            ClientId(1),
            1,
            Transaction::new(TransactionKind::YcsbRead { key: 999 }),
        );
        let scan = ClientRequest::new(
            ClientId(1),
            2,
            Transaction::new(TransactionKind::YcsbScan {
                start: 45,
                count: 10,
            }),
        );
        let replies =
            engine.execute_round(0, &[(batch_id(0, 0), Batch::new(vec![read, miss, scan]))]);
        assert_eq!(replies.len(), 3);
        assert_eq!(
            replies[0].outcome,
            ExecutionOutcome::ReadResult {
                bytes: 16,
                found: true
            }
        );
        assert_eq!(
            replies[1].outcome,
            ExecutionOutcome::ReadResult {
                bytes: 0,
                found: false
            }
        );
        assert_eq!(
            replies[2].outcome,
            ExecutionOutcome::ScanResult { records: 5 }
        );
    }
}
