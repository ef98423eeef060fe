//! Single-thread replay of the workload's own seeded batches through each
//! layer's public functions. No sockets and no other threads compete (the
//! verify pool excepted), so these numbers carry no scheduler noise and
//! show a layer's change before the end-to-end numbers can resolve it.
//! Every replay also checks what it times.

use crate::workloads::{Mix, Source, STREAM};
use rcc_common::codec::{Decode, Encode};
use rcc_common::{Batch, BatchId, ClientId, InstanceId, ReplicaId, SystemConfig, WorkerPool};
use rcc_core::RccReplica;
use rcc_crypto::{Authenticator, DeploymentKeys, VerifyJob, VerifyPool, VerifySource};
use rcc_execution::{access_set, conflict_groups, ExecutionEngine};
use rcc_network::{Frame, DEFAULT_EXECUTION_WORKERS};
use rcc_protocols::harness::Cluster;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Rounds replayed (two batches each, one per instance).
const ROUNDS: usize = 48;
/// Jobs in one verify burst.
const BURST: usize = 32;
/// Timed repetitions; the median is reported.
const REPS: usize = 7;

/// One replay metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// Median over [`REPS`] runs of `f`, which returns the time of one run.
fn median_time(mut f: impl FnMut() -> Duration) -> Duration {
    let mut runs: Vec<Duration> = (0..REPS).map(|_| f()).collect();
    runs.sort_unstable();
    runs[REPS / 2]
}

fn per(d: Duration, count: usize) -> f64 {
    d.as_nanos() as f64 / 1_000.0 / count as f64
}

fn timed(f: impl FnOnce()) -> Duration {
    let start = Instant::now();
    f();
    start.elapsed()
}

/// Replays `ROUNDS` rounds of the workload's batches for `seed` through the
/// codec, crypto, consensus, and execution layers. Fails when a layer's
/// result does not check out.
pub fn run(system: &SystemConfig, mix: Mix, seed: u64) -> Result<Vec<Metric>, String> {
    let count = ROUNDS * system.instances;
    let batches: Vec<Batch> = {
        let mut source = Source::new(mix, seed, system.batch_size);
        (0..count).map(|_| source.next_batch()).collect()
    };
    let mut out: Vec<Metric> = Vec::new();

    let gen = median_time(|| {
        let mut source = Source::new(mix, seed, system.batch_size);
        timed(|| {
            for _ in 0..count {
                black_box(source.next_batch());
            }
        })
    });
    out.push(("workload.gen_us_per_batch", per(gen, count), "us"));

    // Codec: the batch payload and its `ClientSubmit` frame, both ways.
    let keys = DeploymentKeys::generate(system);
    let client = keys.client_keys(ClientId(STREAM));
    let payloads: Vec<Vec<u8>> = batches.iter().map(Encode::encoded).collect();
    let tags: Vec<_> = payloads
        .iter()
        .map(|p| client.mac_with_replicas[0].tag(p))
        .collect();
    let submit = |i: usize, payload: Vec<u8>| Frame::ClientSubmit {
        client: ClientId(STREAM),
        instance: InstanceId((i % system.instances) as u32),
        payload,
        tag: rcc_crypto::AuthTag::Mac(tags[i]),
    };
    let encode = median_time(|| {
        timed(|| {
            for (i, batch) in batches.iter().enumerate() {
                black_box(submit(i, batch.encoded()).encode_frame());
            }
        })
    });
    out.push(("codec.frame_encode_us_per_batch", per(encode, count), "us"));
    let frames: Vec<Vec<u8>> = payloads
        .iter()
        .enumerate()
        .map(|(i, p)| submit(i, p.clone()).encode_frame())
        .collect();
    let decode_one = |bytes: &[u8]| -> Option<Batch> {
        match Frame::decode_frame(bytes).ok()? {
            Frame::ClientSubmit { payload, .. } => Batch::decode_all(&payload).ok(),
            _ => None,
        }
    };
    let decode = median_time(|| {
        timed(|| {
            for bytes in &frames {
                black_box(decode_one(bytes));
            }
        })
    });
    out.push(("codec.frame_decode_us_per_batch", per(decode, count), "us"));
    for (bytes, batch) in frames.iter().zip(&batches) {
        if decode_one(bytes).as_ref() != Some(batch) {
            return Err("codec replay: a decoded frame differs from its batch".into());
        }
    }

    let digest = median_time(|| {
        timed(|| {
            for batch in &batches {
                black_box(rcc_crypto::digest_batch(batch));
            }
        })
    });
    out.push(("crypto.digest_us_per_batch", per(digest, count), "us"));

    let mac = &client.mac_with_replicas[0];
    let tag = median_time(|| {
        timed(|| {
            for payload in &payloads {
                black_box(mac.tag(payload));
            }
        })
    });
    out.push(("crypto.mac_tag_us_per_batch", per(tag, count), "us"));
    let mut verified = 0;
    let verify = median_time(|| {
        verified = 0;
        timed(|| {
            for (payload, tag) in payloads.iter().zip(&tags) {
                verified += usize::from(mac.verify(payload, tag));
            }
        })
    });
    if verified != count {
        return Err(format!("MAC replay: {verified} of {count} tags verified"));
    }
    out.push(("crypto.mac_verify_us_per_batch", per(verify, count), "us"));

    out.extend(verify_burst(system, &keys, &payloads)?);
    out.extend(consensus(system, &batches)?);
    out.extend(execution(system, &batches)?);
    Ok(out)
}

/// One burst of client-submit checks as replica 0's mailbox would drain
/// it, verified inline and through `VerifyPool`; one job is corrupted so
/// the verdicts are not trivially all true.
fn verify_burst(
    system: &SystemConfig,
    keys: &DeploymentKeys,
    payloads: &[Vec<u8>],
) -> Result<Vec<Metric>, String> {
    let client = keys.client_keys(ClientId(STREAM));
    let jobs: Vec<VerifyJob> = payloads
        .iter()
        .take(BURST)
        .enumerate()
        .map(|(i, payload)| {
            let tag = client.mac_with_replicas[0].tag(payload);
            let mut payload = payload.clone();
            if i == BURST / 4 {
                payload[0] ^= 0xFF;
            }
            VerifyJob {
                source: VerifySource::Client(ClientId(STREAM)),
                payload,
                tag: rcc_crypto::AuthTag::Mac(tag),
            }
        })
        .collect();
    let auth = || Authenticator::new(system.crypto, keys.replica_keys(ReplicaId(0)));
    let inline_auth = auth();
    let check = |job: &VerifyJob| match job.source {
        VerifySource::Client(c) => inline_auth
            .verify_from_client(c, &job.payload, &job.tag)
            .is_ok(),
        VerifySource::Replica(r) => inline_auth
            .verify_from_replica(r, &job.payload, &job.tag)
            .is_ok(),
    };
    let mut inline_verdicts = Vec::new();
    let inline =
        median_time(|| timed(|| inline_verdicts = jobs.iter().map(check).collect::<Vec<bool>>()));
    let pool = VerifyPool::new(auth(), Arc::new(WorkerPool::new(DEFAULT_EXECUTION_WORKERS)));
    let mut pool_verdicts = Vec::new();
    let pooled = median_time(|| {
        let burst = jobs.clone();
        timed(|| {
            pool_verdicts = pool
                .verify_batch(burst)
                .into_iter()
                .map(|(_, ok)| ok)
                .collect::<Vec<bool>>()
        })
    });
    if inline_verdicts != pool_verdicts {
        return Err("verify replay: VerifyPool and inline verdicts differ".into());
    }
    if inline_verdicts.iter().filter(|ok| !**ok).count() != 1 {
        return Err("verify replay: expected exactly the corrupted job to fail".into());
    }
    Ok(vec![
        ("crypto.verify_inline_us_per_burst", per(inline, 1), "us"),
        ("crypto.verify_pool_us_per_burst", per(pooled, 1), "us"),
    ])
}

/// RCC over PBFT in the in-memory harness: each round, every instance's
/// coordinator proposes one batch and the cluster runs to quiescence.
fn consensus(system: &SystemConfig, batches: &[Batch]) -> Result<Vec<Metric>, String> {
    let m = system.instances;
    let mut messages = 0u64;
    let mut logs_agree = true;
    let mut released = 0usize;
    let time = median_time(|| {
        let mut cluster = Cluster::new(
            ReplicaId::all(system.n)
                .map(|r| RccReplica::over_pbft(system.clone(), r))
                .collect(),
        );
        messages = 0;
        let elapsed = timed(|| {
            for round in batches.chunks(m) {
                for (instance, batch) in round.iter().enumerate() {
                    cluster.propose(InstanceId(instance as u32).primary(), batch.clone());
                }
                messages += cluster.run_to_quiescence();
            }
        });
        let reference = cluster.node(ReplicaId(0)).execution_log().to_vec();
        released = reference.len();
        logs_agree &=
            ReplicaId::all(system.n).all(|r| cluster.node(r).execution_log() == &reference[..]);
        elapsed
    });
    let rounds = batches.len() / m;
    if !logs_agree || released != rounds {
        return Err(format!(
            "consensus replay: replicas disagree or released {released} of {rounds} rounds"
        ));
    }
    Ok(vec![
        ("consensus.round_us", per(time, rounds), "us"),
        (
            "consensus.msgs_per_round",
            messages as f64 / rounds as f64,
            "count",
        ),
    ])
}

/// The released rounds executed sequentially and through the conflict-aware
/// parallel path, which must end in the same state.
fn execution(system: &SystemConfig, batches: &[Batch]) -> Result<Vec<Metric>, String> {
    let m = system.instances;
    let rounds: Vec<Vec<(BatchId, Batch)>> = batches
        .chunks(m)
        .enumerate()
        .map(|(round, chunk)| {
            chunk
                .iter()
                .enumerate()
                .map(|(instance, batch)| {
                    let id = BatchId {
                        instance: InstanceId(instance as u32),
                        round: round as u64,
                    };
                    (id, batch.clone())
                })
                .collect()
        })
        .collect();
    let mut seq_state = (0, rcc_common::Digest::ZERO);
    let seq = median_time(|| {
        let mut engine = ExecutionEngine::new(ReplicaId(0));
        let elapsed = timed(|| {
            for (round, ordered) in rounds.iter().enumerate() {
                black_box(engine.execute_round(round as u64, ordered));
            }
        });
        seq_state = (engine.state_fingerprint(), engine.ledger().head_digest());
        elapsed
    });
    let pool = WorkerPool::new(DEFAULT_EXECUTION_WORKERS);
    let mut par_state = (0, rcc_common::Digest::ZERO);
    let par = median_time(|| {
        let mut engine = ExecutionEngine::new(ReplicaId(0));
        let elapsed = timed(|| {
            for (round, ordered) in rounds.iter().enumerate() {
                black_box(engine.execute_round_parallel(round as u64, ordered, &pool));
            }
        });
        par_state = (engine.state_fingerprint(), engine.ledger().head_digest());
        elapsed
    });
    if seq_state != par_state {
        return Err("execution replay: sequential and parallel states differ".into());
    }
    let groups: usize = rounds
        .iter()
        .map(|ordered| {
            let sets: Vec<_> = ordered
                .iter()
                .flat_map(|(_, batch)| &batch.requests)
                .filter(|request| !request.is_noop())
                .map(|request| access_set(&request.transaction.kind))
                .collect();
            conflict_groups(&sets).len()
        })
        .sum();
    Ok(vec![
        ("execution.seq_us_per_round", per(seq, rounds.len()), "us"),
        ("execution.par_us_per_round", per(par, rounds.len()), "us"),
        (
            "execution.groups_per_round",
            groups as f64 / rounds.len() as f64,
            "count",
        ),
    ])
}
