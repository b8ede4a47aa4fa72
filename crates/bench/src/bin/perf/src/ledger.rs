//! The layer ledger: each layer's public functions timed in isolation, at
//! the workload's geometry, with fixed iteration counts and the median of
//! five repetitions.
//!
//! Every call below is one the engine's own wiring makes
//! (`RingOram::new(..).split()`, `Envelope::seal/open`,
//! `WriteAheadLog::append`, `serve` + `RemoteStore::connect`,
//! `encode_frame`/`FrameDecoder`, `MvtsoManager`), so a ledger line moves
//! when that layer's code does and is blind to everything around it.
//! `predicted_epoch_ms` multiplies the lines by the calls one shard makes
//! per epoch and adds them up as if nothing overlapped and the other
//! shard had a core of its own; the share of the measured epoch period it
//! leaves over is `ledger.unexplained_share`.

use crate::stats::{median, Values};
use crate::workloads::{Spec, Storage, BLOCK_SIZE, SHARDS};
use bytes::Bytes;
use obladi_common::error::Result;
use obladi_common::rng::DetRng;
use obladi_common::types::{Key, Value};
use obladi_core::MvtsoManager;
use obladi_crypto::{ChaCha20, Envelope, KeyMaterial, Sha256};
use obladi_oram::{CheckpointSource, ExecOptions, NoopPathLogger, RingOram};
use obladi_storage::wal::WalRecordKind;
use obladi_storage::{DurableStore, InMemoryStore, StoreResponse, UntrustedStore, WriteAheadLog};
use obladi_transport::frame::encode_frame;
use obladi_transport::{serve, Frame, FrameDecoder, RemoteStore, SocketSpec};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

const REPETITIONS: usize = 5;
/// Keys preloaded into the ledger's ORAM; reads draw from them.
const ORAM_KEYS: u64 = 2_048;
/// Seed of the ledger's own inputs; the ledger is not a workload.
const LEDGER_SEED: u64 = 0x1ED6E7;

/// Median over the repetitions of the mean time of one call, in ns.
fn ns_per_call(calls: usize, mut call: impl FnMut()) -> f64 {
    let mut per_call: Vec<f64> = (0..REPETITIONS)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..calls {
                call();
            }
            started.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&mut per_call)
}

fn mb_per_s(bytes: usize, ns: f64) -> f64 {
    bytes as f64 / 1e6 / (ns / 1e9)
}

fn crypto(values: &mut Values, block_size: usize) -> Result<()> {
    let keys = KeyMaterial::for_tests(LEDGER_SEED);
    let envelope = Envelope::new(&keys);
    let slot = vec![0xA5u8; block_size];
    let sealed = envelope.seal(1, 2, &slot, block_size)?;
    values.insert(
        "crypto.seal_slot_ns".into(),
        ns_per_call(2_000, || {
            black_box(envelope.seal(1, 2, black_box(&slot), block_size).is_ok());
        }),
    );
    values.insert(
        "crypto.open_slot_ns".into(),
        ns_per_call(2_000, || {
            black_box(envelope.open(1, 2, black_box(&sealed)).is_ok());
        }),
    );
    let bulk = vec![0x5Au8; 64 * 1024];
    values.insert(
        "crypto.seal_64k_mb_per_s".into(),
        mb_per_s(
            bulk.len(),
            ns_per_call(20, || {
                black_box(envelope.seal(3, 4, black_box(&bulk), bulk.len()).is_ok());
            }),
        ),
    );
    let cipher = ChaCha20::new(keys.enc_key());
    values.insert(
        "crypto.chacha20_mb_per_s".into(),
        mb_per_s(
            bulk.len(),
            ns_per_call(20, || {
                black_box(cipher.encrypt(&[7u8; 12], black_box(&bulk)));
            }),
        ),
    );
    values.insert(
        "crypto.sha256_mb_per_s".into(),
        mb_per_s(
            bulk.len(),
            ns_per_call(20, || {
                black_box(Sha256::digest(black_box(&bulk)));
            }),
        ),
    );
    Ok(())
}

/// Times one shard's ORAM work for an epoch — `R` read batches, the padded
/// write batch, the flush and both checkpoint forms — over five epochs.
fn oram(values: &mut Values, spec: &Spec) -> Result<()> {
    let config = spec.shard_config().shard_config(0);
    let epoch = config.epoch;
    let keys = KeyMaterial::for_tests(LEDGER_SEED);
    // The proxy's own execution options (`ObladiDb::open_with`).
    let exec = ExecOptions {
        parallel: true,
        threads: epoch.executor_threads,
        deferred_writes: true,
        encrypt: true,
        fast_init: false,
    };
    let store = Arc::new(InMemoryStore::new());
    let (reader, mut engine) = RingOram::new(config.oram, &keys, store, exec, LEDGER_SEED)?.split();
    let logger = NoopPathLogger;
    let value_of = |key: Key| -> Value { vec![key as u8; config.oram.block_size / 2] };
    let preload: Vec<(Key, Value)> = (0..ORAM_KEYS).map(|k| (k, value_of(k))).collect();
    for chunk in preload.chunks(epoch.write_batch_size) {
        engine.write_batch_padded(chunk, epoch.write_batch_size, &logger)?;
        engine.flush_writes(&logger)?;
    }

    let mut rng = DetRng::new(LEDGER_SEED);
    let mut lines: [Vec<f64>; 5] = Default::default();
    let mut full_bytes = 0usize;
    let us_since = |started: Instant| started.elapsed().as_nanos() as f64 / 1e3;
    for _ in 0..REPETITIONS {
        // An epoch fetches a key at most once; half of each batch is
        // padding, as in a lightly loaded epoch.
        let distinct = rng.choose_distinct(ORAM_KEYS as usize, epoch.reads_per_epoch() / 2);
        let mut read_us = 0.0;
        for batch in distinct.chunks(epoch.read_batch_size / 2) {
            let mut requests: Vec<Option<Key>> = batch.iter().map(|k| Some(*k as Key)).collect();
            requests.resize(epoch.read_batch_size, None);
            let started = Instant::now();
            black_box(reader.read_batch(&requests, &logger)?);
            read_us += us_since(started);
        }
        lines[0].push(read_us / epoch.read_batches as f64);
        let writes: Vec<(Key, Value)> = distinct
            .iter()
            .take(epoch.write_batch_size / 2)
            .map(|k| (*k as Key, value_of(*k as Key)))
            .collect();
        let started = Instant::now();
        engine.write_batch_padded(&writes, epoch.write_batch_size, &logger)?;
        lines[1].push(us_since(started));
        let started = Instant::now();
        engine.flush_writes(&logger)?;
        lines[2].push(us_since(started));
        let started = Instant::now();
        let delta = engine.checkpoint_delta(epoch.max_position_delta())?;
        black_box(delta.encode());
        lines[3].push(us_since(started));
        let started = Instant::now();
        full_bytes = engine.checkpoint_full()?.len();
        lines[4].push(us_since(started));
    }
    for (line, name) in [
        "oram.read_batch_us",
        "oram.write_batch_us",
        "oram.flush_us",
        "oram.checkpoint_delta_us",
        "oram.checkpoint_full_us",
    ]
    .iter()
    .enumerate()
    {
        values.insert(name.to_string(), median(&mut lines[line]));
    }
    values.insert("oram.checkpoint_full_bytes".into(), full_bytes as f64);
    Ok(())
}

fn storage(values: &mut Values, scratch: &Path) -> Result<()> {
    let record = vec![0xC3u8; 1_024];
    let wal = WriteAheadLog::new(Arc::new(InMemoryStore::new()));
    values.insert(
        "storage.wal_append_us".into(),
        ns_per_call(500, || {
            black_box(wal.append(WalRecordKind::Decision, 1, &record).is_ok());
        }) / 1e3,
    );
    let dir = scratch.join(format!("ledger_oplog_{}", std::process::id()));
    let (durable, _) = DurableStore::open(&dir)?;
    let payload = Bytes::from(record);
    values.insert(
        "storage.oplog_append_us".into(),
        ns_per_call(500, || {
            black_box(durable.append_log(payload.clone()).is_ok());
        }) / 1e3,
    );
    drop(durable);
    // Best effort: the directory sits under the build directory either way.
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

fn transport(values: &mut Values, spec: &Spec) -> Result<()> {
    let oram = spec.shard_config().shard.oram;
    let sealed_slot = Bytes::from(vec![0x3Cu8; Envelope::sealed_len(oram.block_size)]);
    let response = StoreResponse::Slot(sealed_slot.clone());
    let mut wire = Vec::new();
    let mut decoder = FrameDecoder::new();
    values.insert(
        "transport.frame_codec_ns".into(),
        ns_per_call(5_000, || {
            wire.clear();
            let frame = Frame::for_message(9, response.encode()).expect("non-empty message");
            encode_frame(&mut wire, &frame);
            decoder.extend(&wire);
            let decoded = decoder.next_frame().expect("well-formed frame");
            black_box(StoreResponse::decode(&decoded.expect("one whole frame").payload).is_ok());
        }),
    );

    let mut server = serve(
        &SocketSpec::parse("tcp:127.0.0.1:0")?,
        Arc::new(InMemoryStore::new()),
    )?;
    let remote = RemoteStore::connect(server.spec().clone(), Duration::from_secs(10))?;
    let bucket: Vec<Bytes> = (0..oram.slots_per_bucket())
        .map(|_| sealed_slot.clone())
        .collect();
    values.insert(
        "transport.rtt_write_bucket_us".into(),
        ns_per_call(100, || {
            black_box(remote.write_bucket(1, bucket.clone()).is_ok());
        }) / 1e3,
    );
    values.insert(
        "transport.rtt_read_slot_us".into(),
        ns_per_call(300, || {
            black_box(remote.read_slot(1, 0).is_ok());
        }) / 1e3,
    );
    remote.disconnect();
    server.stop();
    Ok(())
}

fn mvtso(values: &mut Values) {
    const TXNS: u64 = 64;
    let value: Value = vec![7u8; 64];
    values.insert(
        "core.mvtso_txn_ns".into(),
        ns_per_call(50, || {
            let mut manager = MvtsoManager::new();
            for txn in 1..=TXNS {
                manager.begin(txn);
                manager.register_base(txn, Some(value.clone()));
                black_box(manager.read(txn, txn).is_ok());
                black_box(manager.write(txn, txn, value.clone()).is_ok());
                black_box(manager.request_commit(txn).is_ok());
            }
            black_box(manager.finalize());
        }) / TXNS as f64,
    );
}

/// Runs every ledger line at `spec`'s geometry.  Files go under `scratch`.
pub fn run(spec: &Spec, scratch: &Path) -> Result<Values> {
    let mut values = Values::new();
    crypto(&mut values, BLOCK_SIZE)?;
    oram(&mut values, spec)?;
    storage(&mut values, scratch)?;
    transport(&mut values, spec)?;
    mvtso(&mut values);
    Ok(values)
}

/// One shard's epoch as the ledger prices it, in ms: `R` read batches, the
/// write batch, the flush, the checkpoint mix of `checkpoint_every`
/// (sealed at the bulk rate) and the epoch's three WAL records — plus,
/// over sockets, the measured store calls per epoch at the ledger's round
/// trip, spread over the shard's executor threads.  `values` holds the
/// ledger lines and, after a traced pass, `storage.*.calls_per_epoch`.
pub fn predicted_epoch_ms(spec: &Spec, values: &Values) -> f64 {
    let epoch = spec.shard_config().shard.epoch;
    let line = |name: &str| values.get(name).copied().unwrap_or(0.0);
    let every = epoch.checkpoint_every as f64;
    let checkpoint_us = (line("oram.checkpoint_full_us")
        + (every - 1.0) * line("oram.checkpoint_delta_us"))
        / every;
    let seal_us = line("oram.checkpoint_full_bytes")
        / every
        / line("crypto.seal_64k_mb_per_s").max(f64::MIN_POSITIVE);
    let round_trips_us = match spec.storage {
        Storage::Memory => 0.0,
        Storage::Socket => {
            (line("storage.read_slot.calls_per_epoch") * line("transport.rtt_read_slot_us")
                + line("storage.write_bucket.calls_per_epoch")
                    * line("transport.rtt_write_bucket_us"))
                / SHARDS as f64
                / epoch.executor_threads as f64
        }
    };
    let us = epoch.read_batches as f64 * line("oram.read_batch_us")
        + line("oram.write_batch_us")
        + line("oram.flush_us")
        + checkpoint_us
        + seal_us
        + 3.0 * line("storage.wal_append_us")
        + round_trips_us;
    us / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prediction_adds_the_lines_by_their_per_epoch_counts() {
        let spec = Spec::by_name("ycsb_read_mem").unwrap();
        let mut ledger = Values::new();
        ledger.insert("oram.read_batch_us".into(), 1_000.0);
        ledger.insert("oram.write_batch_us".into(), 500.0);
        ledger.insert("oram.flush_us".into(), 2_000.0);
        ledger.insert("oram.checkpoint_full_us".into(), 4_000.0);
        ledger.insert("oram.checkpoint_delta_us".into(), 400.0);
        ledger.insert("oram.checkpoint_full_bytes".into(), 400_000.0);
        ledger.insert("crypto.seal_64k_mb_per_s".into(), 100.0);
        ledger.insert("storage.wal_append_us".into(), 10.0);
        // R = 4, checkpoint_every = 4: 4000 + 500 + 2000 + (4000 + 3*400)/4
        // + 400000/4/100 + 30 = 8830 us.
        assert!((predicted_epoch_ms(&spec, &ledger) - 8.83).abs() < 1e-9);
        // Over sockets the store calls cost a round trip each, on 2 shards
        // x 8 executor threads: (1600 * 80 + 320 * 100) / 16 = 10000 us.
        ledger.insert("storage.read_slot.calls_per_epoch".into(), 1_600.0);
        ledger.insert("transport.rtt_read_slot_us".into(), 80.0);
        ledger.insert("storage.write_bucket.calls_per_epoch".into(), 320.0);
        ledger.insert("transport.rtt_write_bucket_us".into(), 100.0);
        assert!((predicted_epoch_ms(&spec, &ledger) - 8.83).abs() < 1e-9);
        let sock = Spec::by_name("ycsb_rw50_sock").unwrap();
        assert!((predicted_epoch_ms(&sock, &ledger) - 18.83).abs() < 1e-9);
    }
}
