//! Criterion microbenchmarks for the Ring ORAM client over zero-latency
//! in-memory storage: batched reads, dummiless writes, epoch flushes, one
//! epoch's maintenance as a wave and one path at a time, the worker
//! pool's dispatch on its own, and both checkpoint forms from the client
//! state to the sealed record.
use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use obladi_common::config::{EpochConfig, OramConfig};
use obladi_common::rng::DetRng;
use obladi_crypto::envelope::{PLAINTEXT_OFFSET, TAG_LEN};
use obladi_crypto::{Envelope, KeyMaterial};
use obladi_oram::{
    CheckpointSource, ExecOptions, NoopPathLogger, OramReader, RingOram, ThreadPool,
    WritebackEngine,
};
use obladi_storage::InMemoryStore;
use std::cell::RefCell;
use std::sync::Arc;

fn build_oram(parallel: bool) -> (OramReader, WritebackEngine) {
    // The derived stash bound (64 at Z = 8) is one block short of what
    // loading 256 rows per batch reaches.
    let config = OramConfig::for_capacity(4_096, 8)
        .with_block_size(64)
        .with_max_stash(512);
    let keys = KeyMaterial::for_tests(3);
    let store = Arc::new(InMemoryStore::new());
    let exec = if parallel {
        ExecOptions::parallel(8)
    } else {
        ExecOptions::sequential()
    };
    let (reader, mut engine) = RingOram::new(config, &keys, store, exec.with_fast_init(), 3)
        .unwrap()
        .split();
    let writes: Vec<(u64, Vec<u8>)> = (0..1024).map(|k| (k, vec![k as u8; 32])).collect();
    for chunk in writes.chunks(256) {
        engine.write_batch(chunk, &NoopPathLogger).unwrap();
        engine.flush_writes(&NoopPathLogger).unwrap();
    }
    (reader, engine)
}

fn bench_oram(c: &mut Criterion) {
    let mut group = c.benchmark_group("oram");

    group.throughput(Throughput::Elements(64));
    group.bench_function("read_batch_64_parallel", |b| {
        let (reader, mut engine) = build_oram(true);
        let mut rng = DetRng::new(9);
        b.iter_batched(
            || (0..64).map(|_| Some(rng.below(1024))).collect::<Vec<_>>(),
            |reads| {
                reader.read_batch(&reads, &NoopPathLogger).unwrap();
                engine.run_pending_maintenance(&NoopPathLogger).unwrap();
                engine.flush_writes(&NoopPathLogger).unwrap();
            },
            BatchSize::SmallInput,
        )
    });

    group.throughput(Throughput::Elements(1));
    group.bench_function("sequential_access", |b| {
        let (reader, mut engine) = build_oram(false);
        let mut rng = DetRng::new(10);
        b.iter(|| {
            let key = rng.below(1024);
            let value = reader.read_batch(&[Some(key)], &NoopPathLogger).unwrap();
            engine.run_pending_maintenance(&NoopPathLogger).unwrap();
            engine.flush_writes(&NoopPathLogger).unwrap();
            value
        })
    });

    group.throughput(Throughput::Elements(64));
    group.bench_function("dummiless_write_batch_64", |b| {
        let (_, mut engine) = build_oram(true);
        let mut rng = DetRng::new(11);
        b.iter_batched(
            || {
                (0..64)
                    .map(|_| {
                        let k = rng.below(1024);
                        (k, vec![k as u8; 32])
                    })
                    .collect::<Vec<_>>()
            },
            |writes| {
                engine.write_batch(&writes, &NoopPathLogger).unwrap();
                engine.flush_writes(&NoopPathLogger).unwrap();
            },
            BatchSize::SmallInput,
        )
    });

    group.finish();
}

/// A `perf` shard's ORAM client (192-byte blocks, `max_stash` 4,096, two
/// workers) over an in-memory store, 1,024 rows loaded.
fn perf_shard(objects: u64) -> (OramReader, WritebackEngine) {
    let mut config = OramConfig::small_for_tests(objects).with_block_size(192);
    config.max_stash = 4_096;
    let keys = KeyMaterial::for_tests(3);
    let store = Arc::new(InMemoryStore::new());
    let exec = ExecOptions::parallel(2).with_fast_init();
    let (reader, mut engine) = RingOram::new(config, &keys, store, exec, 3)
        .unwrap()
        .split();
    let rows: Vec<(u64, Vec<u8>)> = (0..1_024).map(|k| (k, vec![k as u8; 64])).collect();
    for chunk in rows.chunks(64) {
        engine.write_batch(chunk, &NoopPathLogger).unwrap();
        engine.flush_writes(&NoopPathLogger).unwrap();
    }
    (reader, engine)
}

/// One epoch's maintenance on a `perf` shard: `accesses` logical accesses
/// (read batches of 32, which run no maintenance) make `accesses / A`
/// evictions come due and exhaust the top of the tree; the timed routine is
/// the pass that runs them, as one wave or — through the test seam — one
/// path at a time.  The flush that empties the buffer is untimed.
fn bench_maintenance(c: &mut Criterion) {
    let mut group = c.benchmark_group("maintenance");
    // (`perf` workload, objects per shard, accesses per epoch).
    let geometries = [("ycsb", 2_048, 4 * 32 + 64), ("tpcc", 4_096, 32 * 32 + 256)];
    for (geometry, objects, accesses) in geometries {
        for (schedule, cap) in [("wave", None), ("one_path_at_a_time", Some(1))] {
            let (reader, mut engine) = perf_shard(objects);
            if let Some(paths) = cap {
                engine.cap_wave_for_tests(paths);
            }
            let engine = RefCell::new(engine);
            let mut rng = DetRng::new(12);
            group.throughput(Throughput::Elements((accesses / 7) as u64));
            group.bench_function(&format!("{schedule}/{geometry}"), |b| {
                b.iter_batched(
                    || {
                        engine.borrow_mut().flush_writes(&NoopPathLogger).unwrap();
                        for _ in 0..accesses / 32 {
                            let mut batch: Vec<Option<u64>> =
                                (0..32).map(|_| Some(rng.below(1_024))).collect();
                            batch.sort_unstable();
                            batch.dedup();
                            batch.resize(32, None);
                            reader.read_batch(&batch, &NoopPathLogger).unwrap();
                        }
                    },
                    |()| {
                        let mut engine = engine.borrow_mut();
                        engine.run_pending_maintenance(&NoopPathLogger).unwrap()
                    },
                    BatchSize::SmallInput,
                )
            });
        }
    }
    group.finish();
}

/// The pool's own cost for one YCSB epoch's worth of slot reads (2,386 on
/// two shards at the parent commit, one boxed job and two channel messages
/// each): near-free items, so what is timed is the dispatch.
fn bench_pool(c: &mut Criterion) {
    let mut group = c.benchmark_group("pool");
    let pool = ThreadPool::new(2);
    group.throughput(Throughput::Elements(2_386));
    group.bench_function("map_2386_items", |b| {
        b.iter(|| pool.map(2_386, |range| range.map(black_box).collect::<Vec<usize>>()))
    });
    group.finish();
}

/// What `DurabilityManager::commit_epoch` does with a checkpoint before the
/// WAL append, on a `perf` shard: the delta of one epoch — its read batches
/// half real, its write batch half real, then the flush, all untimed — taken
/// from the engine, encoded behind the envelope's header and sealed where it
/// lies; and the full checkpoint the same way.  The record's bytes are the
/// throughput's base, and printed.
fn bench_checkpoint(c: &mut Criterion) {
    let mut group = c.benchmark_group("checkpoint");
    let envelope = Envelope::new(&KeyMaterial::for_tests(3));
    let seal = |mut record: Vec<u8>| {
        let plaintext_len = record.len() - PLAINTEXT_OFFSET;
        record.resize(record.len() + TAG_LEN, 0);
        envelope
            .seal_in_place(0xA002, 1, &mut record, plaintext_len)
            .unwrap();
        record
    };
    // (`perf` workload, objects per shard, R, write batch); batches of 32.
    for (geometry, objects, read_batches, write_batch) in
        [("ycsb", 2_048, 4, 64), ("tpcc", 4_096, 32, 256)]
    {
        let epoch = EpochConfig::default()
            .with_read_batches(read_batches)
            .with_read_batch_size(32)
            .with_write_batch_size(write_batch);
        let (reader, engine) = perf_shard(objects);
        let engine = RefCell::new(engine);
        let rng = RefCell::new(DetRng::new(13));
        let run_epoch = || {
            let mut rng = rng.borrow_mut();
            let distinct = rng.choose_distinct(1_024, epoch.max_position_delta() / 4);
            let (reads, writes) = distinct.split_at(epoch.reads_per_epoch() / 2);
            for batch in reads.chunks(16) {
                let mut batch: Vec<Option<u64>> = batch.iter().map(|k| Some(*k as u64)).collect();
                batch.resize(32, None);
                reader.read_batch(&batch, &NoopPathLogger).unwrap();
            }
            let writes: Vec<(u64, Vec<u8>)> = (writes.iter().take(write_batch / 2))
                .map(|k| (*k as u64, vec![*k as u8; 96]))
                .collect();
            let mut engine = engine.borrow_mut();
            engine
                .write_batch_padded(&writes, write_batch, &NoopPathLogger)
                .unwrap();
            engine.flush_writes(&NoopPathLogger).unwrap();
        };
        let delta_record = || {
            let window = epoch.max_position_delta();
            let delta = engine.borrow_mut().checkpoint_delta(window).unwrap();
            let mut record = vec![0u8; PLAINTEXT_OFFSET];
            delta.encode_into(&mut record);
            seal(record)
        };
        let full_record = || {
            let mut record = vec![0u8; PLAINTEXT_OFFSET];
            engine.borrow().checkpoint_full_into(&mut record).unwrap();
            seal(record)
        };
        run_epoch();
        let (delta_bytes, full_bytes) = (delta_record().len(), full_record().len());
        eprintln!("checkpoint/{geometry}: delta {delta_bytes} B, full {full_bytes} B sealed");
        group.throughput(Throughput::Bytes(delta_bytes as u64));
        group.bench_function(&format!("delta_encode_seal/{geometry}"), |b| {
            b.iter_batched(run_epoch, |()| delta_record(), BatchSize::SmallInput)
        });
        group.throughput(Throughput::Bytes(full_bytes as u64));
        group.bench_function(&format!("full_encode_seal/{geometry}"), |b| {
            b.iter_batched(run_epoch, |()| full_record(), BatchSize::SmallInput)
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(15).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_oram, bench_maintenance, bench_pool, bench_checkpoint
}
criterion_main!(benches);
