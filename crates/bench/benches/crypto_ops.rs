//! Criterion microbenchmarks for the crypto substrate at the sizes the
//! engine actually seals: a slot (192-byte block, padded capacity 212 →
//! 260 sealed bytes, 244 of them MACed with the binding), and a 1 MiB
//! checkpoint.  Every kernel is timed twice where the CPU offers a choice —
//! as selected, and pinned to the portable path, which is what a CPU
//! without the SHA extensions or AVX2 runs (the `ParallelCrypto` series of
//! Figure 10a sits on these per-slot costs).
use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use obladi_crypto::{ChaCha20, Envelope, HmacSha256, KeyMaterial, Sha256};

/// `Block::padded_capacity(192)`: the benchmark geometry's slot.
const SLOT_CAPACITY: usize = 212;
/// `location || counter || nonce || length || capacity`: what a slot MAC covers.
const SLOT_MAC_INPUT: usize = 16 + 12 + 4 + SLOT_CAPACITY;
const MIB: usize = 1 << 20;
/// Slot-sized calls per timed iteration: the vendored criterion times every
/// iteration with its own clock reads, which would swamp a sub-microsecond
/// call.
const SLOT_BATCH: usize = 1_000;

fn bench_slot(c: &mut Criterion) {
    let keys = KeyMaterial::for_tests(1);
    let envelope = Envelope::new(&keys);
    let plaintext = vec![0xA5u8; SLOT_CAPACITY];
    let sealed = envelope.seal(1, 2, &plaintext, SLOT_CAPACITY).unwrap();
    let mac_input = vec![0x3Cu8; SLOT_MAC_INPUT];

    let mut group = c.benchmark_group(&format!("crypto/{}", obladi_crypto::kernels::selected()));
    let batched = |call: &mut dyn FnMut()| (0..SLOT_BATCH).for_each(|_| call());
    group.throughput(Throughput::Bytes((SLOT_BATCH * sealed.len()) as u64));
    group.bench_function("envelope_seal_slot212_x1000", |b| {
        b.iter(|| {
            batched(&mut || {
                black_box(
                    envelope
                        .seal(1, 2, black_box(&plaintext), SLOT_CAPACITY)
                        .unwrap(),
                );
            })
        })
    });
    group.bench_function("envelope_seal_in_place_slot212_x1000", |b| {
        let mut buf = sealed.bytes.clone();
        b.iter(|| {
            batched(&mut || {
                envelope
                    .seal_in_place(1, 2, black_box(&mut buf), SLOT_CAPACITY)
                    .unwrap()
            })
        })
    });
    // What a dummy slot costs instead of `seal_in_place`: its bytes drawn
    // from the thread's keystream.
    group.bench_function("envelope_dummy_fill_slot212_x1000", |b| {
        let mut buf = sealed.bytes.clone();
        b.iter(|| batched(&mut || Envelope::fill_dummy(black_box(&mut buf))))
    });
    group.bench_function("envelope_open_slot212_x1000", |b| {
        b.iter(|| {
            batched(&mut || {
                black_box(envelope.open(1, 2, black_box(&sealed)).unwrap());
            })
        })
    });
    group.throughput(Throughput::Bytes((SLOT_BATCH * SLOT_MAC_INPUT) as u64));
    group.bench_function("hmac_sha256_244B_x1000", |b| {
        let hmac = HmacSha256::new(keys.mac_key());
        b.iter(|| {
            batched(&mut || {
                black_box(hmac.mac(black_box(&mac_input)));
            })
        })
    });
    group.bench_function("hmac_sha256_244B_x1000_portable", |b| {
        let hmac = HmacSha256::portable(keys.mac_key());
        b.iter(|| {
            batched(&mut || {
                black_box(hmac.mac(black_box(&mac_input)));
            })
        })
    });
    group.finish();
}

fn bench_bulk(c: &mut Criterion) {
    let keys = KeyMaterial::for_tests(1);
    let envelope = Envelope::new(&keys);
    let cipher = ChaCha20::new(keys.enc_key());
    let bulk = vec![0x5Au8; MIB];

    let mut group = c.benchmark_group(&format!("crypto/{}", obladi_crypto::kernels::selected()));
    group.throughput(Throughput::Bytes(MIB as u64));
    group.bench_function("envelope_seal_1MiB", |b| {
        b.iter(|| envelope.seal(3, 4, &bulk, MIB).unwrap())
    });
    group.bench_function("envelope_seal_in_place_1MiB", |b| {
        let mut buf = vec![0u8; Envelope::sealed_len(MIB)];
        b.iter(|| envelope.seal_in_place(3, 4, &mut buf, MIB).unwrap())
    });
    group.bench_function("chacha20_1MiB", |b| {
        let mut buf = bulk.clone();
        b.iter(|| cipher.apply_keystream(&[7u8; 12], 1, &mut buf))
    });
    group.bench_function("chacha20_1MiB_portable", |b| {
        let mut buf = bulk.clone();
        b.iter(|| cipher.apply_keystream_portable(&[7u8; 12], 1, &mut buf))
    });
    group.bench_function("sha256_1MiB", |b| b.iter(|| Sha256::digest(&bulk)));
    group.bench_function("sha256_1MiB_portable", |b| {
        b.iter(|| {
            let mut hasher = Sha256::portable();
            hasher.update(&bulk);
            hasher.finalize()
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_slot, bench_bulk
}
criterion_main!(benches);
