//! Thread-safe recording of transaction histories.
//!
//! Concurrency tests run many client threads against an engine; each thread
//! records the reads and writes of its transactions into a [`TxnTrace`] and
//! hands the finished trace to the shared [`HistoryRecorder`].  The recorder
//! assembles a [`History`] that [`crate::history::check_serializable`] can
//! then verify offline.
//!
//! The recorder also owns a monotonically increasing commit sequence that
//! engines without an externally visible serialization timestamp (the 2PL
//! baseline) can use as their per-transaction `commit_ts`.

use crate::history::{History, TxnRecord};
use obladi_common::types::{Key, TxnId, Value};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

/// The footprint of one in-flight transaction, owned by the client thread
/// that runs it.
#[derive(Debug, Clone)]
pub struct TxnTrace {
    record: TxnRecord,
    writes: u32,
}

impl TxnTrace {
    /// Starts a trace for transaction `id`.
    pub fn new(id: TxnId) -> Self {
        TxnTrace {
            record: TxnRecord::new(id),
            writes: 0,
        }
    }

    /// The transaction id this trace records.
    pub fn id(&self) -> TxnId {
        self.record.id
    }

    /// Records a read and returns the observed value unchanged (so the call
    /// can be chained around the engine's read).
    pub fn observe(&mut self, key: Key, observed: Option<Value>) -> Option<Value> {
        self.record.read(key, observed.clone());
        observed
    }

    /// Produces a unique tagged value for the next write of this transaction
    /// and records it.  The caller writes the returned bytes to the engine.
    pub fn next_write(&mut self, key: Key, payload: &[u8]) -> Value {
        let value = crate::history::tag_value(self.record.id, self.writes, payload);
        self.writes += 1;
        self.record.write(key, value.clone());
        value
    }

    /// Number of operations recorded so far.
    pub fn len(&self) -> usize {
        self.record.ops.len()
    }

    /// Whether no operation has been recorded.
    pub fn is_empty(&self) -> bool {
        self.record.ops.is_empty()
    }
}

/// Collects finished transaction traces from many threads.
#[derive(Debug, Default)]
pub struct HistoryRecorder {
    initial: Mutex<Vec<(Key, Value)>>,
    finished: Mutex<Vec<TxnRecord>>,
    commit_seq: AtomicU64,
}

impl HistoryRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        HistoryRecorder::default()
    }

    /// Declares a value loaded into the database before the recorded phase.
    pub fn set_initial(&self, key: Key, value: Value) {
        self.initial.lock().push((key, value));
    }

    /// Returns the next commit sequence number.
    ///
    /// Engines whose transaction ids are not serialization timestamps (the
    /// 2PL baseline) call this at commit time, while still holding their
    /// commit-point locks, to obtain a `commit_ts` consistent with the
    /// serialization order.
    pub fn next_commit_seq(&self) -> u64 {
        self.commit_seq.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Records a committed transaction with serialization position
    /// `commit_ts`.
    pub fn finish_committed(&self, mut trace: TxnTrace, commit_ts: u64) {
        trace.record.commit(commit_ts);
        self.finished.lock().push(trace.record);
    }

    /// Records an aborted transaction.
    pub fn finish_aborted(&self, mut trace: TxnTrace) {
        trace.record.abort();
        self.finished.lock().push(trace.record);
    }

    /// Number of transactions recorded so far.
    pub fn len(&self) -> usize {
        self.finished.lock().len()
    }

    /// Whether no transaction has been recorded.
    pub fn is_empty(&self) -> bool {
        self.finished.lock().is_empty()
    }

    /// Assembles the final [`History`].
    pub fn into_history(self) -> History {
        let mut history = History::new();
        for (key, value) in self.initial.into_inner() {
            history.set_initial(key, value);
        }
        for record in self.finished.into_inner() {
            history.push(record);
        }
        history
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::{check_serializable, parse_tag};

    #[test]
    fn traces_assemble_into_a_checkable_history() {
        let recorder = HistoryRecorder::new();
        recorder.set_initial(1, b"seed".to_vec());

        let mut writer = TxnTrace::new(10);
        assert!(writer.is_empty());
        writer.observe(1, Some(b"seed".to_vec()));
        let written = writer.next_write(1, b"x");
        assert_eq!(parse_tag(&written).unwrap().txn, 10);
        assert_eq!(writer.len(), 2);
        recorder.finish_committed(writer, 10);

        let mut reader = TxnTrace::new(11);
        reader.observe(1, Some(written));
        recorder.finish_committed(reader, 11);

        let mut loser = TxnTrace::new(12);
        loser.next_write(1, b"never committed");
        recorder.finish_aborted(loser);

        assert_eq!(recorder.len(), 3);
        let history = recorder.into_history();
        let report = check_serializable(&history).unwrap();
        assert_eq!(report.committed, 2);
        assert_eq!(report.aborted, 1);
    }

    #[test]
    fn commit_sequence_is_strictly_increasing_across_threads() {
        let recorder = std::sync::Arc::new(HistoryRecorder::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let recorder = recorder.clone();
            handles.push(std::thread::spawn(move || {
                (0..100)
                    .map(|_| recorder.next_commit_seq())
                    .collect::<Vec<_>>()
            }));
        }
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 400, "commit sequence numbers must be unique");
    }

    #[test]
    fn distinct_writes_of_one_transaction_get_distinct_tags() {
        let mut trace = TxnTrace::new(5);
        let a = trace.next_write(1, b"");
        let b = trace.next_write(1, b"");
        assert_ne!(a, b);
        assert_eq!(parse_tag(&a).unwrap().seq, 0);
        assert_eq!(parse_tag(&b).unwrap().seq, 1);
    }
}
