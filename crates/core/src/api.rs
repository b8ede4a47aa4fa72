//! Public client-facing database abstraction.
//!
//! The workload generators (TPC-C, SmallBank, FreeHealth, YCSB) and the
//! benchmark driver are written against these traits so the same transaction
//! logic runs unchanged on Obladi, on the NoPriv baseline, and on the
//! MySQL-like 2PL engine — exactly the comparison Figure 9 makes.

use obladi_common::error::{ObladiError, Result};
use obladi_common::types::{Key, TxnOutcome, Value};
use std::time::Instant;

/// One executing transaction.
///
/// Reads and writes may fail with `ObladiError::TxnAborted` (concurrency
/// conflict, epoch overflow, crash, …); callers should surface the error from
/// their closure so [`KvDatabase::execute`] can report the abort.
pub trait KvTransaction {
    /// Reads the current value of `key` (as visible to this transaction).
    fn read(&mut self, key: Key) -> Result<Option<Value>>;

    /// Writes `value` to `key`.
    fn write(&mut self, key: Key, value: Value) -> Result<()>;

    /// The transaction's timestamp / identifier (diagnostics).
    fn id(&self) -> u64;
}

/// A transactional key-value database.
pub trait KvDatabase: Send + Sync {
    /// Runs `body` inside a transaction and commits it.
    ///
    /// Returns the closure's output on commit.  Returns an
    /// `ObladiError::TxnAborted` (or other) error if the transaction could
    /// not commit; the caller decides whether to retry.
    fn execute<T>(&self, body: &mut dyn FnMut(&mut dyn KvTransaction) -> Result<T>) -> Result<T>
    where
        Self: Sized;

    /// Called by [`KvDatabase::execute_with_retries`] between a retryable
    /// abort and the next attempt.  The default retries at once; an engine
    /// whose abort says "not before some event" waits for that event here.
    fn before_retry(&self, _abort: &ObladiError) {}

    /// Runs `body`, retrying up to `retries` times on retryable aborts.
    fn execute_with_retries<T>(
        &self,
        retries: usize,
        body: &mut dyn FnMut(&mut dyn KvTransaction) -> Result<T>,
    ) -> Result<T>
    where
        Self: Sized,
    {
        let mut attempt = 0;
        loop {
            match self.execute(body) {
                Ok(value) => return Ok(value),
                Err(err) if err.is_retryable() && attempt < retries => {
                    attempt += 1;
                    self.before_retry(&err);
                }
                Err(err) => return Err(err),
            }
        }
    }

    /// Short name of the engine (used in benchmark output).
    fn engine_name(&self) -> &'static str;
}

/// A deployable database front door: a [`KvDatabase`] with the operational
/// surface the load driver and benchmarks need to treat a single proxy and a
/// sharded deployment interchangeably.
///
/// `ObladiDb` and `obladi-shard`'s `ShardedDb` both implement this, so a
/// benchmark can sweep deployment shapes (shard counts, epoch settings)
/// through one code path.
pub trait FrontDoor: KvDatabase {
    /// Human-readable deployment description (engine plus topology), used
    /// to label benchmark rows.
    fn deployment(&self) -> String;

    /// Stops background machinery (epoch drivers, coordinators).  Idempotent.
    fn stop(&self);
}

/// Outcome bookkeeping shared by engines: translate a commit decision into a
/// `Result`, mapping aborts to errors.
pub fn outcome_to_result(outcome: TxnOutcome) -> Result<()> {
    match outcome {
        TxnOutcome::Committed => Ok(()),
        TxnOutcome::Aborted(reason) => Err(ObladiError::TxnAborted(reason.to_string())),
    }
}

/// The commit half of an Obladi engine's [`KvDatabase::execute`]: runs
/// `commit`, records the client-observed commit latency (from the commit
/// request to the acknowledged outcome, whichever rung acknowledged it) and
/// reports an aborted commit as the error the trait promises.
pub fn commit_timed(commit: impl FnOnce() -> Result<TxnOutcome>) -> Result<()> {
    let started = Instant::now();
    let outcome = commit()?;
    obladi_common::stats::record_commit_latency(started.elapsed());
    outcome_to_result(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use obladi_common::error::ObladiError;
    use obladi_common::types::AbortReason;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn outcome_mapping() {
        assert!(outcome_to_result(TxnOutcome::Committed).is_ok());
        let err = outcome_to_result(TxnOutcome::Aborted(AbortReason::EpochEnd)).unwrap_err();
        assert!(err.is_retryable());
    }

    /// A stub engine whose transactions fail a configurable number of times
    /// before succeeding, used to exercise the retry helper.
    struct FlakyDb {
        failures_left: AtomicUsize,
        retryable: bool,
        attempts: AtomicUsize,
    }

    struct FlakyTxn;

    impl KvTransaction for FlakyTxn {
        fn read(&mut self, _key: Key) -> Result<Option<Value>> {
            Ok(None)
        }

        fn write(&mut self, _key: Key, _value: Value) -> Result<()> {
            Ok(())
        }

        fn id(&self) -> u64 {
            1
        }
    }

    impl KvDatabase for FlakyDb {
        fn execute<T>(
            &self,
            body: &mut dyn FnMut(&mut dyn KvTransaction) -> Result<T>,
        ) -> Result<T> {
            self.attempts.fetch_add(1, Ordering::SeqCst);
            if self.failures_left.load(Ordering::SeqCst) > 0 {
                self.failures_left.fetch_sub(1, Ordering::SeqCst);
                return Err(if self.retryable {
                    ObladiError::TxnAborted("injected conflict".into())
                } else {
                    ObladiError::Integrity("injected integrity failure".into())
                });
            }
            body(&mut FlakyTxn)
        }

        fn engine_name(&self) -> &'static str {
            "flaky"
        }
    }

    #[test]
    fn execute_with_retries_retries_retryable_aborts() {
        let db = FlakyDb {
            failures_left: AtomicUsize::new(3),
            retryable: true,
            attempts: AtomicUsize::new(0),
        };
        let value = db
            .execute_with_retries(5, &mut |txn: &mut dyn KvTransaction| {
                txn.write(1, vec![1])?;
                Ok(42u32)
            })
            .unwrap();
        assert_eq!(value, 42);
        assert_eq!(db.attempts.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn execute_with_retries_gives_up_after_the_budget() {
        let db = FlakyDb {
            failures_left: AtomicUsize::new(100),
            retryable: true,
            attempts: AtomicUsize::new(0),
        };
        let err = db
            .execute_with_retries(3, &mut |_txn: &mut dyn KvTransaction| Ok(()))
            .unwrap_err();
        assert!(err.is_retryable());
        // One initial attempt plus three retries.
        assert_eq!(db.attempts.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn execute_with_retries_does_not_retry_permanent_errors() {
        let db = FlakyDb {
            failures_left: AtomicUsize::new(100),
            retryable: false,
            attempts: AtomicUsize::new(0),
        };
        let err = db
            .execute_with_retries(10, &mut |_txn: &mut dyn KvTransaction| Ok(()))
            .unwrap_err();
        assert!(matches!(err, ObladiError::Integrity(_)));
        assert_eq!(db.attempts.load(Ordering::SeqCst), 1);
    }
}
