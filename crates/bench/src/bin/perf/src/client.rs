//! The client decorator: a [`KvDatabase`] over the front door that records
//! a span for every transaction attempt and for each `begin`, `read`,
//! `write` and `commit` inside it.
//!
//! Spans stay in memory and are written out when the run ends.  The front
//! door's `execute` does begin, body and commit in one call, so `begin` is
//! the time from the call to the body's first instruction and `commit` the
//! time from the body's return to the call's.

use crate::stats::json_string;
use obladi_common::error::Result;
use obladi_common::types::{Key, Value};
use obladi_core::{KvDatabase, KvTransaction};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval.  `parent` is the index of the enclosing span in
/// the same client's list (`None` for an attempt); spans of one generated
/// transaction share `txn`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub txn: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

struct Recorder {
    txn: u64,
    attempt_name: &'static str,
    spans: Vec<Span>,
}

/// Tracing front door of one client thread.
pub struct TracedDb<'a, D: KvDatabase> {
    inner: &'a D,
    /// Zero of every span's clock.
    origin: Instant,
    recorder: Mutex<Recorder>,
}

impl<'a, D: KvDatabase> TracedDb<'a, D> {
    pub fn new(inner: &'a D, origin: Instant) -> Self {
        TracedDb {
            inner,
            origin,
            recorder: Mutex::new(Recorder {
                txn: 0,
                attempt_name: "txn",
                spans: Vec::new(),
            }),
        }
    }

    /// Labels the spans of the attempts that follow.
    pub fn label(&self, txn: u64, attempt_name: &'static str) {
        let mut recorder = self.lock();
        recorder.txn = txn;
        recorder.attempt_name = attempt_name;
    }

    /// The spans recorded so far, in start order per parent.
    pub fn into_spans(self) -> Vec<Span> {
        self.recorder
            .into_inner()
            .expect("the owning client thread did not panic")
            .spans
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Recorder> {
        self.recorder
            .lock()
            .expect("the owning client thread did not panic")
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

struct TracedTxn<'t, 'a, D: KvDatabase> {
    inner: &'t mut dyn KvTransaction,
    db: &'t TracedDb<'a, D>,
    attempt: usize,
}

impl<D: KvDatabase> TracedTxn<'_, '_, D> {
    fn record<T>(
        &mut self,
        name: &'static str,
        call: impl FnOnce(&mut dyn KvTransaction) -> T,
    ) -> T {
        let start_ns = self.db.now();
        let result = call(self.inner);
        let end_ns = self.db.now();
        let mut recorder = self.db.lock();
        let txn = recorder.txn;
        recorder.spans.push(Span {
            txn,
            name,
            start_ns,
            end_ns,
            parent: Some(self.attempt),
        });
        result
    }
}

impl<D: KvDatabase> KvTransaction for TracedTxn<'_, '_, D> {
    fn read(&mut self, key: Key) -> Result<Option<Value>> {
        self.record("read", |txn| txn.read(key))
    }

    fn write(&mut self, key: Key, value: Value) -> Result<()> {
        self.record("write", |txn| txn.write(key, value))
    }

    fn id(&self) -> u64 {
        self.inner.id()
    }
}

impl<D: KvDatabase> KvDatabase for TracedDb<'_, D> {
    fn execute<T>(&self, body: &mut dyn FnMut(&mut dyn KvTransaction) -> Result<T>) -> Result<T> {
        let start_ns = self.now();
        let attempt = {
            let mut recorder = self.lock();
            let (txn, name) = (recorder.txn, recorder.attempt_name);
            recorder.spans.push(Span {
                txn,
                name,
                start_ns,
                end_ns: start_ns,
                parent: None,
            });
            recorder.spans.len() - 1
        };
        // `None` until the body has run: a begin that fails never reaches it.
        let mut body_window: Option<(u64, u64)> = None;
        let result = self.inner.execute(&mut |txn: &mut dyn KvTransaction| {
            let body_start = self.now();
            let mut traced = TracedTxn {
                inner: txn,
                db: self,
                attempt,
            };
            let output = body(&mut traced);
            body_window = Some((body_start, self.now()));
            output
        });
        let end_ns = self.now();
        let mut recorder = self.lock();
        let txn = recorder.txn;
        recorder.spans[attempt].end_ns = end_ns;
        let (body_start, body_end) = body_window.unwrap_or((end_ns, end_ns));
        for (name, from, to) in [
            ("begin", start_ns, body_start),
            ("commit", body_end, end_ns),
        ] {
            recorder.spans.push(Span {
                txn,
                name,
                start_ns: from,
                end_ns: to,
                parent: Some(attempt),
            });
        }
        result
    }

    fn engine_name(&self) -> &'static str {
        self.inner.engine_name()
    }
}

/// Renders spans as a JSON array, one object per span; `client` and the
/// parent's index locate a span within the dump.
pub fn spans_json(per_client: &[Vec<Span>]) -> String {
    let mut out = String::from("[\n");
    let mut first = true;
    for (client, spans) in per_client.iter().enumerate() {
        for (index, span) in spans.iter().enumerate() {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let parent = span
                .parent
                .map_or("null".to_string(), |parent| parent.to_string());
            out.push_str(&format!(
                "{{\"client\": {client}, \"index\": {index}, \"txn\": {}, \"name\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
                span.txn,
                json_string(span.name),
                span.start_ns,
                span.end_ns
            ));
        }
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use obladi_common::error::ObladiError;
    use obladi_core::TwoPhaseLockingDb;

    /// Results a caller can observe from a scripted sequence of
    /// transactions, including an aborted one.
    fn scripted<D: KvDatabase>(db: &D) -> Vec<String> {
        let mut seen = Vec::new();
        seen.push(format!(
            "{:?}",
            db.execute(&mut |txn: &mut dyn KvTransaction| {
                txn.write(1, vec![1, 2, 3])?;
                txn.write(2, vec![4])?;
                txn.read(1)
            })
        ));
        seen.push(format!(
            "{:?}",
            db.execute(&mut |txn: &mut dyn KvTransaction| {
                txn.write(2, vec![9])?;
                Err::<(), _>(ObladiError::TxnAborted("scripted".into()))
            })
        ));
        seen.push(format!(
            "{:?}",
            db.execute(&mut |txn: &mut dyn KvTransaction| {
                Ok((txn.read(1)?, txn.read(2)?, txn.read(3)?))
            })
        ));
        seen.push(db.engine_name().to_string());
        seen
    }

    #[test]
    fn decorator_is_pass_through() {
        let expected = scripted(&TwoPhaseLockingDb::new());
        let inner = TwoPhaseLockingDb::new();
        let traced = TracedDb::new(&inner, Instant::now());
        assert_eq!(scripted(&traced), expected);
    }

    #[test]
    fn spans_nest_under_their_attempt_and_share_the_txn_id() {
        let inner = TwoPhaseLockingDb::new();
        let traced = TracedDb::new(&inner, Instant::now());
        traced.label(7, "payment");
        scripted(&traced);
        let spans = traced.into_spans();
        let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "payment", "write", "write", "read", "begin", "commit", // committed
                "payment", "write", "begin", "commit", // aborted by its body
                "payment", "read", "read", "read", "begin", "commit",
            ]
        );
        for (index, span) in spans.iter().enumerate() {
            assert_eq!(span.txn, 7);
            assert!(span.start_ns <= span.end_ns);
            match span.parent {
                None => assert_eq!(span.name, "payment"),
                Some(parent) => {
                    assert!(parent < index && spans[parent].parent.is_none());
                    assert!(spans[parent].start_ns <= span.start_ns);
                    assert!(span.end_ns <= spans[parent].end_ns);
                }
            }
        }
        let json = spans_json(&[spans]);
        assert_eq!(json.matches("\"name\": \"payment\"").count(), 3);
    }
}
