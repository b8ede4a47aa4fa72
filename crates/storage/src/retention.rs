//! WAL retention: which prefix of the log a durable full checkpoint retires.
//!
//! Recovery (§8) reads the last durable full checkpoint, the delta chain
//! after it, and whatever belongs to epochs above the durable frontier
//! (path logs, prepares, a decision record).  Everything in front of that
//! is dead weight, so once per checkpoint cycle the log is cut at
//!
//! ```text
//! min(seq of Full(N), first seq of any record of an epoch > N)
//! ```
//!
//! — the second term because the executing epoch `N+1` logs its read paths
//! *while* epoch `N` checkpoints, so some of them sit in front of `Full(N)`.
//! The cut waits for two things: `N`'s commit marker (the checkpoint is
//! durable) and `N`'s durability acknowledgement (the coordinator no longer
//! needs this shard's prepares of epochs up to `N` re-vouched by a recovery).
//!
//! The rule is a plain transition type — no locks, clocks or I/O — so it can
//! be stepped exhaustively; [`crate::wal::WriteAheadLog`] drives it from its
//! appends and performs the one `truncate_log` call it asks for.

use crate::wal::WalRecordKind;
use std::collections::BTreeMap;

/// A prefix of the log that may be dropped, and what it holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cut {
    /// Records with a sequence number below this are retired.
    pub up_to: u64,
    /// How many retained records that is.
    pub records: u64,
    /// Their framed bytes.
    pub bytes: u64,
}

/// Retention state of one write-ahead log.
#[derive(Debug, Default)]
pub struct Retention {
    /// Highest epoch known durable (`None` until the trusted counter or the
    /// first commit marker says).
    frontier: Option<u64>,
    /// Lower bound on the sequence number the next append is assigned.
    next_seq: u64,
    /// Per epoch above the commit frontier: a lower bound on the sequence
    /// number of its first record, taken *before* that record's append so a
    /// concurrent cut can never pass a record the store has yet to number.
    first_seq: BTreeMap<u64, u64>,
    /// The newest full checkpoint appended and not yet cut behind,
    /// `(epoch, seq)`: durable once the frontier reaches its epoch.  A later
    /// incarnation of the epoch supersedes an orphan whose marker never
    /// came.
    full: Option<(u64, u64)>,
    /// Framed length of every retained record, by sequence number.
    retained: BTreeMap<u64, u64>,
}

impl Retention {
    /// The commit frontier, if known.
    pub fn frontier(&self) -> Option<u64> {
        self.frontier
    }

    /// Sets the frontier on the trusted counter's word.
    pub fn set_frontier(&mut self, durable: u64) {
        self.frontier = Some(durable);
        self.first_seq = self.first_seq.split_off(&(durable + 1));
    }

    /// Takes over from `earlier`, the state a recovery scan replaces, what
    /// the scanned log cannot tell: the frontier (the trusted counter's
    /// word, not that of the commit markers the store served) and the
    /// reservations — an append admitted there, by a straggler of the
    /// crashed life, may reach the store after the scan read it.
    pub fn inherit(&mut self, earlier: &Retention) {
        for (&epoch, &seq) in &earlier.first_seq {
            let first = self.first_seq.entry(epoch).or_insert(seq);
            *first = seq.min(*first);
        }
        if let Some(durable) = earlier.frontier {
            self.set_frontier(durable);
        }
    }

    /// A record of `epoch` is about to be appended.
    pub fn admitted(&mut self, epoch: u64) {
        self.first_seq.entry(epoch).or_insert(self.next_seq);
    }

    /// The store numbered an admitted record of `len` framed bytes `seq`.
    pub fn appended(&mut self, kind: WalRecordKind, epoch: u64, seq: u64, len: usize) {
        self.next_seq = self.next_seq.max(seq + 1);
        self.retained.insert(seq, len as u64);
        match kind {
            WalRecordKind::CheckpointFull => self.full = Some((epoch, seq)),
            WalRecordKind::EpochCommit => self.committed(epoch),
            _ => {}
        }
    }

    /// `epoch`'s commit marker is in the log: the frontier moves up to it,
    /// and its full checkpoint, if it wrote one, becomes the base recovery
    /// starts from.
    pub fn committed(&mut self, epoch: u64) {
        self.set_frontier(self.frontier.map_or(epoch, |durable| durable.max(epoch)));
    }

    /// `epoch`'s durability acknowledgement has been delivered (and with
    /// it, in order, that of every epoch before).  Returns the prefix to
    /// retire, at most once per durable full checkpoint.
    pub fn acked(&mut self, epoch: u64) -> Option<Cut> {
        let durable = |full: &mut (u64, u64)| Some(full.0) <= self.frontier && full.0 <= epoch;
        let (_, full_seq) = self.full.take_if(durable)?;
        let first_seqs = self.first_seq.values();
        let up_to = first_seqs.fold(full_seq, |cut, seq| cut.min(*seq));
        let kept = self.retained.split_off(&up_to);
        let retired = std::mem::replace(&mut self.retained, kept);
        Some(Cut {
            up_to,
            records: retired.len() as u64,
            bytes: retired.values().sum(),
        })
    }

    /// Records at or above `from` were erased (a torn tail).
    pub fn tail_dropped(&mut self, from: u64) {
        self.retained.split_off(&from);
    }

    /// `(records, framed bytes)` the log retains.
    pub fn retained(&self) -> (u64, u64) {
        (self.retained.len() as u64, self.retained.values().sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use WalRecordKind::{CheckpointDelta, CheckpointFull, Decision, EpochCommit, PathLog, Prepare};

    /// Appends one record the way the WAL does, returning its sequence
    /// number.
    fn append(r: &mut Retention, next: &mut u64, kind: WalRecordKind, epoch: u64) -> u64 {
        r.admitted(epoch);
        let seq = *next;
        *next += 1;
        r.appended(kind, epoch, seq, 10);
        seq
    }

    /// One epoch's commit path: decision, checkpoint, marker.
    fn commit(r: &mut Retention, next: &mut u64, epoch: u64, full: bool) -> u64 {
        append(r, next, Decision, epoch);
        let kind = if full {
            CheckpointFull
        } else {
            CheckpointDelta
        };
        let checkpoint = append(r, next, kind, epoch);
        append(r, next, EpochCommit, epoch);
        checkpoint
    }

    #[test]
    fn nothing_is_retired_before_a_full_checkpoint_is_durable_and_acked() {
        let (mut r, mut next) = (Retention::default(), 0);
        assert_eq!(r.acked(1), None, "empty log");
        append(&mut r, &mut next, PathLog, 1);
        append(&mut r, &mut next, CheckpointFull, 1);
        assert_eq!(r.acked(1), None, "appended, marker missing");
        append(&mut r, &mut next, EpochCommit, 1);
        assert_eq!(r.acked(0), None, "durable, an earlier epoch's ack");
        let cut = r.acked(1).expect("durable and acknowledged");
        assert_eq!((cut.up_to, cut.records, cut.bytes), (1, 1, 10));
        assert_eq!(r.acked(1), None, "one cut per full checkpoint");
        assert_eq!(r.retained(), (2, 20));
    }

    #[test]
    fn delta_epochs_never_cut() {
        let (mut r, mut next) = (Retention::default(), 0);
        commit(&mut r, &mut next, 1, true);
        assert!(r.acked(1).is_some());
        for epoch in 2..4 {
            append(&mut r, &mut next, PathLog, epoch);
            commit(&mut r, &mut next, epoch, false);
            assert_eq!(r.acked(epoch), None);
        }
    }

    #[test]
    fn the_cut_stops_at_executing_epoch_path_logs_in_front_of_the_checkpoint() {
        let (mut r, mut next) = (Retention::default(), 0);
        commit(&mut r, &mut next, 3, false);
        append(&mut r, &mut next, PathLog, 4);
        // Depth 2: epoch 5 logs paths on both sides of Full(4).
        append(&mut r, &mut next, Prepare, 4);
        let first_of_5 = append(&mut r, &mut next, PathLog, 5);
        let full = commit(&mut r, &mut next, 4, true);
        append(&mut r, &mut next, PathLog, 5);
        assert!(first_of_5 < full);
        let cut = r.acked(4).unwrap();
        assert_eq!(cut.up_to, first_of_5);
        assert_eq!(cut.records, first_of_5, "everything in front, nothing else");
    }

    #[test]
    fn depth_one_cuts_exactly_at_the_checkpoint() {
        let (mut r, mut next) = (Retention::default(), 0);
        for epoch in 1..=4 {
            append(&mut r, &mut next, PathLog, epoch);
            let checkpoint = commit(&mut r, &mut next, epoch, epoch % 4 == 0 || epoch == 1);
            if let Some(cut) = r.acked(epoch) {
                assert_eq!(cut.up_to, checkpoint);
            }
        }
        assert_eq!(r.retained().0, 2, "Full(4) and its marker");
    }

    #[test]
    fn an_admitted_record_holds_the_cut_before_the_store_numbers_it() {
        // The executor admits epoch 5's first path log, then stalls inside
        // the store call while the decider checkpoints, commits and
        // acknowledges epoch 4: the cut must not pass the record to come.
        let (mut r, mut next) = (Retention::default(), 7);
        r.appended(PathLog, 4, 6, 10);
        r.admitted(5);
        let full = commit(&mut r, &mut next, 4, true);
        assert_eq!(r.acked(4).unwrap().up_to, 7);
        assert!(full > 7);
    }

    #[test]
    fn a_rebuilt_state_keeps_the_reservations_of_the_one_it_replaces() {
        // A read batch of the crashed life admitted epoch 5's first path
        // log, recovery scanned the log without it, and only then did the
        // store number it: the new life's cut behind Full(4) must not pass.
        let (mut crashed, mut next) = (Retention::default(), 0);
        commit(&mut crashed, &mut next, 3, false);
        crashed.admitted(5);
        let straggler = next;
        let mut rebuilt = Retention::default();
        let mut scanned = 0;
        commit(&mut rebuilt, &mut scanned, 3, false);
        crashed.set_frontier(2);
        rebuilt.inherit(&crashed);
        assert_eq!(
            rebuilt.frontier(),
            Some(2),
            "the counter's word, not the markers'"
        );
        rebuilt.set_frontier(3);
        rebuilt.appended(PathLog, 5, straggler, 10);
        next += 1;
        append(&mut rebuilt, &mut next, PathLog, 4);
        let full = commit(&mut rebuilt, &mut next, 4, true);
        assert!(straggler < full);
        assert_eq!(rebuilt.acked(4).unwrap().up_to, straggler);
    }

    #[test]
    fn an_orphaned_full_checkpoint_is_superseded_by_the_replayed_epoch() {
        let (mut r, mut next) = (Retention::default(), 0);
        commit(&mut r, &mut next, 3, false);
        // Crash between Full(4) and its marker; the next life runs 4 again.
        append(&mut r, &mut next, CheckpointFull, 4);
        append(&mut r, &mut next, PathLog, 4);
        let second = commit(&mut r, &mut next, 4, true);
        assert_eq!(r.acked(4).unwrap().up_to, second);
    }

    #[test]
    fn a_later_acknowledgement_retires_a_checkpoint_recovery_made_durable() {
        // Recovery commits epoch 4 itself (a replayed decision); nobody
        // calls `acked(4)`, the resumed proxy's first epoch acknowledges 5.
        let (mut r, mut next) = (Retention::default(), 0);
        let full = commit(&mut r, &mut next, 4, true);
        append(&mut r, &mut next, PathLog, 5);
        commit(&mut r, &mut next, 5, false);
        assert_eq!(r.acked(5).unwrap().up_to, full);
    }

    #[test]
    fn retained_accounting_follows_appends_cuts_and_torn_tails() {
        let (mut r, mut next) = (Retention::default(), 0);
        commit(&mut r, &mut next, 1, true);
        assert_eq!(r.retained(), (3, 30));
        let cut = r.acked(1).unwrap();
        assert_eq!((cut.records, cut.bytes), (1, 10));
        assert_eq!(r.retained(), (2, 20));
        let torn = append(&mut r, &mut next, Prepare, 2);
        r.tail_dropped(torn);
        assert_eq!(r.retained(), (2, 20));
    }

    /// What recovery may need from a log of `(seq, kind, epoch)` records at
    /// durable frontier `durable`: the last durable full checkpoint and
    /// everything of a later epoch.  Returns the lowest such sequence number.
    fn needed_from(log: &[(u64, WalRecordKind, u64)], durable: u64) -> u64 {
        let base = log
            .iter()
            .rev()
            .find(|(_, kind, epoch)| *kind == CheckpointFull && *epoch <= durable)
            .map(|(seq, _, epoch)| (*seq, *epoch));
        let Some((base_seq, base_epoch)) = base else {
            return 0;
        };
        log.iter()
            .filter(|(_, _, epoch)| *epoch > base_epoch)
            .map(|(seq, _, _)| *seq)
            .fold(base_seq, u64::min)
    }

    #[test]
    fn no_interleaving_of_two_pipelined_epochs_cuts_into_what_recovery_needs() {
        // Epoch N's commit path (decision, checkpoint, marker, ack) against
        // epoch N+1's path logs, every merge of the two sequences, over a
        // 9-epoch run with a full checkpoint every 4th: after every step the
        // cut so far must leave everything `needed_from` names.
        const PATHS: usize = 3;
        for merge in 0..1u32 << (PATHS + 4) {
            if merge.count_ones() as usize != PATHS {
                continue;
            }
            let (mut r, mut next, mut log, mut cut_at) = (Retention::default(), 0, vec![], 0);
            let mut durable = 0;
            for epoch in 1..=9u64 {
                let full = epoch == 1 || epoch % 4 == 0;
                let checkpoint = if full {
                    CheckpointFull
                } else {
                    CheckpointDelta
                };
                let mut decider = [Decision, checkpoint, EpochCommit].into_iter();
                for step in 0..PATHS + 4 {
                    if merge >> step & 1 == 1 {
                        let seq = append(&mut r, &mut next, PathLog, epoch + 1);
                        log.push((seq, PathLog, epoch + 1));
                    } else if let Some(kind) = decider.next() {
                        let seq = append(&mut r, &mut next, kind, epoch);
                        log.push((seq, kind, epoch));
                        if kind == EpochCommit {
                            durable = epoch;
                        }
                    } else if let Some(cut) = r.acked(epoch) {
                        cut_at = cut.up_to;
                    }
                    assert!(
                        cut_at <= needed_from(&log, durable),
                        "merge {merge:b}, epoch {epoch}, step {step}: cut {cut_at} passes \
                         what recovery needs"
                    );
                }
            }
            assert!(cut_at > 0, "merge {merge:b}: nothing was ever retired");
            assert!(r.retained().0 <= 2 * (PATHS as u64 + 3), "merge {merge:b}");
        }
    }
}
