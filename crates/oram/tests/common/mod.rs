//! Shared by the integration tests that hold a reader batch in mid-air.

use obladi_common::error::Result;
use obladi_oram::{PathLogger, SlotRead};
use std::sync::{mpsc, Mutex};

/// Holds a read batch between its plan and its fetch: says that the batch
/// is planned, then waits to be let go — or for the other thread to unwind,
/// so that a failed assertion over there is what the test reports, not a
/// hang.
pub struct HeldInFlight {
    planned: mpsc::Sender<()>,
    let_go: Mutex<mpsc::Receiver<()>>,
}

/// The logger to plan the held batches with, the receiver that hears of
/// every plan, and the sender that lets a planned batch go.  The driving
/// thread must own the sender where it can unwind (move it into the scope's
/// closure): dropping it is what releases a reader it left parked.
pub fn held_in_flight() -> (HeldInFlight, mpsc::Receiver<()>, mpsc::Sender<()>) {
    let (planned, is_planned) = mpsc::channel();
    let (let_go, held) = mpsc::channel();
    let held = HeldInFlight {
        planned,
        let_go: Mutex::new(held),
    };
    (held, is_planned, let_go)
}

impl PathLogger for HeldInFlight {
    fn log_reads(&self, _reads: &[SlotRead]) -> Result<()> {
        self.planned.send(()).expect("the test waits for the plan");
        let _ = self.let_go.lock().unwrap().recv();
        Ok(())
    }
}
