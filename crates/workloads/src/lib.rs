//! Application workloads and the load driver for the Obladi evaluation.
//!
//! The paper evaluates Obladi on three applications plus YCSB
//! microbenchmarks (§11):
//!
//! * [`tpcc`] — TPC-C with 10 warehouses (the de-facto OLTP standard);
//! * [`smallbank`] — SmallBank with one million accounts;
//! * [`freehealth`] — the FreeHealth EHR schema of Figure 8 with its 21
//!   transaction types;
//! * [`ycsb`] — the YCSB generator used by the microbenchmarks of §11.2.
//!
//! All workloads are written against `obladi_core::KvDatabase`, so they run
//! unchanged on Obladi, NoPriv and the 2PL baseline.  [`driver`] provides
//! the closed-loop load generator and [`encoding`] the relational-to-KV row
//! mapping.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod driver;
pub mod encoding;
pub mod freehealth;
pub mod smallbank;
pub mod tpcc;
pub mod ycsb;

pub use driver::{run_closed_loop, run_deployment, run_fixed_count, Workload};
pub use encoding::{pack_key, Row};
pub use freehealth::{FreeHealthConfig, FreeHealthTxn, FreeHealthWorkload};
pub use smallbank::{SmallBankConfig, SmallBankTxn, SmallBankWorkload};
pub use tpcc::{TpccConfig, TpccTxn, TpccWorkload};
pub use ycsb::{YcsbConfig, YcsbWorkload};
