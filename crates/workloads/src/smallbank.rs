//! The SmallBank benchmark (§11: one million accounts).
//!
//! SmallBank models a simple banking application.  Each customer has a
//! checking and a savings account; the six standard transaction types are
//! implemented, with the canonical mix used by OLTP-Bench:
//!
//! | Transaction      | Reads | Writes | Mix  |
//! |------------------|-------|--------|------|
//! | Balance          | 2     | 0      | 15 % |
//! | DepositChecking  | 1     | 1      | 15 % |
//! | TransactSavings  | 1     | 1      | 15 % |
//! | Amalgamate       | 2     | 2      | 15 % |
//! | WriteCheck       | 2     | 1      | 25 % |
//! | SendPayment      | 2     | 2      | 15 % |

use crate::driver::{Workload, SETUP_RETRIES};
use crate::encoding::{pack_key, read_row, write_row, Row};
use obladi_common::error::{ObladiError, Result};
use obladi_common::rng::DetRng;
use obladi_common::zipf::Zipf;
use obladi_core::{KvDatabase, KvTransaction};

const TABLE_CHECKING: u8 = 2;
const TABLE_SAVINGS: u8 = 3;

/// Initial balance loaded into every account.
pub const INITIAL_BALANCE: u64 = 10_000;

/// SmallBank configuration.
#[derive(Debug, Clone, Copy)]
pub struct SmallBankConfig {
    /// Number of customer accounts.
    pub num_accounts: u64,
    /// Fraction of accounts considered "hot" (accessed preferentially).
    pub hotspot_fraction: f64,
    /// Probability that a transaction targets the hot set.
    pub hotspot_probability: f64,
}

impl SmallBankConfig {
    /// Small configuration for tests.
    pub fn small() -> Self {
        SmallBankConfig {
            num_accounts: 100,
            hotspot_fraction: 0.1,
            hotspot_probability: 0.25,
        }
    }

    /// The paper's configuration: one million accounts.
    pub fn paper() -> Self {
        SmallBankConfig {
            num_accounts: 1_000_000,
            hotspot_fraction: 0.01,
            hotspot_probability: 0.25,
        }
    }
}

/// The six SmallBank transaction types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SmallBankTxn {
    /// Read both balances of one customer.
    Balance,
    /// Add to a checking account.
    DepositChecking,
    /// Add to a savings account.
    TransactSavings,
    /// Move the entire savings balance of one customer into another's
    /// checking account.
    Amalgamate,
    /// Deduct a check from a checking account (allowing overdraft flagging).
    WriteCheck,
    /// Transfer between two customers' checking accounts.
    SendPayment,
}

impl SmallBankTxn {
    /// Picks a transaction type according to the standard mix.
    pub fn sample(rng: &mut DetRng) -> Self {
        match rng.below(100) {
            0..=14 => SmallBankTxn::Balance,
            15..=29 => SmallBankTxn::DepositChecking,
            30..=44 => SmallBankTxn::TransactSavings,
            45..=59 => SmallBankTxn::Amalgamate,
            60..=84 => SmallBankTxn::WriteCheck,
            _ => SmallBankTxn::SendPayment,
        }
    }
}

/// The SmallBank workload.
pub struct SmallBankWorkload {
    config: SmallBankConfig,
    account_dist: Zipf,
}

impl SmallBankWorkload {
    /// Creates the workload.
    pub fn new(config: SmallBankConfig) -> Self {
        SmallBankWorkload {
            account_dist: Zipf::uniform(config.num_accounts.max(1)),
            config,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &SmallBankConfig {
        &self.config
    }

    fn checking_key(account: u64) -> u64 {
        pack_key(TABLE_CHECKING, account, 0, 0)
    }

    fn savings_key(account: u64) -> u64 {
        pack_key(TABLE_SAVINGS, account, 0, 0)
    }

    fn pick_account(&self, rng: &mut DetRng) -> u64 {
        let hot_count =
            ((self.config.num_accounts as f64) * self.config.hotspot_fraction).max(1.0) as u64;
        if rng.unit() < self.config.hotspot_probability {
            rng.below(hot_count)
        } else {
            self.account_dist.sample(rng)
        }
    }

    fn pick_two_accounts(&self, rng: &mut DetRng) -> (u64, u64) {
        let a = self.pick_account(rng);
        let mut b = self.pick_account(rng);
        let mut guard = 0;
        while b == a && guard < 16 {
            b = self.pick_account(rng);
            guard += 1;
        }
        if b == a {
            b = (a + 1) % self.config.num_accounts.max(2);
        }
        (a, b)
    }

    fn read_balance(txn: &mut dyn KvTransaction, key: u64) -> Result<u64> {
        match read_row(txn, key)? {
            Some(row) => row.num(0),
            None => Err(ObladiError::KeyNotFound(key)),
        }
    }

    fn write_balance(txn: &mut dyn KvTransaction, key: u64, balance: u64) -> Result<()> {
        write_row(txn, key, &Row::new(vec![balance]))
    }

    /// Executes one specific transaction type (exposed for tests).
    pub fn run_txn<D: KvDatabase>(
        &self,
        db: &D,
        kind: SmallBankTxn,
        rng: &mut DetRng,
    ) -> Result<bool> {
        let result = match kind {
            SmallBankTxn::Balance => {
                let account = self.pick_account(rng);
                db.execute(&mut |txn: &mut dyn KvTransaction| {
                    let checking = Self::read_balance(txn, Self::checking_key(account))?;
                    let savings = Self::read_balance(txn, Self::savings_key(account))?;
                    Ok(checking + savings)
                })
                .map(|_| ())
            }
            SmallBankTxn::DepositChecking => {
                let account = self.pick_account(rng);
                let amount = 1 + rng.below(100);
                db.execute(&mut |txn: &mut dyn KvTransaction| {
                    let key = Self::checking_key(account);
                    let balance = Self::read_balance(txn, key)?;
                    Self::write_balance(txn, key, balance + amount)
                })
            }
            SmallBankTxn::TransactSavings => {
                let account = self.pick_account(rng);
                let amount = 1 + rng.below(100);
                db.execute(&mut |txn: &mut dyn KvTransaction| {
                    let key = Self::savings_key(account);
                    let balance = Self::read_balance(txn, key)?;
                    Self::write_balance(txn, key, balance + amount)
                })
            }
            SmallBankTxn::Amalgamate => {
                let (from, to) = self.pick_two_accounts(rng);
                db.execute(&mut |txn: &mut dyn KvTransaction| {
                    let savings_key = Self::savings_key(from);
                    let checking_key = Self::checking_key(to);
                    let savings = Self::read_balance(txn, savings_key)?;
                    let checking = Self::read_balance(txn, checking_key)?;
                    Self::write_balance(txn, savings_key, 0)?;
                    Self::write_balance(txn, checking_key, checking + savings)
                })
            }
            SmallBankTxn::WriteCheck => {
                let account = self.pick_account(rng);
                let amount = 1 + rng.below(200);
                db.execute(&mut |txn: &mut dyn KvTransaction| {
                    let checking_key = Self::checking_key(account);
                    let savings = Self::read_balance(txn, Self::savings_key(account))?;
                    let checking = Self::read_balance(txn, checking_key)?;
                    // Overdraft penalty of 1 if the check exceeds total funds.
                    let penalty = if amount > checking + savings { 1 } else { 0 };
                    Self::write_balance(
                        txn,
                        checking_key,
                        checking.saturating_sub(amount + penalty),
                    )
                })
            }
            SmallBankTxn::SendPayment => {
                let (from, to) = self.pick_two_accounts(rng);
                let amount = 1 + rng.below(50);
                db.execute(&mut |txn: &mut dyn KvTransaction| {
                    let from_key = Self::checking_key(from);
                    let to_key = Self::checking_key(to);
                    let from_balance = Self::read_balance(txn, from_key)?;
                    let to_balance = Self::read_balance(txn, to_key)?;
                    if from_balance < amount {
                        // Insufficient funds: the transaction still commits,
                        // having only read.
                        return Ok(());
                    }
                    Self::write_balance(txn, from_key, from_balance - amount)?;
                    Self::write_balance(txn, to_key, to_balance + amount)
                })
            }
        };
        match result {
            Ok(()) => Ok(true),
            Err(err) if err.is_retryable() => Ok(false),
            Err(err) => Err(err),
        }
    }

    /// Sum of all balances (conservation check used by tests).
    ///
    /// Reads are issued in small chunks (one transaction each) so the scan
    /// also works on Obladi, where a transaction's sequential reads are
    /// bounded by the number of read batches per epoch.
    pub fn total_balance<D: KvDatabase>(&self, db: &D) -> Result<u64> {
        let mut total = 0u64;
        let accounts = self.config.num_accounts;
        let chunk = 8u64;
        let mut start = 0;
        while start < accounts {
            let end = (start + chunk).min(accounts);
            let partial = db.execute(&mut |txn: &mut dyn KvTransaction| {
                let mut sum = 0u64;
                for account in start..end {
                    sum += Self::read_balance(txn, Self::checking_key(account))?;
                    sum += Self::read_balance(txn, Self::savings_key(account))?;
                }
                Ok(sum)
            })?;
            total += partial;
            start = end;
        }
        Ok(total)
    }
}

impl Workload for SmallBankWorkload {
    fn setup<D: KvDatabase>(&self, db: &D) -> Result<()> {
        let chunk = 16u64;
        let mut start = 0u64;
        while start < self.config.num_accounts {
            let end = (start + chunk).min(self.config.num_accounts);
            db.execute_with_retries(SETUP_RETRIES, &mut |txn: &mut dyn KvTransaction| {
                for account in start..end {
                    Self::write_balance(txn, Self::checking_key(account), INITIAL_BALANCE)?;
                    Self::write_balance(txn, Self::savings_key(account), INITIAL_BALANCE)?;
                }
                Ok(())
            })?;
            start = end;
        }
        Ok(())
    }

    fn run_one<D: KvDatabase>(&self, db: &D, rng: &mut DetRng) -> Result<bool> {
        let kind = SmallBankTxn::sample(rng);
        self.run_txn(db, kind, rng)
    }

    fn name(&self) -> &'static str {
        "smallbank"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::run_fixed_count;
    use obladi_core::TwoPhaseLockingDb;

    fn setup_small() -> (TwoPhaseLockingDb, SmallBankWorkload) {
        let db = TwoPhaseLockingDb::new();
        let workload = SmallBankWorkload::new(SmallBankConfig::small());
        workload.setup(&db).unwrap();
        (db, workload)
    }

    #[test]
    fn setup_gives_every_account_initial_balances() {
        let (db, workload) = setup_small();
        let total = workload.total_balance(&db).unwrap();
        assert_eq!(total, 100 * 2 * INITIAL_BALANCE);
    }

    #[test]
    fn send_payment_conserves_money() {
        let (db, workload) = setup_small();
        let before = workload.total_balance(&db).unwrap();
        let mut rng = DetRng::new(4);
        for _ in 0..50 {
            workload
                .run_txn(&db, SmallBankTxn::SendPayment, &mut rng)
                .unwrap();
        }
        let after = workload.total_balance(&db).unwrap();
        assert_eq!(before, after, "payments only move money around");
    }

    #[test]
    fn amalgamate_empties_savings() {
        let (db, workload) = setup_small();
        let mut rng = DetRng::new(5);
        workload
            .run_txn(&db, SmallBankTxn::Amalgamate, &mut rng)
            .unwrap();
        // At least one savings account is now zero.
        let mut any_zero = false;
        db.execute(&mut |txn: &mut dyn KvTransaction| {
            for account in 0..100u64 {
                let savings =
                    SmallBankWorkload::read_balance(txn, SmallBankWorkload::savings_key(account))?;
                if savings == 0 {
                    any_zero = true;
                }
            }
            Ok(())
        })
        .unwrap();
        assert!(any_zero);
    }

    #[test]
    fn deposits_increase_total() {
        let (db, workload) = setup_small();
        let before = workload.total_balance(&db).unwrap();
        let mut rng = DetRng::new(6);
        for _ in 0..20 {
            workload
                .run_txn(&db, SmallBankTxn::DepositChecking, &mut rng)
                .unwrap();
        }
        assert!(workload.total_balance(&db).unwrap() > before);
    }

    #[test]
    fn mixed_workload_runs_cleanly() {
        let (db, workload) = setup_small();
        let stats = run_fixed_count(&db, &workload, 100, 9).unwrap();
        assert_eq!(stats.committed + stats.aborted, 100);
        assert!(stats.committed > 80, "most transactions should commit");
    }

    #[test]
    fn transaction_mix_covers_all_types() {
        let mut rng = DetRng::new(7);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..500 {
            seen.insert(format!("{:?}", SmallBankTxn::sample(&mut rng)));
        }
        assert_eq!(seen.len(), 6, "all six transaction types must appear");
    }
}
