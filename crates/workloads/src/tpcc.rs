//! The TPC-C benchmark (§11: 10 warehouses, the de-facto OLTP standard).
//!
//! All five transaction types are implemented against the key-value
//! interface: `NewOrder`, `Payment`, `OrderStatus`, `Delivery` and
//! `StockLevel`, with the standard mix (45/43/4/4/4).  As in the paper's
//! setup, two secondary-index tables are maintained: customers by last name
//! (used by `Payment` and `OrderStatus`) and each customer's latest order
//! (used by `OrderStatus`).
//!
//! Simplifications relative to the full TPC-C specification, chosen to keep
//! rows inside a single ORAM block and documented here for transparency:
//! the `HISTORY` table is represented by a per-customer payment counter,
//! undelivered orders are tracked with a per-district delivery cursor
//! instead of a `NEW-ORDER` table scan, and text columns are represented by
//! numeric identifiers.  None of these change the transactions' read/write
//! footprints on the tables the evaluation exercises.

use crate::driver::{Workload, SETUP_RETRIES};
use crate::encoding::{pack_key, read_row, write_row, Row};
use obladi_common::error::{ObladiError, Result};
use obladi_common::rng::DetRng;
use obladi_core::{KvDatabase, KvTransaction};

const TABLE_WAREHOUSE: u8 = 10;
const TABLE_DISTRICT: u8 = 11;
const TABLE_CUSTOMER: u8 = 12;
const TABLE_CUSTOMER_NAME_IDX: u8 = 13;
const TABLE_ORDER: u8 = 14;
const TABLE_ORDER_LINE: u8 = 16;
const TABLE_ITEM: u8 = 17;
const TABLE_STOCK: u8 = 18;
const TABLE_CUSTOMER_LATEST_ORDER: u8 = 19;

// Row field indices, named for readability.
mod district_fields {
    pub const NEXT_O_ID: usize = 0;
    pub const YTD: usize = 1;
    pub const NEXT_DELIVERY_O_ID: usize = 2;
}
mod customer_fields {
    pub const BALANCE: usize = 0;
    pub const YTD_PAYMENT: usize = 1;
    pub const PAYMENT_CNT: usize = 2;
    pub const DELIVERY_CNT: usize = 3;
    pub const LAST_NAME_ID: usize = 4;
}
mod order_fields {
    pub const C_ID: usize = 0;
    pub const CARRIER_ID: usize = 1;
    pub const OL_CNT: usize = 2;
    pub const ENTRY_D: usize = 3;
}
mod order_line_fields {
    pub const ITEM_ID: usize = 0;
    pub const SUPPLY_W: usize = 1;
    pub const QUANTITY: usize = 2;
    pub const AMOUNT: usize = 3;
    pub const DELIVERY_D: usize = 4;
}
mod stock_fields {
    pub const QUANTITY: usize = 0;
    pub const YTD: usize = 1;
    pub const ORDER_CNT: usize = 2;
    pub const REMOTE_CNT: usize = 3;
}

/// TPC-C configuration.
#[derive(Debug, Clone, Copy)]
pub struct TpccConfig {
    /// Number of warehouses.
    pub warehouses: u64,
    /// Districts per warehouse (10 in the spec).
    pub districts_per_warehouse: u64,
    /// Customers per district (3000 in the spec).
    pub customers_per_district: u64,
    /// Number of items (100 000 in the spec).
    pub items: u64,
    /// Distinct last names used by the by-name index.
    pub last_names: u64,
    /// How many recent orders a `StockLevel` transaction scans (20 in the
    /// spec; smaller values keep transactions inside one Obladi epoch).
    pub stock_level_orders: u64,
    /// Maximum order lines per order (the spec draws 5–15).
    pub max_order_lines: u64,
}

impl TpccConfig {
    /// Tiny configuration for unit tests.
    pub fn small() -> Self {
        TpccConfig {
            warehouses: 1,
            districts_per_warehouse: 2,
            customers_per_district: 8,
            items: 32,
            last_names: 4,
            stock_level_orders: 3,
            max_order_lines: 5,
        }
    }

    /// A scaled-down configuration for benchmarks (the paper uses 10
    /// warehouses with the full table cardinalities; this keeps the shape —
    /// contention on districts — while fitting the simulated store).
    pub fn benchmark(warehouses: u64) -> Self {
        TpccConfig {
            warehouses,
            districts_per_warehouse: 10,
            customers_per_district: 120,
            items: 1000,
            last_names: 32,
            stock_level_orders: 5,
            max_order_lines: 10,
        }
    }
}

/// The five TPC-C transaction types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TpccTxn {
    /// Place a new order (≈45%).
    NewOrder,
    /// Record a customer payment (≈43%).
    Payment,
    /// Query the status of a customer's latest order (≈4%).
    OrderStatus,
    /// Deliver the oldest undelivered order of every district (≈4%).
    Delivery,
    /// Count low-stock items among recent orders (≈4%).
    StockLevel,
}

impl TpccTxn {
    /// Samples a transaction type from the standard mix.
    pub fn sample(rng: &mut DetRng) -> Self {
        match rng.below(100) {
            0..=44 => TpccTxn::NewOrder,
            45..=87 => TpccTxn::Payment,
            88..=91 => TpccTxn::OrderStatus,
            92..=95 => TpccTxn::Delivery,
            _ => TpccTxn::StockLevel,
        }
    }
}

/// The TPC-C workload.
pub struct TpccWorkload {
    config: TpccConfig,
}

impl TpccWorkload {
    /// Creates the workload.
    pub fn new(config: TpccConfig) -> Self {
        TpccWorkload { config }
    }

    /// The configuration.
    pub fn config(&self) -> &TpccConfig {
        &self.config
    }

    // ---- key helpers ----

    fn warehouse_key(w: u64) -> u64 {
        pack_key(TABLE_WAREHOUSE, w, 0, 0)
    }
    fn district_key(w: u64, d: u64) -> u64 {
        pack_key(TABLE_DISTRICT, w, d, 0)
    }
    fn customer_key(w: u64, d: u64, c: u64) -> u64 {
        pack_key(TABLE_CUSTOMER, c, w, d)
    }
    fn customer_name_idx_key(w: u64, d: u64, name: u64) -> u64 {
        pack_key(TABLE_CUSTOMER_NAME_IDX, name, w, d)
    }
    fn order_key(w: u64, d: u64, o: u64) -> u64 {
        pack_key(TABLE_ORDER, o, w, d)
    }
    fn order_line_key(w: u64, d: u64, o: u64, line: u64) -> u64 {
        pack_key(TABLE_ORDER_LINE, o, w, d * 16 + line)
    }
    fn item_key(i: u64) -> u64 {
        pack_key(TABLE_ITEM, i, 0, 0)
    }
    fn stock_key(w: u64, i: u64) -> u64 {
        pack_key(TABLE_STOCK, i, w, 0)
    }
    fn latest_order_key(w: u64, d: u64, c: u64) -> u64 {
        pack_key(TABLE_CUSTOMER_LATEST_ORDER, c, w, d)
    }

    fn pick_warehouse(&self, rng: &mut DetRng) -> u64 {
        rng.below(self.config.warehouses)
    }
    fn pick_district(&self, rng: &mut DetRng) -> u64 {
        rng.below(self.config.districts_per_warehouse)
    }
    fn pick_customer(&self, rng: &mut DetRng) -> u64 {
        rng.below(self.config.customers_per_district)
    }
    fn pick_item(&self, rng: &mut DetRng) -> u64 {
        rng.below(self.config.items)
    }

    fn customer_last_name(&self, c: u64) -> u64 {
        c % self.config.last_names
    }

    fn map_result(result: Result<()>) -> Result<bool> {
        match result {
            Ok(()) => Ok(true),
            Err(err) if err.is_retryable() => Ok(false),
            Err(err) => Err(err),
        }
    }

    // ---- transactions ----

    /// The NewOrder transaction: reads the district and items, updates stock
    /// levels and creates the order and its lines.
    pub fn new_order<D: KvDatabase>(&self, db: &D, rng: &mut DetRng) -> Result<bool> {
        let w = self.pick_warehouse(rng);
        let d = self.pick_district(rng);
        let c = self.pick_customer(rng);
        let line_count = 2 + rng.below(self.config.max_order_lines.saturating_sub(1).max(1));
        let lines: Vec<(u64, u64, u64)> = (0..line_count)
            .map(|_| {
                // 1% of lines reference a remote warehouse when possible.
                let supply_w = if self.config.warehouses > 1 && rng.chance(0.01) {
                    (w + 1 + rng.below(self.config.warehouses - 1)) % self.config.warehouses
                } else {
                    w
                };
                (self.pick_item(rng), supply_w, 1 + rng.below(10))
            })
            .collect();

        Self::map_result(db.execute(&mut |txn: &mut dyn KvTransaction| {
            // District: allocate the order id.
            let district_key = Self::district_key(w, d);
            let mut district =
                read_row(txn, district_key)?.ok_or(ObladiError::KeyNotFound(district_key))?;
            let o_id = district.num(district_fields::NEXT_O_ID)?;
            district.set_num(district_fields::NEXT_O_ID, o_id + 1);
            write_row(txn, district_key, &district)?;

            // Customer credit check (read only).
            let customer_key = Self::customer_key(w, d, c);
            read_row(txn, customer_key)?.ok_or(ObladiError::KeyNotFound(customer_key))?;

            // Items and stock.
            let mut total = 0u64;
            for (line_no, (item, supply_w, quantity)) in lines.iter().enumerate() {
                let item_key = Self::item_key(*item);
                let item_row =
                    read_row(txn, item_key)?.ok_or(ObladiError::KeyNotFound(item_key))?;
                let price = item_row.num(0)?;

                let stock_key = Self::stock_key(*supply_w, *item);
                let mut stock =
                    read_row(txn, stock_key)?.ok_or(ObladiError::KeyNotFound(stock_key))?;
                let current = stock.num(stock_fields::QUANTITY)?;
                let new_quantity = if current > *quantity + 10 {
                    current - quantity
                } else {
                    current + 91 - quantity
                };
                stock.set_num(stock_fields::QUANTITY, new_quantity);
                stock.set_num(stock_fields::YTD, stock.num(stock_fields::YTD)? + quantity);
                stock.set_num(
                    stock_fields::ORDER_CNT,
                    stock.num(stock_fields::ORDER_CNT)? + 1,
                );
                if *supply_w != w {
                    stock.set_num(
                        stock_fields::REMOTE_CNT,
                        stock.num(stock_fields::REMOTE_CNT)? + 1,
                    );
                }
                write_row(txn, stock_key, &stock)?;

                let amount = price * quantity;
                total += amount;
                let mut line_row = Row::new(vec![0; 5]);
                line_row.set_num(order_line_fields::ITEM_ID, *item);
                line_row.set_num(order_line_fields::SUPPLY_W, *supply_w);
                line_row.set_num(order_line_fields::QUANTITY, *quantity);
                line_row.set_num(order_line_fields::AMOUNT, amount);
                line_row.set_num(order_line_fields::DELIVERY_D, 0);
                write_row(
                    txn,
                    Self::order_line_key(w, d, o_id, line_no as u64),
                    &line_row,
                )?;
            }
            let _ = total;

            // The order itself plus the latest-order secondary index.
            let mut order_row = Row::new(vec![0; 4]);
            order_row.set_num(order_fields::C_ID, c);
            order_row.set_num(order_fields::CARRIER_ID, 0);
            order_row.set_num(order_fields::OL_CNT, lines.len() as u64);
            order_row.set_num(order_fields::ENTRY_D, o_id);
            write_row(txn, Self::order_key(w, d, o_id), &order_row)?;
            write_row(txn, Self::latest_order_key(w, d, c), &Row::new(vec![o_id]))?;
            Ok(())
        }))
    }

    /// The Payment transaction: updates warehouse, district and customer
    /// year-to-date amounts; 60% of customers are selected by last name.
    pub fn payment<D: KvDatabase>(&self, db: &D, rng: &mut DetRng) -> Result<bool> {
        let w = self.pick_warehouse(rng);
        let d = self.pick_district(rng);
        let by_name = rng.chance(0.6);
        let c_direct = self.pick_customer(rng);
        let name = self.customer_last_name(self.pick_customer(rng));
        let amount = 1 + rng.below(5000);

        Self::map_result(db.execute(&mut |txn: &mut dyn KvTransaction| {
            let warehouse_key = Self::warehouse_key(w);
            let mut warehouse =
                read_row(txn, warehouse_key)?.ok_or(ObladiError::KeyNotFound(warehouse_key))?;
            warehouse.set_num(0, warehouse.num(0)? + amount);
            write_row(txn, warehouse_key, &warehouse)?;

            let district_key = Self::district_key(w, d);
            let mut district =
                read_row(txn, district_key)?.ok_or(ObladiError::KeyNotFound(district_key))?;
            district.set_num(
                district_fields::YTD,
                district.num(district_fields::YTD)? + amount,
            );
            write_row(txn, district_key, &district)?;

            // Resolve the customer: direct id or via the last-name index
            // (taking the "middle" customer as the spec prescribes).
            let c = if by_name {
                let idx_key = Self::customer_name_idx_key(w, d, name);
                let idx = read_row(txn, idx_key)?.ok_or(ObladiError::KeyNotFound(idx_key))?;
                let ids = idx.blob_as_ids();
                if ids.is_empty() {
                    return Err(ObladiError::KeyNotFound(idx_key));
                }
                ids[ids.len() / 2]
            } else {
                c_direct
            };

            let customer_key = Self::customer_key(w, d, c);
            let mut customer =
                read_row(txn, customer_key)?.ok_or(ObladiError::KeyNotFound(customer_key))?;
            customer.set_num(
                customer_fields::BALANCE,
                customer
                    .num(customer_fields::BALANCE)?
                    .saturating_sub(amount),
            );
            customer.set_num(
                customer_fields::YTD_PAYMENT,
                customer.num(customer_fields::YTD_PAYMENT)? + amount,
            );
            customer.set_num(
                customer_fields::PAYMENT_CNT,
                customer.num(customer_fields::PAYMENT_CNT)? + 1,
            );
            write_row(txn, customer_key, &customer)?;
            Ok(())
        }))
    }

    /// The OrderStatus transaction: reads a customer's latest order and its
    /// order lines.
    pub fn order_status<D: KvDatabase>(&self, db: &D, rng: &mut DetRng) -> Result<bool> {
        let w = self.pick_warehouse(rng);
        let d = self.pick_district(rng);
        let by_name = rng.chance(0.6);
        let c_direct = self.pick_customer(rng);
        let name = self.customer_last_name(self.pick_customer(rng));

        Self::map_result(db.execute(&mut |txn: &mut dyn KvTransaction| {
            let c = if by_name {
                let idx_key = Self::customer_name_idx_key(w, d, name);
                let idx = read_row(txn, idx_key)?.ok_or(ObladiError::KeyNotFound(idx_key))?;
                let ids = idx.blob_as_ids();
                if ids.is_empty() {
                    return Err(ObladiError::KeyNotFound(idx_key));
                }
                ids[ids.len() / 2]
            } else {
                c_direct
            };
            let customer_key = Self::customer_key(w, d, c);
            read_row(txn, customer_key)?.ok_or(ObladiError::KeyNotFound(customer_key))?;

            let latest = read_row(txn, Self::latest_order_key(w, d, c))?;
            if let Some(latest) = latest {
                let o_id = latest.num(0)?;
                if let Some(order) = read_row(txn, Self::order_key(w, d, o_id))? {
                    let lines = order.num(order_fields::OL_CNT)?;
                    for line in 0..lines {
                        read_row(txn, Self::order_line_key(w, d, o_id, line))?;
                    }
                }
            }
            Ok(())
        }))
    }

    /// The Delivery transaction: for each district of a warehouse, deliver
    /// the oldest undelivered order.
    pub fn delivery<D: KvDatabase>(&self, db: &D, rng: &mut DetRng) -> Result<bool> {
        let w = self.pick_warehouse(rng);
        let carrier = 1 + rng.below(10);
        let districts = self.config.districts_per_warehouse;

        Self::map_result(db.execute(&mut |txn: &mut dyn KvTransaction| {
            for d in 0..districts {
                let district_key = Self::district_key(w, d);
                let mut district =
                    read_row(txn, district_key)?.ok_or(ObladiError::KeyNotFound(district_key))?;
                let next_delivery = district.num(district_fields::NEXT_DELIVERY_O_ID)?;
                let next_o_id = district.num(district_fields::NEXT_O_ID)?;
                if next_delivery >= next_o_id {
                    continue; // nothing to deliver in this district
                }
                let o_id = next_delivery;
                district.set_num(district_fields::NEXT_DELIVERY_O_ID, o_id + 1);
                write_row(txn, district_key, &district)?;

                let order_key = Self::order_key(w, d, o_id);
                let Some(mut order) = read_row(txn, order_key)? else {
                    continue;
                };
                order.set_num(order_fields::CARRIER_ID, carrier);
                write_row(txn, order_key, &order)?;

                let mut amount_total = 0u64;
                let lines = order.num(order_fields::OL_CNT)?;
                for line in 0..lines {
                    let line_key = Self::order_line_key(w, d, o_id, line);
                    if let Some(mut line_row) = read_row(txn, line_key)? {
                        amount_total += line_row.num(order_line_fields::AMOUNT)?;
                        line_row.set_num(order_line_fields::DELIVERY_D, carrier);
                        write_row(txn, line_key, &line_row)?;
                    }
                }

                let c = order.num(order_fields::C_ID)?;
                let customer_key = Self::customer_key(w, d, c);
                if let Some(mut customer) = read_row(txn, customer_key)? {
                    customer.set_num(
                        customer_fields::BALANCE,
                        customer.num(customer_fields::BALANCE)? + amount_total,
                    );
                    customer.set_num(
                        customer_fields::DELIVERY_CNT,
                        customer.num(customer_fields::DELIVERY_CNT)? + 1,
                    );
                    write_row(txn, customer_key, &customer)?;
                }
            }
            Ok(())
        }))
    }

    /// The StockLevel transaction: counts items in recent orders whose stock
    /// is below a threshold.
    pub fn stock_level<D: KvDatabase>(&self, db: &D, rng: &mut DetRng) -> Result<bool> {
        let w = self.pick_warehouse(rng);
        let d = self.pick_district(rng);
        let threshold = 10 + rng.below(11);
        let scan = self.config.stock_level_orders;

        Self::map_result(db.execute(&mut |txn: &mut dyn KvTransaction| {
            let district_key = Self::district_key(w, d);
            let district =
                read_row(txn, district_key)?.ok_or(ObladiError::KeyNotFound(district_key))?;
            let next_o_id = district.num(district_fields::NEXT_O_ID)?;
            let first = next_o_id.saturating_sub(scan);

            let mut low_stock = 0u64;
            let mut seen = std::collections::HashSet::new();
            for o_id in first..next_o_id {
                let Some(order) = read_row(txn, Self::order_key(w, d, o_id))? else {
                    continue;
                };
                let lines = order.num(order_fields::OL_CNT)?;
                for line in 0..lines {
                    let Some(line_row) = read_row(txn, Self::order_line_key(w, d, o_id, line))?
                    else {
                        continue;
                    };
                    let item = line_row.num(order_line_fields::ITEM_ID)?;
                    if !seen.insert(item) {
                        continue;
                    }
                    let stock_key = Self::stock_key(w, item);
                    if let Some(stock) = read_row(txn, stock_key)? {
                        if stock.num(stock_fields::QUANTITY)? < threshold {
                            low_stock += 1;
                        }
                    }
                }
            }
            let _ = low_stock;
            Ok(())
        }))
    }

    /// Runs a specific transaction type.
    pub fn run_txn<D: KvDatabase>(&self, db: &D, kind: TpccTxn, rng: &mut DetRng) -> Result<bool> {
        match kind {
            TpccTxn::NewOrder => self.new_order(db, rng),
            TpccTxn::Payment => self.payment(db, rng),
            TpccTxn::OrderStatus => self.order_status(db, rng),
            TpccTxn::Delivery => self.delivery(db, rng),
            TpccTxn::StockLevel => self.stock_level(db, rng),
        }
    }

    /// Reads the next order id of a district (test helper).
    pub fn district_next_order<D: KvDatabase>(&self, db: &D, w: u64, d: u64) -> Result<u64> {
        db.execute(&mut |txn: &mut dyn KvTransaction| {
            let district = read_row(txn, Self::district_key(w, d))?
                .ok_or(ObladiError::KeyNotFound(Self::district_key(w, d)))?;
            district.num(district_fields::NEXT_O_ID)
        })
    }
}

impl Workload for TpccWorkload {
    fn setup<D: KvDatabase>(&self, db: &D) -> Result<()> {
        let cfg = &self.config;

        // Items and per-warehouse stock.
        let chunk = 16u64;
        let mut start = 0;
        while start < cfg.items {
            let end = (start + chunk).min(cfg.items);
            db.execute_with_retries(SETUP_RETRIES, &mut |txn: &mut dyn KvTransaction| {
                for item in start..end {
                    write_row(
                        txn,
                        Self::item_key(item),
                        &Row::new(vec![1 + item % 100, item, item]),
                    )?;
                }
                Ok(())
            })?;
            start = end;
        }
        for w in 0..cfg.warehouses {
            let mut start = 0;
            while start < cfg.items {
                let end = (start + chunk).min(cfg.items);
                db.execute_with_retries(SETUP_RETRIES, &mut |txn: &mut dyn KvTransaction| {
                    for item in start..end {
                        write_row(
                            txn,
                            Self::stock_key(w, item),
                            &Row::new(vec![50 + (item % 50), 0, 0, 0]),
                        )?;
                    }
                    Ok(())
                })?;
                start = end;
            }
        }

        // Warehouses, districts, customers and the by-name index.
        for w in 0..cfg.warehouses {
            db.execute_with_retries(SETUP_RETRIES, &mut |txn: &mut dyn KvTransaction| {
                write_row(txn, Self::warehouse_key(w), &Row::new(vec![0]))
            })?;
            for d in 0..cfg.districts_per_warehouse {
                db.execute_with_retries(SETUP_RETRIES, &mut |txn: &mut dyn KvTransaction| {
                    write_row(txn, Self::district_key(w, d), &Row::new(vec![0, 0, 0]))
                })?;
                let mut start = 0;
                while start < cfg.customers_per_district {
                    let end = (start + chunk).min(cfg.customers_per_district);
                    db.execute_with_retries(SETUP_RETRIES, &mut |txn: &mut dyn KvTransaction| {
                        for c in start..end {
                            let name = self.customer_last_name(c);
                            let mut row = Row::new(vec![0; 5]);
                            row.set_num(customer_fields::BALANCE, 1000);
                            row.set_num(customer_fields::LAST_NAME_ID, name);
                            write_row(txn, Self::customer_key(w, d, c), &row)?;
                        }
                        Ok(())
                    })?;
                    start = end;
                }
                // Name index rows (one per last name).
                db.execute_with_retries(SETUP_RETRIES, &mut |txn: &mut dyn KvTransaction| {
                    for name in 0..cfg.last_names {
                        let ids: Vec<u64> = (0..cfg.customers_per_district)
                            .filter(|c| self.customer_last_name(*c) == name)
                            .collect();
                        let mut row = Row::new(vec![ids.len() as u64]);
                        row.set_blob_ids(&ids);
                        write_row(txn, Self::customer_name_idx_key(w, d, name), &row)?;
                    }
                    Ok(())
                })?;
            }
        }
        Ok(())
    }

    fn run_one<D: KvDatabase>(&self, db: &D, rng: &mut DetRng) -> Result<bool> {
        let kind = TpccTxn::sample(rng);
        self.run_txn(db, kind, rng)
    }

    fn name(&self) -> &'static str {
        "tpcc"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::run_fixed_count;
    use obladi_core::TwoPhaseLockingDb;

    fn setup() -> (TwoPhaseLockingDb, TpccWorkload) {
        let db = TwoPhaseLockingDb::new();
        let workload = TpccWorkload::new(TpccConfig::small());
        workload.setup(&db).unwrap();
        (db, workload)
    }

    #[test]
    fn new_order_advances_district_counter_and_creates_rows() {
        let (db, workload) = setup();
        let mut rng = DetRng::new(1);
        let before: u64 = (0..2)
            .map(|d| workload.district_next_order(&db, 0, d).unwrap())
            .sum();
        for _ in 0..5 {
            assert!(workload.new_order(&db, &mut rng).unwrap());
        }
        let after: u64 = (0..2)
            .map(|d| workload.district_next_order(&db, 0, d).unwrap())
            .sum();
        assert_eq!(after - before, 5, "five orders must have been placed");
    }

    #[test]
    fn payment_decreases_customer_balance() {
        let (db, workload) = setup();
        let mut rng = DetRng::new(2);
        for _ in 0..10 {
            assert!(workload.payment(&db, &mut rng).unwrap());
        }
        // Warehouse YTD must have grown.
        let ytd = db
            .execute(&mut |txn: &mut dyn KvTransaction| {
                let row = read_row(txn, TpccWorkload::warehouse_key(0))?.unwrap();
                row.num(0)
            })
            .unwrap();
        assert!(ytd > 0);
    }

    #[test]
    fn order_status_and_stock_level_after_orders() {
        let (db, workload) = setup();
        let mut rng = DetRng::new(3);
        for _ in 0..10 {
            workload.new_order(&db, &mut rng).unwrap();
        }
        assert!(workload.order_status(&db, &mut rng).unwrap());
        assert!(workload.stock_level(&db, &mut rng).unwrap());
    }

    #[test]
    fn delivery_assigns_carriers_and_pays_customers() {
        let (db, workload) = setup();
        let mut rng = DetRng::new(4);
        for _ in 0..6 {
            workload.new_order(&db, &mut rng).unwrap();
        }
        assert!(workload.delivery(&db, &mut rng).unwrap());
        // After delivery, the delivery cursor of at least one district moved.
        let moved = db
            .execute(&mut |txn: &mut dyn KvTransaction| {
                let mut moved = false;
                for d in 0..2u64 {
                    let row = read_row(txn, TpccWorkload::district_key(0, d))?.unwrap();
                    if row.num(district_fields::NEXT_DELIVERY_O_ID)? > 0 {
                        moved = true;
                    }
                }
                Ok(moved)
            })
            .unwrap();
        assert!(moved);
    }

    #[test]
    fn full_mix_commits_mostly() {
        let (db, workload) = setup();
        let stats = run_fixed_count(&db, &workload, 120, 5).unwrap();
        assert_eq!(stats.committed + stats.aborted, 120);
        assert!(
            stats.committed as f64 / 120.0 > 0.8,
            "commit rate too low: {}",
            stats.summary()
        );
    }

    #[test]
    fn transaction_mix_matches_spec_proportions() {
        let mut rng = DetRng::new(6);
        let mut counts = std::collections::HashMap::new();
        for _ in 0..10_000 {
            *counts
                .entry(format!("{:?}", TpccTxn::sample(&mut rng)))
                .or_insert(0u64) += 1;
        }
        let new_order = counts["NewOrder"] as f64 / 10_000.0;
        let payment = counts["Payment"] as f64 / 10_000.0;
        assert!((new_order - 0.45).abs() < 0.03);
        assert!((payment - 0.43).abs() < 0.03);
        assert_eq!(counts.len(), 5);
    }
}
