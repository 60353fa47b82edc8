//! # beehive-db — the storage service
//!
//! Web applications keep their persistent state in databases and talk to
//! them over stateful connections (§3.3: a pybbs comment request makes 80+
//! rounds). This crate is the storage substrate of the reproduction: a small
//! key-value/table store with a per-query service-time model and an
//! idempotent write journal used to verify the exactly-once property of the
//! failure-recovery path (§4.5, following Beldi's exactly-once discipline).
//!
//! Queueing at the database machine (an `m4.10xlarge` in the paper, sized so
//! it never bottlenecks) is handled by the embedding experiment with a
//! [`beehive_sim::pool::FifoPool`]; this crate only computes per-query
//! service demand.

#![warn(missing_docs)]

use beehive_sim::{Duration, FastMap};

/// Identifies a table.
pub type TableId = u16;
/// Identifies a prepared query.
pub type QueryId = u16;

/// A dedup key making writes idempotent across request re-execution:
/// request id plus the write's sequence number within the request.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WriteKey {
    /// The request this write belongs to.
    pub request: u64,
    /// The write's ordinal within the request.
    pub seq: u32,
}

/// What a prepared query does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryKind {
    /// Read one row by key; returns its value (0 when absent).
    PointRead {
        /// Target table.
        table: TableId,
    },
    /// Scan `rows` rows; returns their sum (stands in for a result set).
    Scan {
        /// Target table.
        table: TableId,
        /// Rows touched.
        rows: u32,
    },
    /// Insert a row keyed by a fresh id with the argument value; returns the
    /// new row id.
    Insert {
        /// Target table.
        table: TableId,
    },
    /// Increment the row at the argument key; returns the new value.
    Update {
        /// Target table.
        table: TableId,
    },
}

impl QueryKind {
    /// `true` for queries that modify state.
    pub fn is_write(self) -> bool {
        matches!(self, QueryKind::Insert { .. } | QueryKind::Update { .. })
    }
}

/// A prepared query with its service-time model.
#[derive(Clone, Debug)]
pub struct QueryDef {
    /// Diagnostic name.
    pub name: String,
    /// Behaviour.
    pub kind: QueryKind,
    /// Fixed service cost.
    pub base_cost: Duration,
    /// Additional cost per row touched (scans).
    pub per_row: Duration,
}

impl QueryDef {
    /// Total service demand of one execution.
    pub fn service_time(&self) -> Duration {
        let rows = match self.kind {
            QueryKind::Scan { rows, .. } => rows as u64,
            _ => 1,
        };
        self.base_cost + self.per_row * rows
    }
}

/// The outcome of executing a query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueryOutcome {
    /// The result value handed back to the application.
    pub result: i64,
    /// CPU time the database spends serving it.
    pub service: Duration,
    /// Whether the query wrote state.
    pub wrote: bool,
}

/// The store: tables plus prepared queries plus the idempotent write journal.
#[derive(Debug, Default)]
pub struct Database {
    tables: FastMap<TableId, FastMap<i64, i64>>,
    next_row: FastMap<TableId, i64>,
    queries: Vec<QueryDef>,
    journal: FastMap<WriteKey, i64>,
    executed: u64,
    writes: u64,
    suppressed: u64,
}

impl Database {
    /// An empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a prepared query, returning its id.
    pub fn prepare(&mut self, def: QueryDef) -> QueryId {
        let id = self.queries.len() as QueryId;
        self.queries.push(def);
        id
    }

    /// The definition of a prepared query.
    ///
    /// # Panics
    ///
    /// Panics if the id is unknown.
    pub fn query_def(&self, id: QueryId) -> &QueryDef {
        &self.queries[id as usize]
    }

    /// Seed `rows` rows into `table` with values `f(key)`.
    pub fn seed(&mut self, table: TableId, rows: i64, f: impl Fn(i64) -> i64) {
        let t = self.tables.entry(table).or_default();
        for k in 0..rows {
            t.insert(k, f(k));
        }
        self.next_row.insert(table, rows);
    }

    /// Execute a prepared query.
    ///
    /// `write_key` must be `Some` for writes (requests are the unit of
    /// idempotence); a repeated key makes the write a no-op that returns the
    /// original result — this is how re-executed requests after a FaaS
    /// failure stay exactly-once (§4.5).
    ///
    /// `suppress_writes` is the shadow-execution mode (§3.4): the proxy
    /// intercepts writes from a shadow function and drops them; reads execute
    /// normally.
    ///
    /// # Panics
    ///
    /// Panics on an unknown query id, or a write without a `write_key`.
    pub fn execute(
        &mut self,
        query: QueryId,
        arg: i64,
        write_key: Option<WriteKey>,
        suppress_writes: bool,
    ) -> QueryOutcome {
        let def = &self.queries[query as usize];
        let (kind, service) = (def.kind, def.service_time());
        self.executed += 1;
        let wrote = kind.is_write() && !suppress_writes;
        let result = match kind {
            QueryKind::PointRead { table } => self
                .tables
                .get(&table)
                .and_then(|t| t.get(&arg))
                .copied()
                .unwrap_or(0),
            QueryKind::Scan { table, rows } => match self.tables.get(&table) {
                Some(t) => {
                    let len = t.len().max(1) as i64;
                    (0..rows as i64)
                        .map(|i| t.get(&((arg + i) % len)).copied().unwrap_or(0))
                        .sum()
                }
                None => 0, // a table nothing was ever written to
            },
            QueryKind::Insert { table } => {
                if suppress_writes {
                    // Shadow mode: pretend-insert, no state change.
                    self.suppressed += 1;
                    *self.next_row.get(&table).unwrap_or(&0)
                } else {
                    let key = write_key.expect("insert without write key");
                    if let Some(&prev) = self.journal.get(&key) {
                        prev
                    } else {
                        let id = self.next_row.entry(table).or_insert(0);
                        let row = *id;
                        *id += 1;
                        self.tables.entry(table).or_default().insert(row, arg);
                        self.journal.insert(key, row);
                        self.writes += 1;
                        row
                    }
                }
            }
            QueryKind::Update { table } => {
                if suppress_writes {
                    self.suppressed += 1;
                    self.tables
                        .get(&table)
                        .and_then(|t| t.get(&arg))
                        .copied()
                        .unwrap_or(0)
                } else {
                    let key = write_key.expect("update without write key");
                    if let Some(&prev) = self.journal.get(&key) {
                        prev
                    } else {
                        let t = self.tables.entry(table).or_default();
                        let v = t.entry(arg).or_insert(0);
                        *v += 1;
                        let result = *v;
                        self.journal.insert(key, result);
                        self.writes += 1;
                        result
                    }
                }
            }
        };
        QueryOutcome {
            result,
            service,
            wrote,
        }
    }

    /// Direct read of a row (test/verification helper).
    pub fn row(&self, table: TableId, key: i64) -> Option<i64> {
        self.tables.get(&table).and_then(|t| t.get(&key)).copied()
    }

    /// Number of rows in a table.
    pub fn table_len(&self, table: TableId) -> usize {
        self.tables.get(&table).map_or(0, FastMap::len)
    }

    /// (queries executed, committed writes, suppressed shadow writes).
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.executed, self.writes, self.suppressed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db_with_queries() -> (Database, QueryId, QueryId, QueryId, QueryId) {
        let mut db = Database::new();
        db.seed(0, 100, |k| k * 10);
        let read = db.prepare(QueryDef {
            name: "SELECT".into(),
            kind: QueryKind::PointRead { table: 0 },
            base_cost: Duration::from_micros(60),
            per_row: Duration::from_micros(5),
        });
        let scan = db.prepare(QueryDef {
            name: "SCAN".into(),
            kind: QueryKind::Scan { table: 0, rows: 10 },
            base_cost: Duration::from_micros(80),
            per_row: Duration::from_micros(4),
        });
        let insert = db.prepare(QueryDef {
            name: "INSERT".into(),
            kind: QueryKind::Insert { table: 1 },
            base_cost: Duration::from_micros(90),
            per_row: Duration::from_micros(5),
        });
        let update = db.prepare(QueryDef {
            name: "UPDATE".into(),
            kind: QueryKind::Update { table: 0 },
            base_cost: Duration::from_micros(90),
            per_row: Duration::from_micros(5),
        });
        (db, read, scan, insert, update)
    }

    #[test]
    fn point_read() {
        let (mut db, read, ..) = db_with_queries();
        let out = db.execute(read, 7, None, false);
        assert_eq!(out.result, 70);
        assert!(!out.wrote);
        assert_eq!(out.service, Duration::from_micros(65));
    }

    #[test]
    fn scan_sums_rows_and_costs_per_row() {
        let (mut db, _, scan, ..) = db_with_queries();
        let out = db.execute(scan, 0, None, false);
        assert_eq!(out.result, (0..10).map(|k| k * 10).sum::<i64>());
        assert_eq!(out.service, Duration::from_micros(80 + 40));
    }

    #[test]
    fn insert_allocates_rows() {
        let (mut db, _, _, insert, _) = db_with_queries();
        let k1 = WriteKey { request: 1, seq: 0 };
        let k2 = WriteKey { request: 2, seq: 0 };
        let r1 = db.execute(insert, 500, Some(k1), false);
        let r2 = db.execute(insert, 600, Some(k2), false);
        assert_ne!(r1.result, r2.result);
        assert_eq!(db.table_len(1), 2);
        assert_eq!(db.row(1, r1.result), Some(500));
    }

    #[test]
    fn duplicate_write_key_is_idempotent() {
        let (mut db, _, _, insert, _) = db_with_queries();
        let k = WriteKey { request: 9, seq: 0 };
        let r1 = db.execute(insert, 500, Some(k), false);
        let r2 = db.execute(insert, 500, Some(k), false);
        assert_eq!(r1.result, r2.result, "retried write returns original row");
        assert_eq!(db.table_len(1), 1, "no duplicate row");
        assert_eq!(db.stats().1, 1, "only one committed write");
    }

    #[test]
    fn update_increments() {
        let (mut db, _, _, _, update) = db_with_queries();
        let before = db.row(0, 3).unwrap();
        let out = db.execute(update, 3, Some(WriteKey { request: 1, seq: 0 }), false);
        assert_eq!(out.result, before + 1);
        assert!(out.wrote);
    }

    #[test]
    fn shadow_mode_suppresses_writes() {
        let (mut db, _, _, insert, update) = db_with_queries();
        let len_before = db.table_len(1);
        let out = db.execute(insert, 42, None, true);
        assert!(!out.wrote);
        assert_eq!(db.table_len(1), len_before, "no row inserted");
        let row_before = db.row(0, 5).unwrap();
        db.execute(update, 5, None, true);
        assert_eq!(db.row(0, 5).unwrap(), row_before, "no update applied");
        assert_eq!(db.stats().2, 2, "two suppressed writes");
    }

    #[test]
    fn shadow_reads_still_work() {
        let (mut db, read, ..) = db_with_queries();
        let out = db.execute(read, 7, None, true);
        assert_eq!(out.result, 70);
    }

    #[test]
    #[should_panic(expected = "without write key")]
    fn write_without_key_panics() {
        let (mut db, _, _, insert, _) = db_with_queries();
        db.execute(insert, 1, None, false);
    }
}
