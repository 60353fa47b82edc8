//! # beehive-proxy — proxy-based connection management (§3.3)
//!
//! Web applications hold stateful connections to storage services; those
//! connections cannot be shipped to FaaS (their kernel state is not
//! user-level migratable). BeeHive's answer is a per-database **proxy** on
//! the database machine that *shares one logical connection* between the
//! server and the functions it offloads to:
//!
//! 1. The server connects to the database **via the proxy**, which records
//!    the descriptor pair (Figure 4).
//! 2. Before offloading, the server sends the proxy a **prepare** request;
//!    the proxy mints a unique connection ID, which the server packs into
//!    the closure as part of the `SocketImpl` native state.
//! 3. The function connects to the proxy presenting the ID; the proxy now
//!    maps `(server, FaaS, database)` descriptors to one logical connection
//!    and relays the function's requests over the *same* database connection
//!    the server was using — no fallback per round trip.
//!
//! The proxy is also the interposition point for **shadow execution**
//! (§3.4): between `shadowbegin` and `shadowend` messages, write requests
//! from the shadowing function are suppressed so the duplicated request has
//! no observable side effects.

#![warn(missing_docs)]

use beehive_sim::FastMap;

use beehive_db::{Database, QueryId, QueryOutcome, WriteKey};
use beehive_telemetry as tele;

/// A logical connection id as seen by the server (one per pooled
/// connection).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConnId(pub u64);

/// The unique ID minted by a *prepare* request and packed into closures.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OffloadId(pub u64);

/// Who is issuing a request over a shared connection.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Origin {
    /// The monolith server.
    Server,
    /// FaaS function instance `n`.
    Function(u32),
}

/// Errors from proxy operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProxyError {
    /// The connection id is unknown.
    UnknownConnection,
    /// The offload id was never prepared (or already detached).
    UnknownOffloadId,
}

impl std::fmt::Display for ProxyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProxyError::UnknownConnection => write!(f, "unknown connection id"),
            ProxyError::UnknownOffloadId => write!(f, "offload id was never prepared"),
        }
    }
}

impl std::error::Error for ProxyError {}

#[derive(Debug, Default)]
struct ConnEntry {
    /// Function endpoints attached to this connection via prepared IDs.
    attached: Vec<u32>,
}

/// The connection proxy in front of one database.
#[derive(Debug)]
pub struct Proxy {
    db: Database,
    conns: FastMap<ConnId, ConnEntry>,
    prepared: FastMap<OffloadId, ConnId>,
    next_conn: u64,
    next_offload: u64,
    shadowing: FastMap<u32, bool>,
    rounds_server: u64,
    rounds_function: u64,
}

impl Proxy {
    /// A proxy fronting `db`.
    pub fn new(db: Database) -> Self {
        Proxy {
            db,
            conns: FastMap::default(),
            prepared: FastMap::default(),
            next_conn: 1,
            next_offload: 1,
            shadowing: FastMap::default(),
            rounds_server: 0,
            rounds_function: 0,
        }
    }

    /// The fronted database (read access for verification).
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// Mutable database access (seeding).
    pub fn db_mut(&mut self) -> &mut Database {
        &mut self.db
    }

    /// The server opens a connection (through the proxy, Figure 4 step 0).
    pub fn connect_server(&mut self) -> ConnId {
        let id = ConnId(self.next_conn);
        self.next_conn += 1;
        self.conns.insert(id, ConnEntry::default());
        id
    }

    /// The server prepares a connection for offloading: the proxy mints a
    /// unique ID the closure will carry (Figure 4 steps 1–2).
    ///
    /// # Errors
    ///
    /// [`ProxyError::UnknownConnection`] if `conn` was never opened.
    pub fn prepare(&mut self, conn: ConnId) -> Result<OffloadId, ProxyError> {
        if !self.conns.contains_key(&conn) {
            return Err(ProxyError::UnknownConnection);
        }
        let id = OffloadId(self.next_offload);
        self.next_offload += 1;
        self.prepared.insert(id, conn);
        Ok(id)
    }

    /// A function connects presenting a prepared ID (Figure 4 step 4); the
    /// proxy extends the descriptor mapping with the function endpoint.
    ///
    /// # Errors
    ///
    /// [`ProxyError::UnknownOffloadId`] if the ID was never prepared.
    pub fn attach_function(
        &mut self,
        offload: OffloadId,
        function: u32,
    ) -> Result<ConnId, ProxyError> {
        let conn = *self
            .prepared
            .get(&offload)
            .ok_or(ProxyError::UnknownOffloadId)?;
        let entry = self.conns.get_mut(&conn).expect("prepared conn exists");
        if !entry.attached.contains(&function) {
            entry.attached.push(function);
        }
        Ok(conn)
    }

    /// `shadowbegin`: subsequent writes from `function` are suppressed
    /// (§3.4).
    pub fn shadow_begin(&mut self, function: u32) {
        self.shadowing.insert(function, true);
    }

    /// `shadowend`: subsequent requests from `function` are handled
    /// normally.
    pub fn shadow_end(&mut self, function: u32) {
        self.shadowing.insert(function, false);
    }

    /// `true` while `function` is in shadow mode.
    pub fn is_shadowing(&self, function: u32) -> bool {
        self.shadowing.get(&function).copied().unwrap_or(false)
    }

    /// Execute one round trip over a shared connection.
    ///
    /// # Errors
    ///
    /// [`ProxyError::UnknownConnection`] if the connection does not exist.
    ///
    /// # Panics
    ///
    /// Panics (from the database) on writes without a `write_key`.
    pub fn execute(
        &mut self,
        conn: ConnId,
        origin: Origin,
        query: QueryId,
        arg: i64,
        write_key: Option<WriteKey>,
    ) -> Result<QueryOutcome, ProxyError> {
        if !self.conns.contains_key(&conn) {
            return Err(ProxyError::UnknownConnection);
        }
        let suppress = match origin {
            Origin::Server => {
                self.rounds_server += 1;
                false
            }
            Origin::Function(f) => {
                self.rounds_function += 1;
                self.is_shadowing(f)
            }
        };
        // Function-origin rounds only: they carry the proxied-vs-fallen-back
        // story the trace exists to tell, while server rounds are ordinary
        // background traffic (~100 per request on db-heavy apps).
        if let Origin::Function(f) = origin {
            tele::instant(
                tele::Track::Db,
                tele::EventName::DbExecute,
                &[
                    ("query", tele::Arg::UInt(query as u64)),
                    ("function", tele::Arg::UInt(f as u64)),
                    ("suppressed", tele::Arg::Bool(suppress)),
                ],
            );
        }
        Ok(self.db.execute(query, arg, write_key, suppress))
    }

    /// (rounds from the server, rounds from functions).
    pub fn round_stats(&self) -> (u64, u64) {
        (self.rounds_server, self.rounds_function)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use beehive_db::{QueryDef, QueryKind};
    use beehive_sim::Duration;

    impl Proxy {
        /// Functions attached to `conn` (the FaaS column of Figure 4's table).
        fn attached_functions(&self, conn: ConnId) -> &[u32] {
            self.conns
                .get(&conn)
                .map(|e| e.attached.as_slice())
                .unwrap_or(&[])
        }
    }

    fn proxy() -> (Proxy, QueryId, QueryId) {
        let mut db = Database::new();
        db.seed(0, 10, |k| k + 100);
        let read = db.prepare(QueryDef {
            name: "read".into(),
            kind: QueryKind::PointRead { table: 0 },
            base_cost: Duration::from_micros(50),
            per_row: Duration::ZERO,
        });
        let insert = db.prepare(QueryDef {
            name: "insert".into(),
            kind: QueryKind::Insert { table: 1 },
            base_cost: Duration::from_micros(80),
            per_row: Duration::ZERO,
        });
        (Proxy::new(db), read, insert)
    }

    #[test]
    fn prepare_and_attach_share_a_connection() {
        let (mut p, read, _) = proxy();
        let conn = p.connect_server();
        let id = p.prepare(conn).unwrap();
        let conn2 = p.attach_function(id, 3).unwrap();
        assert_eq!(conn, conn2);
        assert_eq!(p.attached_functions(conn), &[3]);
        // Both sides execute over the same logical connection.
        let a = p.execute(conn, Origin::Server, read, 1, None).unwrap();
        let b = p.execute(conn, Origin::Function(3), read, 1, None).unwrap();
        assert_eq!(a.result, b.result);
        assert_eq!(p.round_stats(), (1, 1));
    }

    #[test]
    fn unique_offload_ids() {
        let (mut p, ..) = proxy();
        let conn = p.connect_server();
        let a = p.prepare(conn).unwrap();
        let b = p.prepare(conn).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn unknown_ids_error() {
        let (mut p, read, _) = proxy();
        assert_eq!(p.prepare(ConnId(99)), Err(ProxyError::UnknownConnection));
        assert_eq!(
            p.attach_function(OffloadId(42), 0),
            Err(ProxyError::UnknownOffloadId)
        );
        assert_eq!(
            p.execute(ConnId(99), Origin::Server, read, 0, None),
            Err(ProxyError::UnknownConnection)
        );
    }

    #[test]
    fn shadow_mode_suppresses_function_writes_only() {
        let (mut p, _, insert) = proxy();
        let conn = p.connect_server();
        let id = p.prepare(conn).unwrap();
        p.attach_function(id, 7).unwrap();
        p.shadow_begin(7);
        assert!(p.is_shadowing(7));

        // Shadow function write: suppressed.
        p.execute(conn, Origin::Function(7), insert, 5, None)
            .unwrap();
        assert_eq!(p.db().table_len(1), 0);

        // Server write during the same window: applied.
        p.execute(
            conn,
            Origin::Server,
            insert,
            5,
            Some(WriteKey { request: 1, seq: 0 }),
        )
        .unwrap();
        assert_eq!(p.db().table_len(1), 1);

        // After shadowend the function's writes are applied.
        p.shadow_end(7);
        p.execute(
            conn,
            Origin::Function(7),
            insert,
            6,
            Some(WriteKey { request: 2, seq: 0 }),
        )
        .unwrap();
        assert_eq!(p.db().table_len(1), 2);
    }

    #[test]
    fn other_functions_not_affected_by_shadow() {
        let (mut p, _, insert) = proxy();
        let conn = p.connect_server();
        let id = p.prepare(conn).unwrap();
        p.attach_function(id, 1).unwrap();
        p.attach_function(id, 2).unwrap();
        p.shadow_begin(1);
        p.execute(
            conn,
            Origin::Function(2),
            insert,
            9,
            Some(WriteKey { request: 3, seq: 0 }),
        )
        .unwrap();
        assert_eq!(p.db().table_len(1), 1, "function 2 writes normally");
    }
}
