//! Per-function address mapping tables (§4.1).
//!
//! When the server offloads a closure, the copied objects land in the
//! function's closure space in the same order, so the server can "establish
//! a one-to-one address mapping for each offloaded object. This mapping is
//! responsible for synchronizing updates on the shared objects between FaaS
//! functions and the server."

use beehive_sim::FastMap;
use beehive_vm::Addr;

/// Bidirectional address map between server canonical addresses and one
/// function's local addresses.
#[derive(Clone, Debug, Default)]
pub struct MappingTable {
    to_local: FastMap<Addr, Addr>,
    to_server: FastMap<Addr, Addr>,
}

impl MappingTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record that server object `server` is function object `local`.
    ///
    /// # Panics
    ///
    /// Panics if either side is remote-marked or already mapped to a
    /// different address.
    pub fn insert(&mut self, server: Addr, local: Addr) {
        assert!(
            !server.is_remote() && !local.is_remote(),
            "map raw addresses"
        );
        let prev = self.to_local.insert(server, local);
        assert!(
            prev.is_none() || prev == Some(local),
            "server object {server:?} remapped"
        );
        let prev = self.to_server.insert(local, server);
        assert!(
            prev.is_none() || prev == Some(server),
            "local object {local:?} remapped"
        );
    }

    /// The function-local address of a server object, if offloaded.
    pub fn local_of(&self, server: Addr) -> Option<Addr> {
        self.to_local.get(&server).copied()
    }

    /// The server canonical address of a function object, if shared.
    pub fn server_of(&self, local: Addr) -> Option<Addr> {
        self.to_server.get(&local).copied()
    }

    /// Number of mapped objects.
    pub fn len(&self) -> usize {
        self.to_local.len()
    }

    /// `true` when no objects are mapped.
    pub fn is_empty(&self) -> bool {
        self.to_local.is_empty()
    }

    /// Approximate memory footprint of the table on the server (§5.6 reports
    /// hundreds of KBs per function): two hash entries of ~32 bytes each per
    /// object.
    pub fn footprint_bytes(&self) -> u64 {
        self.to_local.len() as u64 * 64
    }

    /// Iterate `(server, local)` pairs (deterministic order not guaranteed;
    /// callers sort when determinism matters).
    pub fn iter(&self) -> impl Iterator<Item = (Addr, Addr)> + '_ {
        self.to_local.iter().map(|(s, l)| (*s, *l))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let mut m = MappingTable::new();
        let s = Addr(0x1000_0000_0000);
        let l = Addr(0x1000_0000_0100);
        m.insert(s, l);
        assert_eq!(m.local_of(s), Some(l));
        assert_eq!(m.server_of(l), Some(s));
        assert_eq!(m.len(), 1);
        assert!(!m.is_empty());
    }

    #[test]
    fn idempotent_reinsert_is_fine() {
        let mut m = MappingTable::new();
        let s = Addr(0x1000_0000_0000);
        let l = Addr(0x1000_0000_0100);
        m.insert(s, l);
        m.insert(s, l);
        assert_eq!(m.len(), 1);
    }

    #[test]
    #[should_panic(expected = "remapped")]
    fn conflicting_mapping_panics() {
        let mut m = MappingTable::new();
        let s = Addr(0x1000_0000_0000);
        m.insert(s, Addr(0x1000_0000_0100));
        m.insert(s, Addr(0x1000_0000_0200));
    }

    #[test]
    fn footprint_grows() {
        let mut m = MappingTable::new();
        for i in 0..100u64 {
            m.insert(
                Addr(0x1000_0000_0000 + i * 8),
                Addr(0x1000_0000_8000 + i * 8),
            );
        }
        assert_eq!(m.footprint_bytes(), 6400);
    }
}
