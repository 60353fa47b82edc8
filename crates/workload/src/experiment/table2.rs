//! Table 2: native methods used in pybbs request handling, by category.

use std::fmt;
use std::sync::Arc;

use beehive_apps::{App, AppKind, Fidelity};
use beehive_core::config::BeeHiveConfig;
use beehive_core::{ServerRuntime, ServerSession, SessionStep};
use beehive_db::Database;
use beehive_proxy::Proxy;
use beehive_sim::json_record;
use beehive_vm::natives::NativeCounters;
use beehive_vm::{CostModel, Value};

json_record! {
    /// One row of Table 2.
    #[derive(Clone, Debug)]
    pub struct Table2Row {
        /// Category label.
        pub category: &'static str,
        /// Invocations in one request.
        pub invocations: u64,
        /// Representative method.
        pub representative: &'static str,
    }
}

json_record! {
    /// The Table 2 reproduction.
    #[derive(Clone, Debug)]
    pub struct Table2Report {
        /// Total native invocations per request.
        pub total: u64,
        /// Rows in paper order.
        pub rows: Vec<Table2Row>,
    }
}

/// Count native invocations during one full-fidelity pybbs comment request.
pub fn table2() -> Table2Report {
    let app = App::build(AppKind::Pybbs, Fidelity::Full);
    let counters = count_one_request(&app);
    let rows = vec![
        Table2Row {
            category: "Pure on-heap",
            invocations: counters.pure_on_heap,
            representative: "System.arraycopy",
        },
        Table2Row {
            category: "Hidden states",
            invocations: counters.hidden_state,
            representative: "MethodAccessor.invoke0",
        },
        Table2Row {
            category: "Network",
            invocations: counters.network,
            representative: "socketRead0",
        },
        Table2Row {
            category: "Others",
            invocations: counters.stateless,
            representative: "Thread.currentThread",
        },
    ];
    Table2Report {
        total: rows.iter().map(|r| r.invocations).sum(),
        rows,
    }
}

fn count_one_request(app: &App) -> NativeCounters {
    let mut server = ServerRuntime::new(
        Arc::clone(&app.program),
        BeeHiveConfig::default(),
        Proxy::new(Database::new()),
        CostModel::default(),
    );
    app.install(&mut server);
    server.vm.counters.take();
    let mut s = ServerSession::start(&mut server, app.root, vec![Value::I64(3)]);
    loop {
        match s.next(&mut server) {
            SessionStep::Need(_) => {}
            SessionStep::ServerGc => {
                let pause = server.vm.collect(&mut [s.execution_mut()], &mut []).pause;
                s.gc_done(pause);
            }
            SessionStep::SyncFromPeer { .. } => unreachable!(),
            SessionStep::AwaitLock { .. } => {
                unreachable!("no concurrent lock hand-offs in this driver")
            }
            SessionStep::Finished(_) => break,
        }
    }
    server.vm.counters.natives
}

impl fmt::Display for Table2Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Table 2 — native methods in pybbs request handling")?;
        writeln!(
            f,
            "{:<16} {:>18}  Representative Methods",
            "Categories", "Invocation Numbers"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<16} {:>18}  {}",
                r.category, r.invocations, r.representative
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[ignore = "full fidelity; run with --ignored (the repro binary always runs it)"]
    fn matches_paper_counts_exactly() {
        let t = table2();
        assert_eq!(t.rows[0].invocations, 226_643, "pure on-heap");
        assert_eq!(t.rows[1].invocations, 34_749, "hidden states");
        assert_eq!(t.rows[2].invocations, 248, "network");
        assert_eq!(t.rows[3].invocations, 415, "others");
    }
}
