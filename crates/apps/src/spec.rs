//! Per-application parameters.

use beehive_sim::json::{Json, ToJson};
use beehive_sim::Duration;

/// Which evaluation application (§5.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AppKind {
    /// The image-thumbnail micro-benchmark (compute-intensive).
    Thumbnail,
    /// The pybbs forum's comment request (mixed I/O + compute).
    Pybbs,
    /// SpringBlog's archive request (I/O-intensive).
    Blog,
}

impl AppKind {
    /// Display name used in figures/tables.
    pub fn name(self) -> &'static str {
        match self {
            AppKind::Thumbnail => "thumbnail",
            AppKind::Pybbs => "pybbs",
            AppKind::Blog => "blog",
        }
    }

    /// All three applications in paper order.
    pub fn all() -> [AppKind; 3] {
        [AppKind::Thumbnail, AppKind::Pybbs, AppKind::Blog]
    }
}

impl ToJson for AppKind {
    fn to_json(&self) -> Json {
        self.name().to_json()
    }
}

/// Execution fidelity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fidelity {
    /// Exact per-request native counts (Tables 2/5, GC study). Slowest.
    Full,
    /// Bulk native loops and allocation churn divided by the factor; total
    /// CPU demand preserved via padding. Database rounds, locks and the
    /// dispatch chain are *not* scaled — they shape latency.
    Scaled(u32),
}

impl Fidelity {
    /// The division factor (1 for full fidelity).
    pub fn factor(self) -> u32 {
        match self {
            Fidelity::Full => 1,
            Fidelity::Scaled(k) => k.max(1),
        }
    }

    /// The default fast mode for timeline/throughput experiments.
    pub fn fast() -> Fidelity {
        Fidelity::Scaled(1024)
    }
}

/// Build parameters of one application.
#[derive(Clone, Debug)]
pub struct AppSpec {
    /// The application.
    pub kind: AppKind,
    /// Per-request CPU demand on a warm server core (pads are sized to hit
    /// this at any fidelity).
    pub cpu_budget: Duration,
    /// Pure on-heap native invocations per request at full fidelity
    /// (Table 2 row 1).
    pub pure_natives: u64,
    /// Hidden-state native invocations per request (Table 2 row 2).
    pub hidden_natives: u64,
    /// Stateless native invocations per request (Table 2 row 4, "Others").
    pub other_natives: u64,
    /// Direct socket natives on top of the 3 per database round (Table 2
    /// row 3 = 3 × rounds + this).
    pub direct_socket_natives: u64,
    /// Point reads per request.
    pub db_reads: u32,
    /// Scan rounds per request.
    pub db_scans: u32,
    /// Rows per scan.
    pub scan_rows: u32,
    /// Inserts per request.
    pub db_inserts: u32,
    /// Synchronized blocks per request, each on its own shared lock
    /// (Table 5's steady-state sync fallback count).
    pub locks: u32,
    /// Shared "hot statistics" objects written per request (drives the
    /// synchronized-object volume of Table 5).
    pub hot_stats: u32,
    /// Small objects allocated (and dropped) per request at full fidelity —
    /// the young-generation churn behind the §5.6 GC pauses.
    pub churn_objects: u32,
    /// How many of the most recent churn objects stay reachable (request-
    /// scoped beans, session attributes): the live set each collection must
    /// copy, which sets the §5.6 pause medians.
    pub live_window: u32,
    /// Fields per churn object.
    pub churn_fields: u16,
    /// Dynamically generated framework classes for this request path (§2.2:
    /// 287 for the pybbs comment request).
    pub generated_classes: u32,
    /// Total classes in the application (pybbs: 24 692; blog: 18 493).
    pub classes_total: u32,
    /// Depth of the framework interceptor chain (§2.2: ~20 indirections).
    pub chain_depth: u32,
    /// Number of `MethodInterceptor` implementations behind the dispatch
    /// stub (§2.2: 31 in pybbs).
    pub stub_impls: u32,
    /// Lambda instance memory (GB): thumbnail gets 2 GB, others 1 GB
    /// (§5.1).
    pub lambda_memory_gb: f64,
}

impl AppSpec {
    /// The paper-calibrated spec for `kind`.
    pub fn of(kind: AppKind) -> AppSpec {
        match kind {
            AppKind::Thumbnail => AppSpec {
                kind,
                cpu_budget: Duration::from_millis(42),
                pure_natives: 78_000,
                hidden_natives: 2_400,
                other_natives: 180,
                direct_socket_natives: 0,
                db_reads: 0,
                db_scans: 0,
                scan_rows: 0,
                db_inserts: 0,
                locks: 1,
                hot_stats: 4,
                churn_objects: 32_000,
                churn_fields: 9,
                live_window: 9_000,
                generated_classes: 60,
                classes_total: 3_000,
                chain_depth: 12,
                stub_impls: 8,
                lambda_memory_gb: 2.0,
            },
            AppKind::Pybbs => AppSpec {
                kind,
                cpu_budget: Duration::from_millis(55),
                // Table 2, exactly.
                pure_natives: 226_643,
                hidden_natives: 34_749,
                other_natives: 415,
                // 81 reads + 1 insert = 82 rounds × 3 socket natives = 246,
                // plus 2 direct = 248 (Table 2 row 3).
                direct_socket_natives: 2,
                db_reads: 81,
                db_scans: 0,
                scan_rows: 0,
                db_inserts: 1,
                locks: 7,
                hot_stats: 12,
                churn_objects: 110_000,
                churn_fields: 9,
                live_window: 36_000,
                generated_classes: 287,
                classes_total: 24_692,
                chain_depth: 20,
                stub_impls: 31,
                lambda_memory_gb: 1.0,
            },
            AppKind::Blog => AppSpec {
                kind,
                cpu_budget: Duration::from_millis(36),
                pure_natives: 64_000,
                hidden_natives: 9_000,
                other_natives: 260,
                direct_socket_natives: 1,
                db_reads: 2,
                db_scans: 11,
                scan_rows: 160,
                db_inserts: 0,
                locks: 3,
                hot_stats: 8,
                churn_objects: 84_000,
                churn_fields: 9,
                live_window: 20_000,
                generated_classes: 140,
                classes_total: 18_493,
                chain_depth: 16,
                stub_impls: 14,
                lambda_memory_gb: 1.0,
            },
        }
    }

    /// Database rounds per request.
    pub fn db_rounds(&self) -> u32 {
        self.db_reads + self.db_scans + self.db_inserts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl AppSpec {
        /// Expected Table 2 network-native count (3 per round + direct).
        fn network_natives(&self) -> u64 {
            3 * self.db_rounds() as u64 + self.direct_socket_natives
        }
    }

    #[test]
    fn pybbs_matches_table2() {
        let s = AppSpec::of(AppKind::Pybbs);
        assert_eq!(s.pure_natives, 226_643);
        assert_eq!(s.hidden_natives, 34_749);
        assert_eq!(s.network_natives(), 248);
        assert_eq!(s.other_natives, 415);
        assert_eq!(s.classes_total, 24_692);
        assert_eq!(s.generated_classes, 287);
        assert_eq!(s.stub_impls, 31);
    }

    #[test]
    fn fidelity_factors() {
        assert_eq!(Fidelity::Full.factor(), 1);
        assert_eq!(Fidelity::Scaled(64).factor(), 64);
        assert_eq!(Fidelity::Scaled(0).factor(), 1, "clamped");
    }

    #[test]
    fn app_ordering_and_names() {
        let names: Vec<_> = AppKind::all().iter().map(|k| k.name()).collect();
        assert_eq!(names, vec!["thumbnail", "pybbs", "blog"]);
    }

    #[test]
    fn io_profiles_differ() {
        assert_eq!(AppSpec::of(AppKind::Thumbnail).db_rounds(), 0);
        assert_eq!(AppSpec::of(AppKind::Pybbs).db_rounds(), 82);
        assert!(AppSpec::of(AppKind::Blog).db_scans > 0);
        assert!(
            AppSpec::of(AppKind::Thumbnail).lambda_memory_gb
                > AppSpec::of(AppKind::Pybbs).lambda_memory_gb
        );
    }
}
