//! The candidate-method profiler (§4.3).
//!
//! BeeHive's profiler is "implemented via a Java agent, which records the
//! invocation count and the accumulated execution time for each candidate
//! method". Candidates are the methods carrying framework annotations; the
//! selection heuristics are (1) large accumulated time and (2) average time
//! not too short.
//!
//! The per-method bookkeeping lives in [`beehive_profiler`]: this module
//! only maps [`MethodId`]s onto the shared [`Aggregate`] and applies the
//! §4.3 selection policy, so the root-selection profiler and the call-tree
//! recorder ([`beehive_profiler::Recorder`], via
//! [`beehive_profiler::RawProfile::aggregate`]) share one bookkeeping path
//! instead of maintaining parallel `HashMap`s.

use beehive_profiler::Aggregate;
pub use beehive_profiler::MethodProfile;
use beehive_sim::Duration;

use crate::ids::MethodId;
use crate::program::Program;

/// Records execution time per candidate method and picks offloading roots.
#[derive(Clone, Debug, Default)]
pub struct Profiler {
    samples: Aggregate,
}

impl Profiler {
    /// An empty profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one completed invocation of `method` taking `elapsed`.
    pub fn record(&mut self, method: MethodId, elapsed: Duration) {
        self.samples.record(method.0, elapsed);
    }

    /// The profile of `method`, if it has been sampled.
    pub fn profile(&self, method: MethodId) -> Option<MethodProfile> {
        self.samples.get(method.0).copied()
    }

    /// Choose root methods for offloading (§4.3): among *candidates*
    /// (annotated methods), keep those whose average execution time is at
    /// least `min_average` ("should not be short, e.g. less than one
    /// millisecond"), ranked by accumulated execution time descending.
    pub fn select_roots(&self, program: &Program, min_average: Duration) -> Vec<MethodId> {
        select_roots_from(&self.samples, program, min_average)
    }
}

/// §4.3 selection over any [`Aggregate`] — the server's live profiler and a
/// recorded call-tree profile ([`beehive_profiler::RawProfile::aggregate`])
/// rank identically.
pub fn select_roots_from(
    samples: &Aggregate,
    program: &Program,
    min_average: Duration,
) -> Vec<MethodId> {
    let mut picks: Vec<(MethodId, MethodProfile)> = program
        .candidates()
        .filter_map(|m| samples.get(m.0).map(|p| (m, *p)))
        .filter(|(_, p)| p.average() >= min_average)
        .collect();
    picks.sort_by(|(ma, a), (mb, b)| b.total_time.cmp(&a.total_time).then_with(|| ma.cmp(mb)));
    picks.into_iter().map(|(m, _)| m).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Op;
    use crate::program::ProgramBuilder;

    fn program_with_candidates() -> (Program, MethodId, MethodId, MethodId) {
        let mut pb = ProgramBuilder::new();
        let c = pb.user_class("App", 0, None);
        let plain = pb.method(c, "helper", 0, 0, vec![Op::Return]);
        let hot = pb.method_annotated(c, "comment", 0, 0, vec![Op::Return], Some("@PostMapping"));
        let tiny = pb.method_annotated(c, "ping", 0, 0, vec![Op::Return], Some("@GetMapping"));
        (pb.finish(), plain, hot, tiny)
    }

    #[test]
    fn averages() {
        let mut p = Profiler::new();
        p.record(MethodId(0), Duration::from_millis(10));
        p.record(MethodId(0), Duration::from_millis(20));
        let prof = p.profile(MethodId(0)).unwrap();
        assert_eq!(prof.invocations, 2);
        assert_eq!(prof.average(), Duration::from_millis(15));
    }

    #[test]
    fn selection_filters_non_candidates_and_short_methods() {
        let (program, plain, hot, tiny) = program_with_candidates();
        let mut p = Profiler::new();
        // The un-annotated method is heavily used but must not be selected.
        for _ in 0..1000 {
            p.record(plain, Duration::from_millis(50));
        }
        for _ in 0..100 {
            p.record(hot, Duration::from_millis(40));
        }
        // The tiny candidate averages under the threshold.
        for _ in 0..10_000 {
            p.record(tiny, Duration::from_micros(100));
        }
        let roots = p.select_roots(&program, Duration::from_millis(1));
        assert_eq!(roots, vec![hot]);
        let _ = tiny;
    }

    #[test]
    fn selection_ranks_by_accumulated_time() {
        let mut pb = ProgramBuilder::new();
        let c = pb.user_class("App", 0, None);
        let a = pb.method_annotated(c, "a", 0, 0, vec![Op::Return], Some("@A"));
        let b = pb.method_annotated(c, "b", 0, 0, vec![Op::Return], Some("@B"));
        let program = pb.finish();
        let mut p = Profiler::new();
        p.record(a, Duration::from_millis(5));
        for _ in 0..10 {
            p.record(b, Duration::from_millis(5));
        }
        assert_eq!(
            p.select_roots(&program, Duration::from_millis(1)),
            vec![b, a]
        );
    }

    #[test]
    fn unsampled_methods_are_ignored() {
        let (program, _, _, _) = program_with_candidates();
        let p = Profiler::new();
        assert!(p.select_roots(&program, Duration::ZERO).is_empty());
        assert_eq!(p.profile(MethodId(1)), None);
    }

    #[test]
    fn recorded_call_trees_feed_the_same_selection() {
        let (program, _plain, hot, _tiny) = program_with_candidates();
        // A recorded profile of the candidate running for 40ms twice ranks
        // exactly like the live profiler fed the same observations.
        beehive_profiler::install();
        for _ in 0..2 {
            beehive_profiler::begin_segment("server", None, [hot.0].into_iter(), true);
            beehive_profiler::end_segment(Duration::from_millis(40));
        }
        let raw = beehive_profiler::take().unwrap();
        let derived = select_roots_from(&raw.aggregate(), &program, Duration::from_millis(1));
        let mut live = Profiler::new();
        live.record(hot, Duration::from_millis(40));
        live.record(hot, Duration::from_millis(40));
        assert_eq!(
            derived,
            live.select_roots(&program, Duration::from_millis(1))
        );
        assert_eq!(derived, vec![hot]);
    }
}
