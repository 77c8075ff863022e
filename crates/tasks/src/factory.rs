//! Workload provenance: the [`WorkloadFactory`] trait that turns a
//! submission into a running computation, and the [`WorkloadTag`] that
//! identifies a workload in reports.
//!
//! The paper's porting exercise (Fig. 6) is the whole point of FreeRide:
//! *any* GPU workload can be adapted to the side-task interface, not just
//! the six the evaluation ships. A factory bundles the three things the
//! middleware needs to serve a workload it has never seen — a name for
//! reports, a [`WorkloadProfile`] for Algorithm 1's placement and the MPS
//! memory cap, and a constructor for the real computation. The built-in
//! [`WorkloadKind`] enum implements the trait, making the paper's six
//! workloads one provider among many rather than a closed world.

use crate::profiles::{WorkloadKind, WorkloadProfile};
use crate::workload::SideTaskWorkload;
use std::sync::Arc;

/// Identity of a workload as carried through tasks and reports: one of the
/// paper's six built-ins, or a custom workload known by name.
///
/// The custom name is interned behind an `Arc<str>`: tags are cloned on
/// every placement, arrival slot, and report row, and a reference-count
/// bump there beats re-allocating the string each time.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum WorkloadTag {
    /// One of the six built-in workloads of §6.1.4.
    Kind(WorkloadKind),
    /// A user-defined workload submitted through a [`WorkloadFactory`].
    Custom(Arc<str>),
}

impl WorkloadTag {
    /// Display name (matches the paper's tables for built-ins).
    pub fn name(&self) -> &str {
        match self {
            WorkloadTag::Kind(k) => k.name(),
            WorkloadTag::Custom(name) => name,
        }
    }

    /// The built-in kind, if this is one.
    pub fn as_kind(&self) -> Option<WorkloadKind> {
        match self {
            WorkloadTag::Kind(k) => Some(*k),
            WorkloadTag::Custom(_) => None,
        }
    }
}

impl core::fmt::Display for WorkloadTag {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}", self.name())
    }
}

impl From<WorkloadKind> for WorkloadTag {
    fn from(kind: WorkloadKind) -> Self {
        WorkloadTag::Kind(kind)
    }
}

impl PartialEq<WorkloadKind> for WorkloadTag {
    fn eq(&self, other: &WorkloadKind) -> bool {
        matches!(self, WorkloadTag::Kind(k) if k == other)
    }
}

impl PartialEq<WorkloadTag> for WorkloadKind {
    fn eq(&self, other: &WorkloadTag) -> bool {
        other == self
    }
}

/// A provider of side-task workloads: everything the middleware needs to
/// admit, place, cap, and run a computation it has never seen before.
///
/// Implementations must be deterministic: `build(seed)` must produce the
/// same computation for the same seed, or whole-simulation reproducibility
/// breaks.
pub trait WorkloadFactory: Send + Sync {
    /// Identity used in reports and summaries.
    fn tag(&self) -> WorkloadTag;

    /// The profile the paper's §4.3 profiler would have produced at the
    /// given batch size (non-batched workloads ignore it).
    fn profile(&self, batch: usize) -> WorkloadProfile;

    /// Instantiates the real computation.
    fn build(&self, seed: u64) -> Box<dyn SideTaskWorkload>;
}

impl WorkloadFactory for WorkloadKind {
    fn tag(&self) -> WorkloadTag {
        WorkloadTag::Kind(*self)
    }

    fn profile(&self, batch: usize) -> WorkloadProfile {
        self.profile_with_batch(batch)
    }

    fn build(&self, seed: u64) -> Box<dyn SideTaskWorkload> {
        WorkloadKind::build(*self, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::DEFAULT_BATCH;

    #[test]
    fn kind_factory_agrees_with_inherent_methods() {
        for kind in WorkloadKind::ALL {
            let factory: &dyn WorkloadFactory = &kind;
            assert_eq!(factory.tag(), WorkloadTag::Kind(kind));
            assert_eq!(factory.profile(DEFAULT_BATCH), kind.profile());
            let mut task = factory.build(7);
            task.create();
            task.init_gpu();
            assert!(task.run_step().is_finite());
        }
    }

    #[test]
    fn tags_compare_against_kinds() {
        let tag = WorkloadTag::from(WorkloadKind::PageRank);
        assert_eq!(tag, WorkloadKind::PageRank);
        assert_eq!(WorkloadKind::PageRank, tag);
        assert_ne!(tag, WorkloadKind::Vgg19);
        assert_eq!(tag.as_kind(), Some(WorkloadKind::PageRank));

        let custom = WorkloadTag::Custom("monte-carlo-pi".into());
        assert_ne!(custom, WorkloadKind::PageRank);
        assert_eq!(custom.name(), "monte-carlo-pi");
        assert_eq!(custom.as_kind(), None);
    }

    #[test]
    fn tag_display_matches_name() {
        assert_eq!(
            WorkloadTag::Kind(WorkloadKind::GraphSgd).to_string(),
            "Graph SGD"
        );
        assert_eq!(WorkloadTag::Custom("x".into()).to_string(), "x");
    }
}
