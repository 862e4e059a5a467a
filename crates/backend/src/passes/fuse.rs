//! The `fuse-transcode` decision point.
//!
//! Transcode fusion — collapsing spans of scalars that tile both
//! streams into runs that cross behind one bounds check, each part
//! copied or swap-copied — is decided when an encoding-*pair* plan is
//! built ([`crate::transcode::plan`]), not as a rewrite of endpoint
//! MIR: a fused [`crate::transcode::XcOp`] never
//! materializes a presentation slot, so there is nothing in
//! [`StubPlans`] for it to rewrite.  The pass is registered here so the
//! name participates in the shared pass vocabulary: `flickc
//! --disable-pass=fuse-transcode` validates like every other pass name,
//! pipeline fingerprints (and therefore plan caches) key on whether
//! fusion is scheduled, and the ablation harness gets a row.  Over
//! endpoint stub plans it is a no-op, so its decision count is 0 by
//! construction; what it did to a gateway plan is reported as the
//! `transcode.*` counters of `flickc --transcode=SRC:DST --stats`
//! ([`crate::transcode::XcStats`]).

use crate::mir::{PlanResult, StubPlans};
use crate::passes::{MirPass, PassCx};

/// §4 (gateway) transcode fusion: source-to-target runs — one check
/// per region, parts copied or swap-copied — where both encodings tile.
pub struct FuseTranscode;

impl MirPass for FuseTranscode {
    fn name(&self) -> &'static str {
        "fuse-transcode"
    }

    fn run(&self, _mir: &mut StubPlans, _cx: &PassCx) -> PlanResult<u64> {
        // Endpoint plans target one encoding; the fusion decision only
        // exists for encoding pairs and is applied in transcode
        // planning, keyed off this pass being scheduled.
        Ok(0)
    }
}
