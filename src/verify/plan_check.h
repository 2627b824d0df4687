// Compiled-plan consistency lint: prove a CompiledPlan still means what it
// says before the engine is armed with it.
//
// A CompiledPlan is a frozen artifact (plan/compiled_plan.h) that travels:
// it is serialized into the plan cache, reloaded on server cold starts, and
// copied across a replica pool. Three things can silently go wrong on that
// journey, and each has its own stable diagnostic:
//
//   QNN-D305  the plan no longer describes this deployment — stale model
//             hash, wrong format version, or structurally corrupt FIFO
//             streams (out-of-range node indices, zero capacities). The
//             offending FIELD is named in the message so a cache operator
//             can see *what* drifted, not just that something did.
//   QNN-D611  machine drift — the plan was tuned on a different host shape
//             (PlanKey::machine vs machine_signature()). The plan still
//             runs bit-exactly, but its worker count and bursts were
//             chosen for another core count, so this is a warning.
//   QNN-D612  burst/FIFO skew after deserialization — a per-stream burst
//             larger than its own FIFO, or link_bursts that disagree with
//             the bursts frozen in `fifos`. The engine clamps the former at
//             runtime (QNN-D302) and the link models silently price the
//             latter, which is exactly why a corrupted file needs a loud
//             static finding instead.
//
// DfeSession/DfeServer run lint_plan on every cache-loaded plan before
// arming the engine; a plan that fails the lint is treated as a cache MISS
// (the cache contract says a corrupt entry must never break a cold start).
// verify_graph() runs the same lint on explicitly supplied plans, where an
// error fails construction like any other QNN-Dxxx error.
#pragma once

#include "nn/pipeline.h"
#include "plan/compiled_plan.h"
#include "verify/report.h"

namespace qnn {

/// Re-verify `plan` against `pipeline` and this machine: QNN-D305 (stale /
/// corrupt, offending field named), QNN-D611 (machine drift, warning),
/// QNN-D612 (burst/FIFO skew). Appends findings; emits an info-severity
/// QNN-D305 line when the plan is fully consistent (mirroring how QNN-D301
/// reports a proved capacity).
void lint_plan(const Pipeline& pipeline, const CompiledPlan& plan,
               Report& report);

}  // namespace qnn
