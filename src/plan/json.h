// Versioned text serialization of CompiledPlan.
//
// The format is plain JSON written in a fixed field order with stable
// number formatting, so serialize(parse(serialize(p))) is byte-identical —
// the property the cache round-trip tests pin. The parser is a minimal
// recursive-descent JSON reader (objects, arrays, strings, numbers, bools)
// with no third-party dependency; it exists to read back what to_json
// wrote, not to accept arbitrary JSON dialects.
//
// Versioning policy (DESIGN.md §9): `version` is the first field written.
// plan_from_json() rejects any version other than kPlanFormatVersion with
// qnn::Error; PlanCache turns that rejection into a cache miss, so a
// format bump silently invalidates old cache entries instead of breaking
// cold starts.
#pragma once

#include <string>

#include "plan/compiled_plan.h"

namespace qnn {

/// Serialize a plan (deterministic field order and formatting).
[[nodiscard]] std::string to_json(const CompiledPlan& plan);

/// Parse a plan serialized by to_json. Throws qnn::Error on malformed
/// input, an unknown stream role name, or a format-version mismatch.
[[nodiscard]] CompiledPlan plan_from_json(const std::string& text);

}  // namespace qnn
