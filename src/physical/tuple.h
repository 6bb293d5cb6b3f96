// Physical tuple representation shared by the planner (planner.cc), the
// pipelined executor (pipeline.cc), and the streaming consumption layer
// (cleaning/prepared_query.cc).
//
// Physical rows are single-Value rows holding the algebra-level tuple
// struct {var → record}; see physical/compile.h for the layout contract.
#pragma once

#include "engine/cluster.h"
#include "storage/value.h"

namespace cleanm {

inline Row MakePhysicalTuple(Value tuple) { return Row{std::move(tuple)}; }

inline const Value& PhysicalTupleOf(const Row& row) { return row[0]; }

inline Value MergePhysicalTuples(const Value& a, const Value& b) {
  ValueStruct merged = a.AsStruct();
  const auto& bs = b.AsStruct();
  merged.insert(merged.end(), bs.begin(), bs.end());
  return Value(std::move(merged));
}

}  // namespace cleanm
