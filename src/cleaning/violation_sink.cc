#include "cleaning/violation_sink.h"

namespace cleanm {

Status ViolationReport::BeginOp(const CleaningPlan& cp) {
  op_timer_.Reset();
  cp_ = &cp;
  dedup_.emplace(cp);
  emitted_ = 0;
  return sink_.OnOpBegin(cp.op_name);
}

Status ViolationReport::Emit(const Value& violation, bool is_new) {
  if (!dedup_->ShouldEmit(violation)) return Status::OK();
  CLEANM_RETURN_NOT_OK(is_new ? sink_.OnViolationNew(cp_->op_name, violation)
                              : sink_.OnViolation(cp_->op_name, violation));
  emitted_++;
  auto add = [&](const Value& entity) {
    auto& ops = entities_[entity];
    if (ops.empty() || ops.back() != cp_->op_name) ops.push_back(cp_->op_name);
  };
  for (const auto& var : cp_->entity_vars) {
    auto field = violation.GetField(var);
    if (!field.ok()) continue;
    const Value& entity = field.value();
    if (entity.type() == ValueType::kList) {
      for (const auto& e : entity.AsList()) add(e);
    } else {
      add(entity);
    }
  }
  return Status::OK();
}

Status ViolationReport::EndOp() {
  OpSummary summary;
  summary.op_name = cp_->op_name;
  summary.violations = emitted_;
  summary.seconds = op_timer_.ElapsedSeconds();
  return sink_.OnOpEnd(summary);
}

Status ViolationReport::Finish() {
  for (const auto& [entity, ops] : entities_) {
    CLEANM_RETURN_NOT_OK(sink_.OnDirtyEntity(entity, ops));
  }
  return Status::OK();
}

}  // namespace cleanm
