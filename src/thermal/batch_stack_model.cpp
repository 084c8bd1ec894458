#include "thermal/batch_stack_model.hpp"

#include "common/error.hpp"
#include "obs/names.hpp"

namespace coolpim::thermal {

BatchStackModel::BatchStackModel(StackSpec spec, std::size_t lanes, BatchOptions opt)
    : spec_{std::move(spec)} {
  COOLPIM_REQUIRE(lanes >= 1, "batch model needs at least one lane");
  // One network compile: every further lane is a copy sharing it.
  lanes_.assign(lanes, StackModel{spec_, opt});
}

StackModel& BatchStackModel::lane(std::size_t i) {
  COOLPIM_ASSERT(i < lanes_.size());
  return lanes_[i];
}

const StackModel& BatchStackModel::lane(std::size_t i) const {
  COOLPIM_ASSERT(i < lanes_.size());
  return lanes_[i];
}

void BatchStackModel::clear_power() {
  for (auto& l : lanes_) l.clear_power();
}

void BatchStackModel::step(Time dt) {
  const std::size_t n_sub = substeps_for(dt);
  for (auto& l : lanes_) l.step(dt);
  obs::CounterCell* passes =
      options().kernel == TransientKernel::kExplicit ? c_sweeps_ : c_adi_;
  if (passes != nullptr) passes->add(n_sub);
  if (c_lanes_ != nullptr) c_lanes_->add(lanes_.size());
}

void BatchStackModel::reset_to_ambient() {
  for (auto& l : lanes_) l.reset_to_ambient();
}

void BatchStackModel::set_counters(obs::CounterRegistry* counters) {
  if (counters == nullptr) {
    c_lanes_ = c_sweeps_ = c_adi_ = nullptr;
    return;
  }
  c_lanes_ = &counters->counter(obs::names::kThermalBatchLanes);
  c_sweeps_ = &counters->counter(obs::names::kThermalBatchSweeps);
  c_adi_ = &counters->counter(obs::names::kThermalBatchAdiSolves);
}

}  // namespace coolpim::thermal
