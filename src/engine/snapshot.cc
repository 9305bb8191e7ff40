#include "engine/snapshot.h"

#include <cmath>

namespace f2db {

double EngineSnapshot::Weight(const std::vector<NodeId>& sources,
                              NodeId target) const {
  double denom = 0.0;
  for (NodeId s : sources) denom += history_sums[s];
  if (std::abs(denom) < 1e-12) return 0.0;
  return history_sums[target] / denom;
}

void ModelTable::Set(NodeId node, Entry entry) {
  if (slots_[node] != nullptr) --count_;
  if (entry != nullptr) ++count_;
  slots_[node] = std::move(entry);
}

void ModelTable::Clear() {
  for (Entry& slot : slots_) slot.reset();
  count_ = 0;
}

std::shared_ptr<const LiveModel> EngineSnapshot::FindModel(NodeId node) const {
  return models.Find(node);
}

std::shared_ptr<EngineSnapshot> EngineSnapshot::CopyForWrite() const {
  auto next = std::make_shared<EngineSnapshot>(*this);
  ++next->version;
  return next;
}

}  // namespace f2db
