#include "engine/snapshot.h"

#include <algorithm>
#include <cmath>

namespace f2db {

double EngineSnapshot::Weight(const std::vector<NodeId>& sources,
                              NodeId target) const {
  double denom = 0.0;
  for (NodeId s : sources) denom += history_sums[s];
  if (std::abs(denom) < 1e-12) return 0.0;
  return history_sums[target] / denom;
}

std::shared_ptr<EngineSnapshot> EngineSnapshot::CopyForWrite() const {
  auto next = std::make_shared<EngineSnapshot>(*this);
  ++next->version;
  next->models.set_generation(next->version);
  return next;
}

ModelTable::ModelTable(std::size_t num_nodes) {
  auto layout = std::make_shared<Layout>();
  layout->slots.assign(num_nodes, kNoSlot);
  layout->offsets.push_back(0);
  layout_ = std::move(layout);
}

ModelView ModelTable::At(std::size_t slot) const {
  const std::size_t offset = layout_->offsets[slot];
  ModelView view;
  view.slot = slot;
  view.node = layout_->nodes[slot];
  view.model = params_[slot].get();
  view.state = std::span<const double>(states_.data() + offset,
                                       layout_->offsets[slot + 1] - offset);
  view.record = &records_[slot];
  return view;
}

ModelView ModelTable::Find(NodeId node) const {
  if (!layout_ || node >= layout_->slots.size()) return {};
  const std::uint32_t slot = layout_->slots[node];
  if (slot == kNoSlot) return {};
  return At(slot);
}

void ModelTable::Assign(std::vector<Entry> entries) {
  // Node order; of several entries for one node the last one wins.
  std::stable_sort(
      entries.begin(), entries.end(),
      [](const Entry& a, const Entry& b) { return a.node < b.node; });
  const auto last = std::unique(
      entries.rbegin(), entries.rend(),
      [](const Entry& a, const Entry& b) { return a.node == b.node; });
  entries.erase(entries.begin(), last.base());
  auto layout = std::make_shared<Layout>();
  layout->slots.assign(layout_ ? layout_->slots.size() : 0, kNoSlot);
  std::vector<std::shared_ptr<const ForecastModel>> params;
  std::vector<double> states;
  std::vector<ModelRecord> records;
  params.reserve(entries.size());
  records.reserve(entries.size());
  layout->nodes.reserve(entries.size());
  layout->offsets.reserve(entries.size() + 1);
  layout->offsets.push_back(0);
  for (Entry& entry : entries) {
    const std::span<const double> state =
        entry.state.empty() ? entry.model->state() : entry.state;
    if (entry.node >= layout->slots.size()) {
      layout->slots.resize(entry.node + 1, kNoSlot);
    }
    layout->slots[entry.node] = static_cast<std::uint32_t>(params.size());
    layout->nodes.push_back(entry.node);
    states.insert(states.end(), state.begin(), state.end());
    layout->offsets.push_back(states.size());
    entry.record.generation = generation_;
    records.push_back(entry.record);
    params.push_back(std::move(entry.model));
  }
  layout_ = std::move(layout);
  params_ =
      SharedTable<std::shared_ptr<const ForecastModel>>(std::move(params));
  states_ = SharedTable<double>(std::move(states));
  records_ = SharedTable<ModelRecord>(std::move(records));
}

void ModelTable::Install(NodeId node,
                         std::shared_ptr<const ForecastModel> model,
                         ModelRecord record) {
  const ModelView live = Find(node);
  if (!live || model->state_size() != live.state.size()) {
    // A new model, or a different state size, moves later states: rebuild
    // the layout. Assign keeps the last entry of a node.
    const ModelTable old = *this;
    std::vector<Entry> entries;
    entries.reserve(old.size() + 1);
    for (const ModelView view : old) {
      entries.push_back(
          {view.node, old.params_[view.slot], view.state, *view.record});
    }
    entries.push_back({node, std::move(model), {}, record});
    Assign(std::move(entries));
    return;
  }
  const std::span<const double> state = model->state();
  const std::size_t offset = layout_->offsets[live.slot];
  std::copy(state.begin(), state.end(), states_.Mutable().begin() + offset);
  params_.Mutable()[live.slot] = std::move(model);
  record.generation = generation_;
  records_.Mutable()[live.slot] = record;
}

ModelTable::Stepper ModelTable::BeginStep() {
  Stepper stepper;
  if (empty()) return stepper;
  stepper.layout_ = layout_.get();
  stepper.params_ = params_.data();
  stepper.states_ = states_.Mutable().data();
  stepper.records_ = records_.Mutable().data();
  stepper.generation_ = generation_;
  stepper.count_ = size();
  return stepper;
}

ModelRecord& ModelTable::MutableRecord(std::size_t slot) {
  ModelRecord& record = records_.Mutable()[slot];
  record.generation = generation_;
  return record;
}

}  // namespace f2db
