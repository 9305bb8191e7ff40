#include "cube/graph.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <memory>
#include <numeric>
#include <utility>

namespace f2db {

TimeSeriesGraph::TimeSeriesGraph(const TimeSeriesGraph& other)
    : structure_(other.structure_),
      panel_(other.panel_),
      column_(other.column_),
      aggregates_built_(other.aggregates_built_),
      packed_(other.packed_) {
  if (other.series_ == nullptr) return;
  series_ = std::allocator<TimeSeries>().allocate(num_nodes());
  TimeSeries::Panel::CopyRows(other.rows(), series_);
}

TimeSeriesGraph& TimeSeriesGraph::operator=(const TimeSeriesGraph& other) {
  if (this != &other) *this = TimeSeriesGraph(other);
  return *this;
}

TimeSeriesGraph::TimeSeriesGraph(TimeSeriesGraph&& other) noexcept
    : structure_(std::move(other.structure_)),
      panel_(std::move(other.panel_)),
      series_(std::exchange(other.series_, nullptr)),
      column_(other.column_),
      aggregates_built_(other.aggregates_built_),
      packed_(other.packed_) {}

TimeSeriesGraph& TimeSeriesGraph::operator=(TimeSeriesGraph&& other) noexcept {
  if (this != &other) {
    FreeRows();
    structure_ = std::move(other.structure_);
    panel_ = std::move(other.panel_);
    series_ = std::exchange(other.series_, nullptr);
    column_ = other.column_;
    aggregates_built_ = other.aggregates_built_;
    packed_ = other.packed_;
  }
  return *this;
}

TimeSeriesGraph::~TimeSeriesGraph() { FreeRows(); }

void TimeSeriesGraph::FreeRows() {
  if (series_ == nullptr) return;
  // Borrowed rows hold nothing: a packed graph's rows, some perhaps never
  // written, need no destructor.
  if (!packed_) std::destroy_n(series_, num_nodes());
  std::allocator<TimeSeries>().deallocate(series_, num_nodes());
  series_ = nullptr;
}

Result<TimeSeriesGraph> TimeSeriesGraph::Create(CubeSchema schema) {
  TimeSeriesGraph graph;
  auto st = std::make_shared<Structure>();
  graph.structure_ = st;  // the member functions below read it as it fills
  st->schema = std::move(schema);
  const std::size_t dims = st->schema.num_dimensions();
  if (dims == 0) {
    return Status::InvalidArgument("graph needs at least one dimension");
  }

  st->slots_per_dim.resize(dims);
  st->level_offsets.resize(dims);
  std::size_t total = 1;
  for (std::size_t d = 0; d < dims; ++d) {
    const Hierarchy& h = st->schema.hierarchy(d);
    std::size_t slots = 0;
    st->level_offsets[d].resize(h.num_levels() + 1);
    for (LevelIndex l = 0; l <= h.num_levels(); ++l) {
      st->level_offsets[d][l] = slots;
      slots += h.num_values(l);
    }
    st->slots_per_dim[d] = slots;
    if (total > std::numeric_limits<NodeId>::max() / slots) {
      return Status::OutOfRange("graph too large for 32-bit node ids");
    }
    total *= slots;
  }
  st->num_nodes = total;
  graph.series_ = std::allocator<TimeSeries>().allocate(total);
  std::uninitialized_default_construct_n(graph.series_, total);

  // Base nodes in node-id order (deterministic) and the top node.
  for (NodeId node = 0; node < total; ++node) {
    if (graph.IsBaseNode(node)) st->base_nodes.push_back(node);
  }
  {
    NodeAddress top;
    top.coords.resize(dims);
    for (std::size_t d = 0; d < dims; ++d) {
      top.coords[d] = {
          static_cast<LevelIndex>(st->schema.hierarchy(d).num_levels()), 0};
    }
    const auto id = graph.NodeFor(top);
    assert(id.ok());
    st->top_node = id.value();
  }

  // Precompute the bottom-up aggregation order over non-base nodes.
  st->aggregation_order.reserve(total - st->base_nodes.size());
  for (NodeId node = 0; node < total; ++node) {
    if (!graph.IsBaseNode(node)) st->aggregation_order.push_back(node);
  }
  std::stable_sort(st->aggregation_order.begin(), st->aggregation_order.end(),
                   [&graph](NodeId a, NodeId b) {
                     return graph.LevelSum(a) < graph.LevelSum(b);
                   });

  // Summands: each aggregate sums its children along the first dimension
  // that is above level 0; those children have a strictly smaller level
  // sum, so they precede it in the aggregation order.
  st->summand_offsets.reserve(st->aggregation_order.size() + 1);
  st->summand_offsets.push_back(0);
  for (NodeId node : st->aggregation_order) {
    const NodeAddress address = graph.AddressOf(node);
    std::size_t dim = 0;
    while (address.coords[dim].level == 0) ++dim;
    const std::vector<NodeId> children = graph.Children(node, dim);
    assert(!children.empty());
    st->summands.insert(st->summands.end(), children.begin(), children.end());
    st->summand_offsets.push_back(st->summands.size());
  }

  // Neighbour lists: per dimension the children, then the parent. Moving
  // one coordinate changes only that dimension's mixed-radix digit.
  st->neighbor_offsets.reserve(total + 1);
  st->neighbor_offsets.push_back(0);
  for (NodeId node = 0; node < total; ++node) {
    const NodeAddress address = graph.AddressOf(node);
    std::size_t stride = 1;
    for (std::size_t d = 0; d < dims; ++d) {
      const Hierarchy& h = st->schema.hierarchy(d);
      const auto [level, value] = address.coords[d];
      const std::size_t base = node - graph.SlotOf(d, level, value) * stride;
      if (level > 0) {
        for (ValueIndex v : h.child_values(level, value)) {
          st->neighbors.push_back(static_cast<NodeId>(
              base + graph.SlotOf(d, static_cast<LevelIndex>(level - 1), v) *
                         stride));
        }
      }
      if (level < h.num_levels()) {
        st->neighbors.push_back(static_cast<NodeId>(
            base + graph.SlotOf(d, static_cast<LevelIndex>(level + 1),
                                h.parent_value(level, value)) *
                       stride));
      }
      stride *= st->slots_per_dim[d];
    }
    st->neighbor_offsets.push_back(st->neighbors.size());
  }
  return graph;
}

std::size_t TimeSeriesGraph::SlotOf(std::size_t dim, LevelIndex level,
                                    ValueIndex value) const {
  return structure_->level_offsets[dim][level] + value;
}

bool TimeSeriesGraph::IsBaseNode(NodeId node) const {
  const NodeAddress address = AddressOf(node);
  for (const auto& c : address.coords) {
    if (c.level != 0) return false;
  }
  return true;
}

NodeAddress::Coordinate TimeSeriesGraph::CoordinateOf(std::size_t dim,
                                                      std::size_t slot) const {
  // The level is the last one whose first slot is at or below `slot`.
  const std::vector<std::size_t>& offsets = structure_->level_offsets[dim];
  auto level = static_cast<LevelIndex>(offsets.size() - 1);
  while (level > 0 && slot < offsets[level]) --level;
  return {level, static_cast<ValueIndex>(slot - offsets[level])};
}

NodeAddress TimeSeriesGraph::AddressOf(NodeId node) const {
  const std::size_t dims = schema().num_dimensions();
  NodeAddress address;
  address.coords.resize(dims);
  std::size_t rest = node;
  for (std::size_t d = 0; d < dims; ++d) {
    address.coords[d] = CoordinateOf(d, rest % structure_->slots_per_dim[d]);
    rest /= structure_->slots_per_dim[d];
  }
  return address;
}

Result<NodeId> TimeSeriesGraph::NodeFor(const NodeAddress& address) const {
  const std::size_t dims = schema().num_dimensions();
  if (address.coords.size() != dims) {
    return Status::InvalidArgument("address has wrong dimensionality");
  }
  std::size_t id = 0;
  for (std::size_t d = dims; d-- > 0;) {
    const auto& c = address.coords[d];
    const Hierarchy& h = schema().hierarchy(d);
    if (c.level > h.num_levels()) {
      return Status::OutOfRange("level out of range in dimension " +
                                std::to_string(d));
    }
    if (c.value >= h.num_values(c.level)) {
      return Status::OutOfRange("value out of range in dimension " +
                                std::to_string(d));
    }
    id = id * structure_->slots_per_dim[d] + SlotOf(d, c.level, c.value);
  }
  return static_cast<NodeId>(id);
}

std::string TimeSeriesGraph::NodeName(NodeId node) const {
  std::string out;
  NodeNameInto(node, &out);
  return out;
}

void TimeSeriesGraph::NodeNameInto(NodeId node, std::string* out) const {
  out->clear();
  const std::size_t dims = schema().num_dimensions();
  std::size_t rest = node;
  for (std::size_t d = 0; d < dims; ++d) {
    const std::size_t slots = structure_->slots_per_dim[d];
    const auto [level, value] = CoordinateOf(d, rest % slots);
    rest /= slots;
    const Hierarchy& h = schema().hierarchy(d);
    if (d > 0) out->push_back(',');
    out->append(h.level_name(level));
    out->push_back('=');
    out->append(h.value_name(level, value));
  }
}

std::size_t TimeSeriesGraph::LevelSum(NodeId node) const {
  const NodeAddress address = AddressOf(node);
  std::size_t sum = 0;
  for (const auto& c : address.coords) sum += c.level;
  return sum;
}

std::vector<NodeId> TimeSeriesGraph::Children(NodeId node,
                                              std::size_t dim) const {
  NodeAddress address = AddressOf(node);
  const auto& c = address.coords[dim];
  if (c.level == 0) return {};
  const Hierarchy& h = schema().hierarchy(dim);
  const std::vector<ValueIndex>& child_values =
      h.child_values(c.level, c.value);
  std::vector<NodeId> out;
  out.reserve(child_values.size());
  for (ValueIndex v : child_values) {
    NodeAddress child = address;
    child.coords[dim] = {static_cast<LevelIndex>(c.level - 1), v};
    const auto id = NodeFor(child);
    assert(id.ok());
    out.push_back(id.value());
  }
  return out;
}

std::vector<std::pair<std::size_t, std::vector<NodeId>>>
TimeSeriesGraph::ChildSets(NodeId node) const {
  std::vector<std::pair<std::size_t, std::vector<NodeId>>> out;
  for (std::size_t d = 0; d < schema().num_dimensions(); ++d) {
    std::vector<NodeId> children = Children(node, d);
    if (!children.empty()) out.emplace_back(d, std::move(children));
  }
  return out;
}

Result<NodeId> TimeSeriesGraph::Parent(NodeId node, std::size_t dim) const {
  NodeAddress address = AddressOf(node);
  const auto& c = address.coords[dim];
  const Hierarchy& h = schema().hierarchy(dim);
  if (c.level >= h.num_levels()) {
    return Status::OutOfRange("node already at ALL in dimension " +
                              std::to_string(dim));
  }
  // parent_value returns the ALL value (0) for the topmost declared level.
  NodeAddress up = address;
  up.coords[dim] = {static_cast<LevelIndex>(c.level + 1),
                    h.parent_value(c.level, c.value)};
  return NodeFor(up);
}

std::size_t TimeSeriesGraph::Distance(NodeId a, NodeId b) const {
  // Decodes both ids digit by digit; no NodeAddress is built.
  std::size_t rest_a = a;
  std::size_t rest_b = b;
  std::size_t total = 0;
  for (std::size_t d = 0; d < schema().num_dimensions(); ++d) {
    const Hierarchy& h = schema().hierarchy(d);
    auto [la, va] = CoordinateOf(d, rest_a % structure_->slots_per_dim[d]);
    auto [lb, vb] = CoordinateOf(d, rest_b % structure_->slots_per_dim[d]);
    rest_a /= structure_->slots_per_dim[d];
    rest_b /= structure_->slots_per_dim[d];
    std::size_t steps = 0;
    auto lift = [&h](LevelIndex& level, ValueIndex& value) {
      value = h.parent_value(level, value);
      ++level;
    };
    while (la < lb) {
      lift(la, va);
      ++steps;
    }
    while (lb < la) {
      lift(lb, vb);
      ++steps;
    }
    while (va != vb) {
      // Same level; climb both to the common ancestor.
      lift(la, va);
      lift(lb, vb);
      steps += 2;
    }
    total += steps;
  }
  return total;
}

TimeSeriesGraph::NearestScratch::NearestScratch(std::size_t num_nodes)
    : seen(num_nodes, 0) {
  frontier.reserve(num_nodes);
  next.reserve(num_nodes);
  nearest.reserve(num_nodes);
}

std::vector<NodeId> TimeSeriesGraph::NearestNodes(NodeId node,
                                                  std::size_t k) const {
  NearestScratch scratch;  // unsized: the result grows only to its length
  NearestNodesInto(node, k, scratch);
  return std::move(scratch.nearest);
}

const std::vector<NodeId>& TimeSeriesGraph::NearestNodesInto(
    NodeId node, std::size_t k, NearestScratch& scratch) const {
  std::vector<NodeId>& out = scratch.nearest;
  out.clear();
  if (k == 0) return out;
  if (scratch.seen.size() != num_nodes()) {
    scratch.seen.assign(num_nodes(), 0);
    scratch.stamp = 0;
  }
  if (++scratch.stamp == 0) {  // stamps wrapped: forget every old visit
    std::fill(scratch.seen.begin(), scratch.seen.end(), 0);
    scratch.stamp = 1;
  }
  const std::uint32_t stamp = scratch.stamp;
  const std::size_t* offsets = structure_->neighbor_offsets.data();
  const NodeId* neighbors = structure_->neighbors.data();
  scratch.seen[node] = stamp;
  scratch.frontier.assign(1, node);
  while (!scratch.frontier.empty() && out.size() < k) {
    scratch.next.clear();
    for (NodeId cur : scratch.frontier) {
      for (std::size_t e = offsets[cur]; e < offsets[cur + 1]; ++e) {
        const NodeId neighbor = neighbors[e];
        if (scratch.seen[neighbor] != stamp) {
          scratch.seen[neighbor] = stamp;
          scratch.next.push_back(neighbor);
        }
      }
    }
    // Only the smallest ids of a level that does not fit entirely are
    // kept, so only those are ordered; the search ends with that level.
    const std::size_t room = k - out.size();
    if (scratch.next.size() > room) {
      std::partial_sort(scratch.next.begin(),
                        scratch.next.begin() + static_cast<std::ptrdiff_t>(room),
                        scratch.next.end());
      out.insert(out.end(), scratch.next.begin(),
                 scratch.next.begin() + static_cast<std::ptrdiff_t>(room));
      break;
    }
    std::sort(scratch.next.begin(), scratch.next.end());
    out.insert(out.end(), scratch.next.begin(), scratch.next.end());
    std::swap(scratch.frontier, scratch.next);
  }
  return out;
}

Status TimeSeriesGraph::SetBaseSeries(NodeId node, TimeSeries series) {
  if (node >= num_nodes()) return Status::OutOfRange("node id out of range");
  if (!IsBaseNode(node)) {
    return Status::InvalidArgument("SetBaseSeries: not a base node");
  }
  series_[node] = std::move(series);
  aggregates_built_ = false;
  packed_ = false;
  return Status::OK();
}

Status TimeSeriesGraph::BuildAggregates() {
  const Structure& st = *structure_;
  if (st.base_nodes.empty()) return Status::FailedPrecondition("no base nodes");
  const std::size_t n = series_[st.base_nodes[0]].size();
  const std::int64_t t0 = series_[st.base_nodes[0]].start_time();
  for (NodeId node : st.base_nodes) {
    if (series_[node].size() != n || series_[node].start_time() != t0) {
      return Status::FailedPrecondition(
          "base series are not aligned; node " + NodeName(node));
    }
  }
  // Rows that still borrow the panel take references of their own, so the
  // graph can let the panel go.
  if (panel_) {
    for (TimeSeries& row : rows()) row = TimeSeries(row);
    panel_ = {};
  }
  for (std::size_t k = 0; k < st.aggregation_order.size(); ++k) {
    std::vector<double> sum(n, 0.0);
    for (std::size_t e = st.summand_offsets[k]; e < st.summand_offsets[k + 1];
         ++e) {
      const TimeSeries& child_series = series_[st.summands[e]];
      assert(child_series.size() == n);
      for (std::size_t i = 0; i < n; ++i) sum[i] += child_series[i];
    }
    series_[st.aggregation_order[k]] = TimeSeries(std::move(sum), t0);
  }
  aggregates_built_ = true;
  packed_ = false;
  return Status::OK();
}

Status TimeSeriesGraph::CheckAdvance(
    const std::vector<double>& base_values) const {
  if (base_values.size() != structure_->base_nodes.size()) {
    return Status::InvalidArgument(
        "AdvanceTime: need exactly one value per base node");
  }
  if (!aggregates_built_) {
    return Status::FailedPrecondition("AdvanceTime: call BuildAggregates first");
  }
  return Status::OK();
}

Status TimeSeriesGraph::AdvanceTime(const std::vector<double>& base_values,
                                    std::vector<double>* column) {
  F2DB_RETURN_IF_ERROR(CheckAdvance(base_values));
  AggregateInto(base_values, *column);
  if (!ClaimNextColumn()) Repack();
  TimeSeries::Panel::AppendColumn(rows(), *column);
  return Status::OK();
}

Result<TimeSeriesGraph> TimeSeriesGraph::BeginSuccessor(
    const std::vector<double>& base_values, std::vector<double>* column) const {
  F2DB_RETURN_IF_ERROR(CheckAdvance(base_values));
  AggregateInto(base_values, *column);
  if (packed_ && panel_.ClaimColumn(column_)) {
    // Rows stay unconstructed until WriteSuccessorRows builds them.
    TimeSeriesGraph next;
    next.structure_ = structure_;
    next.panel_ = panel_;
    next.series_ = std::allocator<TimeSeries>().allocate(num_nodes());
    next.column_ = column_ + 1;
    next.aggregates_built_ = true;
    next.packed_ = true;
    return next;
  }
  TimeSeriesGraph next = *this;
  next.Repack();
  return next;
}

void TimeSeriesGraph::WriteSuccessorRows(TimeSeriesGraph& next,
                                         std::span<const double> column,
                                         std::size_t begin,
                                         std::size_t end) const {
  const std::span<const double> values = column.subspan(begin, end - begin);
  if (next.panel_ == panel_) {
    // The successor claimed this graph's column: its rows are built here.
    TimeSeries::Panel::AdvanceRows(rows().subspan(begin, end - begin),
                                   next.series_ + begin, values);
  } else {
    TimeSeries::Panel::AppendColumn(next.rows().subspan(begin, end - begin),
                                    values);
  }
}

bool TimeSeriesGraph::ClaimNextColumn() {
  if (!packed_ || !panel_.ClaimColumn(column_)) return false;
  ++column_;
  return true;
}

void TimeSeriesGraph::Repack() {
  // The rows are aligned: one length for all.
  const std::size_t length = series_length();
  panel_ =
      TimeSeries::Panel::Pack(rows(), std::max<std::size_t>(2 * length, 8));
  column_ = length;
  packed_ = true;
  const bool claimed = ClaimNextColumn();
  assert(claimed);
  (void)claimed;
}

Status TimeSeriesGraph::DropHistoryBefore(std::int64_t t) {
  if (!aggregates_built_) {
    return Status::FailedPrecondition(
        "DropHistoryBefore: call BuildAggregates first");
  }
  for (TimeSeries& series : rows()) {
    if (series.start_time() >= t) continue;
    series.DropFront(static_cast<std::size_t>(t - series.start_time()));
  }
  return Status::OK();
}

Result<std::vector<double>> TimeSeriesGraph::AggregateBaseScalars(
    const std::vector<double>& base_scalars) const {
  if (base_scalars.size() != structure_->base_nodes.size()) {
    return Status::InvalidArgument(
        "AggregateBaseScalars: need exactly one scalar per base node");
  }
  std::vector<double> out;
  AggregateInto(base_scalars, out);
  return out;
}

void TimeSeriesGraph::AggregateInto(const std::vector<double>& base_scalars,
                                    std::vector<double>& out) const {
  const Structure& st = *structure_;
  out.resize(st.num_nodes);
  for (std::size_t i = 0; i < st.base_nodes.size(); ++i) {
    out[st.base_nodes[i]] = base_scalars[i];
  }
  for (std::size_t k = 0; k < st.aggregation_order.size(); ++k) {
    double sum = 0.0;
    for (std::size_t e = st.summand_offsets[k]; e < st.summand_offsets[k + 1];
         ++e) {
      sum += out[st.summands[e]];
    }
    out[st.aggregation_order[k]] = sum;
  }
}

std::size_t TimeSeriesGraph::series_length() const {
  if (base_nodes().empty()) return 0;
  return series_[base_nodes()[0]].size();
}

}  // namespace f2db
