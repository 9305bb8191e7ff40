#include "cube/graph.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <limits>
#include <numeric>

namespace f2db {

Result<TimeSeriesGraph> TimeSeriesGraph::Create(CubeSchema schema) {
  TimeSeriesGraph graph;
  graph.schema_ = std::move(schema);
  const std::size_t dims = graph.schema_.num_dimensions();
  if (dims == 0) {
    return Status::InvalidArgument("graph needs at least one dimension");
  }

  graph.slots_per_dim_.resize(dims);
  graph.level_offsets_.resize(dims);
  std::size_t total = 1;
  for (std::size_t d = 0; d < dims; ++d) {
    const Hierarchy& h = graph.schema_.hierarchy(d);
    std::size_t slots = 0;
    graph.level_offsets_[d].resize(h.num_levels() + 1);
    for (LevelIndex l = 0; l <= h.num_levels(); ++l) {
      graph.level_offsets_[d][l] = slots;
      slots += h.num_values(l);
    }
    graph.slots_per_dim_[d] = slots;
    if (total > std::numeric_limits<NodeId>::max() / slots) {
      return Status::OutOfRange("graph too large for 32-bit node ids");
    }
    total *= slots;
  }
  graph.num_nodes_ = total;
  graph.series_.resize(total);

  // Base nodes in node-id order (deterministic) and the top node.
  for (NodeId node = 0; node < total; ++node) {
    if (graph.IsBaseNode(node)) graph.base_nodes_.push_back(node);
  }
  {
    NodeAddress top;
    top.coords.resize(dims);
    for (std::size_t d = 0; d < dims; ++d) {
      top.coords[d] = {
          static_cast<LevelIndex>(graph.schema_.hierarchy(d).num_levels()), 0};
    }
    const auto id = graph.NodeFor(top);
    assert(id.ok());
    graph.top_node_ = id.value();
  }

  // Precompute the bottom-up aggregation order over non-base nodes.
  graph.aggregation_order_.reserve(total - graph.base_nodes_.size());
  for (NodeId node = 0; node < total; ++node) {
    if (!graph.IsBaseNode(node)) graph.aggregation_order_.push_back(node);
  }
  std::stable_sort(graph.aggregation_order_.begin(),
                   graph.aggregation_order_.end(),
                   [&graph](NodeId a, NodeId b) {
                     return graph.LevelSum(a) < graph.LevelSum(b);
                   });

  // Neighbour lists: per dimension the children, then the parent. Moving
  // one coordinate changes only that dimension's mixed-radix digit.
  graph.neighbor_offsets_.reserve(total + 1);
  graph.neighbor_offsets_.push_back(0);
  for (NodeId node = 0; node < total; ++node) {
    const NodeAddress address = graph.AddressOf(node);
    std::size_t stride = 1;
    for (std::size_t d = 0; d < dims; ++d) {
      const Hierarchy& h = graph.schema_.hierarchy(d);
      const auto [level, value] = address.coords[d];
      const std::size_t base = node - graph.SlotOf(d, level, value) * stride;
      if (level > 0) {
        for (ValueIndex v : h.child_values(level, value)) {
          graph.neighbors_.push_back(static_cast<NodeId>(
              base + graph.SlotOf(d, static_cast<LevelIndex>(level - 1), v) *
                         stride));
        }
      }
      if (level < h.num_levels()) {
        graph.neighbors_.push_back(static_cast<NodeId>(
            base + graph.SlotOf(d, static_cast<LevelIndex>(level + 1),
                                h.parent_value(level, value)) *
                       stride));
      }
      stride *= graph.slots_per_dim_[d];
    }
    graph.neighbor_offsets_.push_back(graph.neighbors_.size());
  }
  return graph;
}

std::size_t TimeSeriesGraph::SlotOf(std::size_t dim, LevelIndex level,
                                    ValueIndex value) const {
  return level_offsets_[dim][level] + value;
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
  auto level = static_cast<LevelIndex>(schema_.hierarchy(dim).num_levels());
  while (level > 0 && slot < level_offsets_[dim][level]) --level;
  return {level, static_cast<ValueIndex>(slot - level_offsets_[dim][level])};
}

NodeAddress TimeSeriesGraph::AddressOf(NodeId node) const {
  const std::size_t dims = schema_.num_dimensions();
  NodeAddress address;
  address.coords.resize(dims);
  std::size_t rest = node;
  for (std::size_t d = 0; d < dims; ++d) {
    address.coords[d] = CoordinateOf(d, rest % slots_per_dim_[d]);
    rest /= slots_per_dim_[d];
  }
  return address;
}

Result<NodeId> TimeSeriesGraph::NodeFor(const NodeAddress& address) const {
  const std::size_t dims = schema_.num_dimensions();
  if (address.coords.size() != dims) {
    return Status::InvalidArgument("address has wrong dimensionality");
  }
  std::size_t id = 0;
  for (std::size_t d = dims; d-- > 0;) {
    const auto& c = address.coords[d];
    const Hierarchy& h = schema_.hierarchy(d);
    if (c.level > h.num_levels()) {
      return Status::OutOfRange("level out of range in dimension " +
                                std::to_string(d));
    }
    if (c.value >= h.num_values(c.level)) {
      return Status::OutOfRange("value out of range in dimension " +
                                std::to_string(d));
    }
    id = id * slots_per_dim_[d] + SlotOf(d, c.level, c.value);
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
  const std::size_t dims = schema_.num_dimensions();
  std::size_t rest = node;
  for (std::size_t d = 0; d < dims; ++d) {
    const auto [level, value] = CoordinateOf(d, rest % slots_per_dim_[d]);
    rest /= slots_per_dim_[d];
    const Hierarchy& h = schema_.hierarchy(d);
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
  const Hierarchy& h = schema_.hierarchy(dim);
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
  for (std::size_t d = 0; d < schema_.num_dimensions(); ++d) {
    std::vector<NodeId> children = Children(node, d);
    if (!children.empty()) out.emplace_back(d, std::move(children));
  }
  return out;
}

Result<NodeId> TimeSeriesGraph::Parent(NodeId node, std::size_t dim) const {
  NodeAddress address = AddressOf(node);
  const auto& c = address.coords[dim];
  const Hierarchy& h = schema_.hierarchy(dim);
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
  for (std::size_t d = 0; d < schema_.num_dimensions(); ++d) {
    const Hierarchy& h = schema_.hierarchy(d);
    auto [la, va] = CoordinateOf(d, rest_a % slots_per_dim_[d]);
    auto [lb, vb] = CoordinateOf(d, rest_b % slots_per_dim_[d]);
    rest_a /= slots_per_dim_[d];
    rest_b /= slots_per_dim_[d];
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
  if (scratch.seen.size() != num_nodes_) {
    scratch.seen.assign(num_nodes_, 0);
    scratch.stamp = 0;
  }
  if (++scratch.stamp == 0) {  // stamps wrapped: forget every old visit
    std::fill(scratch.seen.begin(), scratch.seen.end(), 0);
    scratch.stamp = 1;
  }
  const std::uint32_t stamp = scratch.stamp;
  scratch.seen[node] = stamp;
  scratch.frontier.assign(1, node);
  while (!scratch.frontier.empty() && out.size() < k) {
    scratch.next.clear();
    for (NodeId cur : scratch.frontier) {
      for (std::size_t e = neighbor_offsets_[cur];
           e < neighbor_offsets_[cur + 1]; ++e) {
        const NodeId neighbor = neighbors_[e];
        if (scratch.seen[neighbor] != stamp) {
          scratch.seen[neighbor] = stamp;
          scratch.next.push_back(neighbor);
        }
      }
    }
    std::sort(scratch.next.begin(), scratch.next.end());
    for (NodeId id : scratch.next) {
      if (out.size() >= k) break;
      out.push_back(id);
    }
    std::swap(scratch.frontier, scratch.next);
  }
  return out;
}

Status TimeSeriesGraph::SetBaseSeries(NodeId node, TimeSeries series) {
  if (node >= num_nodes_) return Status::OutOfRange("node id out of range");
  if (!IsBaseNode(node)) {
    return Status::InvalidArgument("SetBaseSeries: not a base node");
  }
  series_[node] = std::move(series);
  aggregates_built_ = false;
  return Status::OK();
}

Status TimeSeriesGraph::BuildAggregates() {
  if (base_nodes_.empty()) return Status::FailedPrecondition("no base nodes");
  const std::size_t n = series_[base_nodes_[0]].size();
  const std::int64_t t0 = series_[base_nodes_[0]].start_time();
  for (NodeId node : base_nodes_) {
    if (series_[node].size() != n || series_[node].start_time() != t0) {
      return Status::FailedPrecondition(
          "base series are not aligned; node " + NodeName(node));
    }
  }
  for (NodeId node : aggregation_order_) {
    // Aggregate along the first dimension that is above level 0; children
    // there have a strictly smaller level sum and are already computed.
    const NodeAddress address = AddressOf(node);
    std::size_t dim = 0;
    while (address.coords[dim].level == 0) ++dim;
    const std::vector<NodeId> children = Children(node, dim);
    assert(!children.empty());
    std::vector<double> sum(n, 0.0);
    for (NodeId child : children) {
      const TimeSeries& child_series = series_[child];
      assert(child_series.size() == n);
      for (std::size_t i = 0; i < n; ++i) sum[i] += child_series[i];
    }
    series_[node] = TimeSeries(std::move(sum), t0);
  }
  aggregates_built_ = true;
  return Status::OK();
}

Status TimeSeriesGraph::AdvanceTime(const std::vector<double>& base_values) {
  if (base_values.size() != base_nodes_.size()) {
    return Status::InvalidArgument(
        "AdvanceTime: need exactly one value per base node");
  }
  if (!aggregates_built_) {
    return Status::FailedPrecondition("AdvanceTime: call BuildAggregates first");
  }
  for (std::size_t i = 0; i < base_nodes_.size(); ++i) {
    series_[base_nodes_[i]].Append(base_values[i]);
  }
  for (NodeId node : aggregation_order_) {
    const NodeAddress address = AddressOf(node);
    std::size_t dim = 0;
    while (address.coords[dim].level == 0) ++dim;
    double sum = 0.0;
    for (NodeId child : Children(node, dim)) {
      const TimeSeries& child_series = series_[child];
      sum += child_series[child_series.size() - 1];
    }
    series_[node].Append(sum);
  }
  return Status::OK();
}

Status TimeSeriesGraph::DropHistoryBefore(std::int64_t t) {
  if (!aggregates_built_) {
    return Status::FailedPrecondition(
        "DropHistoryBefore: call BuildAggregates first");
  }
  for (TimeSeries& series : series_) {
    if (series.start_time() >= t) continue;
    series.DropFront(static_cast<std::size_t>(t - series.start_time()));
  }
  return Status::OK();
}

Result<std::vector<double>> TimeSeriesGraph::AggregateBaseScalars(
    const std::vector<double>& base_scalars) const {
  if (base_scalars.size() != base_nodes_.size()) {
    return Status::InvalidArgument(
        "AggregateBaseScalars: need exactly one scalar per base node");
  }
  std::vector<double> out(num_nodes_, 0.0);
  for (std::size_t i = 0; i < base_nodes_.size(); ++i) {
    out[base_nodes_[i]] = base_scalars[i];
  }
  for (NodeId node : aggregation_order_) {
    const NodeAddress address = AddressOf(node);
    std::size_t dim = 0;
    while (address.coords[dim].level == 0) ++dim;
    double sum = 0.0;
    for (NodeId child : Children(node, dim)) sum += out[child];
    out[node] = sum;
  }
  return out;
}

std::size_t TimeSeriesGraph::series_length() const {
  if (base_nodes_.empty()) return 0;
  return series_[base_nodes_[0]].size();
}

}  // namespace f2db
