// The time series hyper graph (Section II-A, Figure 2).
//
// Nodes represent time series at the instance level of the data cube: one
// node per combination of (level, value) across all dimension hierarchies.
// Level-0-everywhere nodes are base time series; every other node is an
// aggregated series obtained by SUM. The graph is complete (every
// aggregation possibility according to the categorical values exists),
// a series can contribute to several aggregated series, and functional
// dependencies are encoded by the hierarchies (C1*P2 does not exist when
// city determines region).

#ifndef F2DB_CUBE_GRAPH_H_
#define F2DB_CUBE_GRAPH_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "cube/cube_schema.h"
#include "ts/time_series.h"

namespace f2db {

/// Dense node identifier in [0, num_nodes()).
using NodeId = std::uint32_t;

/// Coordinate of a node: one (level, value) pair per dimension.
struct NodeAddress {
  struct Coordinate {
    LevelIndex level = 0;
    ValueIndex value = 0;
    bool operator==(const Coordinate&) const = default;
  };
  std::vector<Coordinate> coords;
  bool operator==(const NodeAddress&) const = default;
};

/// The complete instance-level aggregation graph with per-node series data.
///
/// The structure (schema, node numbering, aggregation order and neighbour
/// lists) lives in one immutable block that every copy shares. A copy
/// copies only the per-node series handles, each O(1) (see TimeSeries), so
/// copying a graph costs O(nodes) whatever the history length. From the
/// first time advance on, every node's series is a borrowed row of one
/// panel (see TimeSeries::Panel) and the graph holds the panel's one
/// reference: copying or destroying the graph touches that one counter,
/// and the row handles are plain data. A series copied out of series()
/// takes its own reference and may outlive the graph.
class TimeSeriesGraph {
 public:
  TimeSeriesGraph(const TimeSeriesGraph& other);
  TimeSeriesGraph& operator=(const TimeSeriesGraph& other);
  TimeSeriesGraph(TimeSeriesGraph&& other) noexcept;
  TimeSeriesGraph& operator=(TimeSeriesGraph&& other) noexcept;
  ~TimeSeriesGraph();

  /// Builds the (empty-data) graph for a schema. Fails when the node count
  /// would overflow NodeId.
  static Result<TimeSeriesGraph> Create(CubeSchema schema);

  const CubeSchema& schema() const { return structure_->schema; }

  std::size_t num_nodes() const { return structure_->num_nodes; }
  std::size_t num_base_nodes() const { return structure_->base_nodes.size(); }

  /// All base nodes (level 0 in every dimension) in deterministic order.
  const std::vector<NodeId>& base_nodes() const {
    return structure_->base_nodes;
  }

  /// The single node aggregated over everything (ALL in every dimension).
  NodeId top_node() const { return structure_->top_node; }

  /// True when every coordinate is at level 0.
  bool IsBaseNode(NodeId node) const;

  /// Decodes a node id into its address.
  NodeAddress AddressOf(NodeId node) const;

  /// Encodes an address into its node id; validates ranges.
  Result<NodeId> NodeFor(const NodeAddress& address) const;

  /// Human-readable name, e.g. "C1.R1*.P2" -> "city=C1,product=P2".
  std::string NodeName(NodeId node) const;

  /// NodeName rendered into a caller-reused buffer (cleared first),
  /// decoding the id in place — no NodeAddress vector, no returned
  /// string. The EXECUTE hot path names resolved nodes per request and
  /// must not allocate once *out has steady-state capacity.
  void NodeNameInto(NodeId node, std::string* out) const;

  /// Sum of levels across dimensions; 0 for base nodes. Nodes can be
  /// aggregated strictly bottom-up in increasing level-sum order.
  std::size_t LevelSum(NodeId node) const;

  /// Children of `node` along dimension `dim` (one aggregation step down).
  /// Empty when the node is at level 0 in that dimension.
  std::vector<NodeId> Children(NodeId node, std::size_t dim) const;

  /// All children across all dimensions (each set disjoint by dimension).
  std::vector<std::pair<std::size_t, std::vector<NodeId>>> ChildSets(
      NodeId node) const;

  /// Parent of `node` along dimension `dim` (one aggregation step up).
  /// Fails when the node is already at ALL in that dimension.
  Result<NodeId> Parent(NodeId node, std::size_t dim) const;

  /// Symmetric graph distance: the number of single-level roll-up /
  /// drill-down steps to get from `a` to `b` (summed over dimensions,
  /// through the lowest common ancestor per dimension).
  std::size_t Distance(NodeId a, NodeId b) const;

  /// Reusable buffers of NearestNodesInto; one per concurrent caller.
  /// Constructed for the graph's node count, a search through it allocates
  /// nothing; default-constructed, it is sized by its first search.
  struct NearestScratch {
    NearestScratch() = default;
    explicit NearestScratch(std::size_t num_nodes);

    std::vector<std::uint32_t> seen;  ///< per node: stamp of its last visit
    std::uint32_t stamp = 0;
    std::vector<NodeId> frontier;
    std::vector<NodeId> next;
    std::vector<NodeId> nearest;  ///< the result of the last search
  };

  /// Up to `k` nearest other nodes by breadth-first search over
  /// parent/child edges; deterministic order (distance, then id).
  std::vector<NodeId> NearestNodes(NodeId node, std::size_t k) const;

  /// NearestNodes into `scratch.nearest`, returned by reference. Walks the
  /// neighbour lists precomputed by Create.
  const std::vector<NodeId>& NearestNodesInto(NodeId node, std::size_t k,
                                              NearestScratch& scratch) const;

  // ------------------------------------------------------------------ data

  /// Installs the history of a base series. All base series must share
  /// start time and length.
  Status SetBaseSeries(NodeId node, TimeSeries series);

  /// Computes every aggregated series bottom-up, each into storage of its
  /// own; the base series keep theirs. Requires all base series to be set
  /// and aligned.
  Status BuildAggregates();

  /// Series of a node (base or aggregated). Aggregates are valid only
  /// after BuildAggregates / AdvanceTime.
  const TimeSeries& series(NodeId node) const { return series_[node]; }

  /// Appends one new observation per base node (ordered as base_nodes())
  /// and incrementally updates every aggregate — the engine's batched
  /// time-advance (Section V, Maintenance Processor). Fills *column with
  /// the new value of every node (the AggregateBaseScalars sums, in
  /// BuildAggregates' child order) and appends column[node] to each row,
  /// in the panel column the graph claims. The first advance packs every
  /// series into one panel; later, when the claim fails (the panel is
  /// full, or a discarded successor claimed the column), the rows are
  /// packed into a fresh panel. Either way the new panel has room for
  /// twice the longest window. O(nodes) amortized and allocation-free once
  /// *column has its size, except when the panel regrows.
  Status AdvanceTime(const std::vector<double>& base_values,
                     std::vector<double>* column);

  /// AdvanceTime into a new graph, for a caller that writes the rows on
  /// threads of its own: the successor shares this graph's structure and
  /// panel, *column is filled and the successor's column claimed (or its
  /// rows packed into a fresh panel) as AdvanceTime does, but its rows are
  /// complete only once WriteSuccessorRows has covered [0, num_nodes()).
  /// This graph is left as it was.
  Result<TimeSeriesGraph> BeginSuccessor(const std::vector<double>& base_values,
                                         std::vector<double>* column) const;

  /// Writes rows [begin, end) of `next`, a successor from BeginSuccessor on
  /// this graph with its *column: each row advances this graph's row by
  /// column[node]. Disjoint ranges may be written concurrently; this graph
  /// must live until every row is written.
  void WriteSuccessorRows(TimeSeriesGraph& next,
                          std::span<const double> column, std::size_t begin,
                          std::size_t end) const;

  /// Length of the (aligned) series; 0 before data is loaded.
  std::size_t series_length() const;

  /// Drops every observation strictly before time `t` from every node's
  /// series (base and aggregate alike) — the in-memory half of retention.
  /// Requires aggregates to be built; series starting at or after `t` are
  /// untouched.
  Status DropHistoryBefore(std::int64_t t);

  /// Aggregates one scalar per base node (ordered as base_nodes()) up the
  /// graph with the same child-sum structure BuildAggregates uses,
  /// returning one scalar per node. Used to roll per-base retention sum
  /// offsets up to every aggregate exactly.
  Result<std::vector<double>> AggregateBaseScalars(
      const std::vector<double>& base_scalars) const;

 private:
  /// Everything but the series data; built once by Create, then shared
  /// immutably by every copy of the graph.
  struct Structure {
    CubeSchema schema;
    std::size_t num_nodes = 0;
    /// slots_per_dim[d] = number of (level, value) combinations in dim d.
    std::vector<std::size_t> slots_per_dim;
    /// level_offsets[d][l] = first slot of level l in dimension d.
    std::vector<std::vector<std::size_t>> level_offsets;
    std::vector<NodeId> base_nodes;
    NodeId top_node = 0;
    /// Non-base nodes ordered by increasing level sum (aggregation order).
    std::vector<NodeId> aggregation_order;
    /// The children aggregation_order[k] sums, in CSR form: along its first
    /// dimension above level 0, in Children() order, at
    /// summands[summand_offsets[k] .. summand_offsets[k + 1]).
    std::vector<std::size_t> summand_offsets;
    std::vector<NodeId> summands;
    /// Parent/child neighbours in CSR form: the neighbours of node v are
    /// neighbors[neighbor_offsets[v] .. neighbor_offsets[v + 1]).
    std::vector<std::size_t> neighbor_offsets;
    std::vector<NodeId> neighbors;
  };

  TimeSeriesGraph() = default;

  /// Per-dimension mixed-radix slot of a coordinate.
  std::size_t SlotOf(std::size_t dim, LevelIndex level, ValueIndex value) const;

  /// Inverse of SlotOf: the (level, value) at `slot` of dimension `dim`.
  NodeAddress::Coordinate CoordinateOf(std::size_t dim, std::size_t slot) const;

  /// The AggregateBaseScalars loop: `out` (num_nodes values) gets the base
  /// scalars at the base nodes and every aggregate's child sum.
  void AggregateInto(const std::vector<double>& base_scalars,
                     std::vector<double>& out) const;

  /// AdvanceTime's checks on its arguments and the graph.
  Status CheckAdvance(const std::vector<double>& base_values) const;

  /// Claims the panel column after the rows for this graph's next
  /// advance; false when the graph is not packed or the claim fails.
  bool ClaimNextColumn();

  /// Packs every series into a fresh panel with room for twice the longest
  /// window and claims its next column.
  void Repack();

  /// The row handles as a span.
  std::span<TimeSeries> rows() { return {series_, num_nodes()}; }
  std::span<const TimeSeries> rows() const { return {series_, num_nodes()}; }

  /// Ends the rows' lifetimes and frees their storage.
  void FreeRows();

  std::shared_ptr<const Structure> structure_;
  /// The panel every borrowed row lies in; empty when no row borrows.
  TimeSeries::Panel panel_;
  /// num_nodes() row handles in storage of the graph's own. Borrowed rows
  /// hold nothing, so the rows of a packed graph are freed without running
  /// a destructor, and a successor's rows are constructed by whichever
  /// thread writes them (WriteSuccessorRows), not zeroed first.
  TimeSeries* series_ = nullptr;
  /// The panel column the rows end at; meaningful while packed_.
  std::size_t column_ = 0;
  bool aggregates_built_ = false;
  /// True when every series is a borrowed row of panel_ (or, in a
  /// successor, will be once written).
  bool packed_ = false;
};

}  // namespace f2db

#endif  // F2DB_CUBE_GRAPH_H_
