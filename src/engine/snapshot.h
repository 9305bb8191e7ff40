// Immutable engine state snapshots (the engine's concurrency substrate).
//
// The engine separates a lock-free read path from a serialized write path:
// everything a forecast query touches — the time series graph (structure
// and series data), the per-node derivation schemes, the full-history sums
// behind the derivation weights, and the live model states — lives in one
// immutable EngineSnapshot published through an atomic shared_ptr. A query
// pins the current snapshot once and computes entirely against it, so it
// never observes intermediate maintenance state; maintenance builds the
// next snapshot off to the side and installs it with a single atomic store
// (copy-on-write). Old snapshots stay alive for as long as some reader
// still holds them.
//
// A successor shares everything it does not change, so publishing costs
// O(new facts + models), not O(nodes x history):
//   - The graph structure is one immutable block every graph copy shares,
//     and each series is a window over a shared append-only buffer (see
//     TimeSeries). Copying the graph copies only the series handles.
//   - `schemes` and `history_sums` are SharedTables: a successor shares
//     them until it writes them.
//   - `models` is a dense node-indexed slot vector of shared entries;
//     copying it copies pointers.
//
// The shared-buffer invariant that makes this safe: a single writer (the
// engine's writer mutex) builds a successor; a series append in the
// successor claims the buffer's next slot with an atomic compare-and-swap,
// so two copies never write the same slot and a copy that loses the claim
// appends into a private buffer instead; and a reader never reads past its
// own window's length, so slots appended after its snapshot was taken are
// invisible to it even though they live in the same buffer. Publication
// through the atomic shared_ptr orders the writer's appends before any
// reader of the successor.

#ifndef F2DB_ENGINE_SNAPSHOT_H_
#define F2DB_ENGINE_SNAPSHOT_H_

#include <cstdint>
#include <iterator>
#include <memory>
#include <utility>
#include <vector>

#include "cube/graph.h"
#include "ts/model.h"

namespace f2db {

/// One published model state. Frozen after publication: maintenance clones
/// the model, advances the clone, and publishes a fresh entry; queries only
/// call the const members (Forecast, ForecastVariance), which are safe to
/// run concurrently on a shared model.
struct LiveModel {
  std::shared_ptr<const ForecastModel> model;
  /// Wall-clock seconds spent fitting (the paper's maintenance-cost proxy).
  double creation_seconds = 0.0;
  /// Threshold invalidation: set by maintenance, resolved by the first
  /// query that re-estimates the model (lazy re-estimation). A query that
  /// sees this flag fits a fresh clone on the snapshot's history and
  /// publishes it copy-on-write — the flagged entry itself never mutates.
  bool invalid = false;
  /// Incremental updates since the last parameter estimation.
  std::size_t updates_since_estimate = 0;

  // ---- re-estimation failure bookkeeping (published copy-on-write like
  // every other field; see "Failure semantics" in DESIGN.md) ----

  /// Consecutive failed lazy re-estimation attempts since the last success
  /// or data advance.
  std::size_t refit_failures = 0;
  /// Set once refit_failures reaches the engine's quarantine threshold:
  /// queries stop retrying the fit and serve the degradation ladder until
  /// the next data advance resets the entry.
  bool quarantined = false;
  /// Engine-uptime seconds of the most recent failed refit attempt — the
  /// reference point for the retry backoff window.
  double last_refit_attempt_seconds = 0.0;
};

/// A node-indexed table that successive snapshots share until one of them
/// writes it (copy-on-write on the first Mutable() call).
template <typename Row>
class SharedTable {
 public:
  explicit SharedTable(std::vector<Row> rows = {})
      : rows_(std::make_shared<std::vector<Row>>(std::move(rows))) {}

  std::size_t size() const { return rows_->size(); }
  const Row& operator[](std::size_t i) const { return (*rows_)[i]; }
  typename std::vector<Row>::const_iterator begin() const {
    return rows_->begin();
  }
  typename std::vector<Row>::const_iterator end() const { return rows_->end(); }

  /// The rows for writing: copied first unless this table holds the only
  /// reference. Only the writer building an unpublished successor calls
  /// it; the snapshot it copied from keeps the table shared until then.
  std::vector<Row>& Mutable() {
    if (rows_.use_count() != 1) {
      rows_ = std::make_shared<std::vector<Row>>(*rows_);
    }
    return *rows_;
  }

 private:
  std::shared_ptr<std::vector<Row>> rows_;
};

/// The published model entries, one slot per graph node (nullptr = no
/// model). Iteration visits the occupied slots in node order as
/// (node, entry) pairs.
class ModelTable {
 public:
  using Entry = std::shared_ptr<const LiveModel>;

  ModelTable() = default;
  explicit ModelTable(std::size_t num_nodes) : slots_(num_nodes) {}

  /// The entry stored for `node`, or nullptr.
  const Entry& Find(NodeId node) const { return slots_[node]; }
  /// Stores (or, with nullptr, removes) the entry of `node`.
  void Set(NodeId node, Entry entry);
  /// Removes every entry.
  void Clear();

  /// Number of stored entries.
  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }

  class const_iterator {
   public:
    using value_type = std::pair<NodeId, const Entry&>;
    using difference_type = std::ptrdiff_t;
    using iterator_category = std::forward_iterator_tag;

    const_iterator(const std::vector<Entry>* slots, std::size_t i)
        : slots_(slots), i_(i) {
      SkipEmpty();
    }
    value_type operator*() const {
      return {static_cast<NodeId>(i_), (*slots_)[i_]};
    }
    const_iterator& operator++() {
      ++i_;
      SkipEmpty();
      return *this;
    }
    bool operator==(const const_iterator& other) const {
      return i_ == other.i_;
    }

   private:
    void SkipEmpty() {
      while (i_ < slots_->size() && (*slots_)[i_] == nullptr) ++i_;
    }
    const std::vector<Entry>* slots_;
    std::size_t i_;
  };
  const_iterator begin() const { return {&slots_, 0}; }
  const_iterator end() const { return {&slots_, slots_.size()}; }

 private:
  std::vector<Entry> slots_;
  std::size_t count_ = 0;
};

/// The complete immutable engine state at one point in time.
struct EngineSnapshot {
  /// Graph structure plus series data as of this snapshot's frontier.
  std::shared_ptr<const TimeSeriesGraph> graph;
  /// schemes[node] = stored derivation sources (empty = uncovered).
  SharedTable<std::vector<NodeId>> schemes;
  /// Full-history sum per node — numerator/denominator of the derivation
  /// weight (Eq. 3), maintained incrementally on time advance.
  SharedTable<double> history_sums;
  /// Published model state per model node.
  ModelTable models;
  /// Monotone publication counter (diagnostics; successor snapshots have
  /// strictly larger versions).
  std::uint64_t version = 0;

  /// Derivation weight k = h_target / sum h_sources over this snapshot's
  /// history sums (Eq. 3); 0 when the denominator vanishes.
  double Weight(const std::vector<NodeId>& sources, NodeId target) const;

  /// The model entry stored for `node`, or nullptr.
  std::shared_ptr<const LiveModel> FindModel(NodeId node) const;

  /// Successor builder: shares the graph, the tables and every model entry
  /// with this snapshot and bumps the version; it copies pointers only.
  /// The caller replaces what changed (swap the graph, write a table
  /// through Mutable(), reassign model entries) before publishing.
  std::shared_ptr<EngineSnapshot> CopyForWrite() const;
};

/// How queries and maintenance hold a published snapshot.
using SnapshotPtr = std::shared_ptr<const EngineSnapshot>;

}  // namespace f2db

#endif  // F2DB_ENGINE_SNAPSHOT_H_
