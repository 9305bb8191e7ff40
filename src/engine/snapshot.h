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
// A successor shares everything it does not change, so a time advance
// costs two flat copies and one pass over a dense column, not
// O(nodes x history) and not one object per model:
//   - The graph structure is one immutable block every graph copy shares,
//     and once the graph has advanced every series is a row of one panel
//     (see TimeSeries::Pack): copying the graph copies the row handles
//     under the panel's one reference count.
//   - `schemes` and `history_sums` are SharedTables: a successor shares
//     them until it writes them.
//   - `models` splits each model into parameters, state and record. The
//     parameters are shared const ForecastModel objects, replaced only by
//     a load, a refit or recovery. The states of all models live in one
//     flat array, and the records (the bookkeeping below) in one plain
//     array. An advance copies those two arrays and steps every state in
//     place; it allocates nothing per model and copies no pointers.
//
// Every model record carries a generation stamp: the version of the
// snapshot that last wrote the model's state or record. A re-estimation
// remembers the stamp it started from and is installed only if the stamp
// is still current, so a refit that raced an advance (which restamps every
// model) is discarded.
//
// The shared-buffer invariant that makes this safe: a single writer (the
// engine's writer mutex) builds a successor; a series append in the
// successor claims the row's next slot with an atomic compare-and-swap,
// so two copies never write the same slot, and a graph whose row loses the
// claim (or is full) regrows its whole panel instead; and a reader never
// reads past its own window's length, so slots appended after its snapshot
// was taken are invisible to it even though they live in the same panel.
// Publication through the atomic shared_ptr orders the writer's appends
// before any reader of the successor.

#ifndef F2DB_ENGINE_SNAPSHOT_H_
#define F2DB_ENGINE_SNAPSHOT_H_

#include <cstdint>
#include <iterator>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "cube/graph.h"
#include "ts/model.h"

namespace f2db {

/// Plain-data bookkeeping of one live model, published copy-on-write with
/// the rest of the model table.
struct ModelRecord {
  /// Wall-clock seconds spent fitting (the paper's maintenance-cost proxy).
  double creation_seconds = 0.0;
  /// Threshold invalidation: set by maintenance, resolved by the first
  /// query that re-estimates the model (lazy re-estimation). A query that
  /// sees this flag fits a fresh clone on the snapshot's history and
  /// publishes it copy-on-write — the flagged record itself never mutates.
  bool invalid = false;
  /// Incremental updates since the last parameter estimation.
  std::size_t updates_since_estimate = 0;

  // ---- re-estimation failure bookkeeping (see "Failure semantics" in
  // DESIGN.md) ----

  /// Consecutive failed lazy re-estimation attempts since the last success
  /// or data advance.
  std::size_t refit_failures = 0;
  /// Set once refit_failures reaches the engine's quarantine threshold:
  /// queries stop retrying the fit and serve the degradation ladder until
  /// the next data advance resets the record.
  bool quarantined = false;
  /// Engine-uptime seconds of the most recent failed refit attempt — the
  /// reference point for the retry backoff window.
  double last_refit_attempt_seconds = 0.0;

  /// Version of the snapshot that last wrote this model (see above).
  std::uint64_t generation = 0;
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
  const Row* data() const { return rows_->data(); }
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

/// One model as a snapshot holds it, borrowed from the snapshot's tables;
/// valid while the snapshot is. A default view means "no model".
struct ModelView {
  std::size_t slot = 0;
  NodeId node = 0;
  const ForecastModel* model = nullptr;  ///< the parameters
  std::span<const double> state;
  const ModelRecord* record = nullptr;

  explicit operator bool() const { return model != nullptr; }
};

/// The published models: parameters, flat states and records, indexed by a
/// dense model slot (slots are in node order).
class ModelTable {
 public:
  /// One model placed by Assign.
  struct Entry {
    NodeId node = 0;
    std::shared_ptr<const ForecastModel> model;
    /// The model's state; empty means the model's own.
    std::span<const double> state;
    ModelRecord record;
  };

  ModelTable() = default;
  /// An empty table for a graph of `num_nodes` nodes.
  explicit ModelTable(std::size_t num_nodes);

  /// Number of models.
  std::size_t size() const { return layout_ ? layout_->nodes.size() : 0; }
  bool empty() const { return size() == 0; }

  /// The model in `slot` (< size()).
  ModelView At(std::size_t slot) const;
  /// The model of `node`, or a default view.
  ModelView Find(NodeId node) const;

  class const_iterator {
   public:
    using value_type = ModelView;
    using difference_type = std::ptrdiff_t;
    using iterator_category = std::forward_iterator_tag;

    const_iterator(const ModelTable* table, std::size_t slot)
        : table_(table), slot_(slot) {}
    ModelView operator*() const { return table_->At(slot_); }
    const_iterator& operator++() {
      ++slot_;
      return *this;
    }
    bool operator==(const const_iterator& other) const {
      return slot_ == other.slot_;
    }

   private:
    const ModelTable* table_;
    std::size_t slot_;
  };
  const_iterator begin() const { return {this, 0}; }
  const_iterator end() const { return {this, size()}; }

  // ---- writer side: only the writer building an unpublished successor
  // calls these. Every record they write gets the table's stamp.

  /// Sets the generation stamp of records written from now on.
  void set_generation(std::uint64_t generation) { generation_ = generation; }

  /// Replaces every model.
  void Assign(std::vector<Entry> entries);
  /// Installs `model` with its own state and `record` as the model of
  /// `node`, replacing the node's previous model if it had one.
  void Install(NodeId node, std::shared_ptr<const ForecastModel> model,
               ModelRecord record);
  /// The record of `slot` for writing, stamped.
  ModelRecord& MutableRecord(std::size_t slot);

  /// The time-advance step: copies the states and records once (unless
  /// this table already owns them), stamps every record, then calls
  /// step(model, node, state, record) for every model with its parameters,
  /// node and writable state and record — over `pool` when there is one
  /// (models are independent), else in order.
  template <typename Step>
  void StepAll(ThreadPool* pool, Step&& step) {
    if (empty()) return;
    double* states = states_.Mutable().data();
    ModelRecord* records = records_.Mutable().data();
    const Layout& layout = *layout_;
    const std::shared_ptr<const ForecastModel>* params = params_.data();
    const std::uint64_t generation = generation_;
    const std::size_t count = size();
    const auto step_slot = [&](std::size_t slot) {
      // The parameter objects are scattered over the heap: fetch the ones
      // a few slots ahead while this one steps.
      if (slot + 8 < count) {
        const auto* ahead =
            reinterpret_cast<const char*>(params[slot + 8].get());
        __builtin_prefetch(ahead);
        __builtin_prefetch(ahead + 64);
      }
      const std::size_t offset = layout.offsets[slot];
      records[slot].generation = generation;
      step(*params[slot], layout.nodes[slot],
           std::span<double>(states + offset,
                             layout.offsets[slot + 1] - offset),
           records[slot]);
    };
    if (pool != nullptr) {
      pool->ParallelFor(count, step_slot);
    } else {
      for (std::size_t slot = 0; slot < count; ++slot) step_slot(slot);
    }
  }

 private:
  /// Which nodes carry models and where their states live; replaced only
  /// by Assign, shared by every successor otherwise.
  struct Layout {
    std::vector<NodeId> nodes;          ///< slot -> node
    std::vector<std::uint32_t> slots;   ///< node -> slot or kNoSlot
    std::vector<std::size_t> offsets;   ///< slot -> first state value
  };
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  std::shared_ptr<const Layout> layout_;
  SharedTable<std::shared_ptr<const ForecastModel>> params_;
  SharedTable<double> states_;
  SharedTable<ModelRecord> records_;
  std::uint64_t generation_ = 0;
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
  /// Published models: parameters, states and records.
  ModelTable models;
  /// Monotone publication counter (diagnostics; successor snapshots have
  /// strictly larger versions).
  std::uint64_t version = 0;

  /// Derivation weight k = h_target / sum h_sources over this snapshot's
  /// history sums (Eq. 3); 0 when the denominator vanishes.
  double Weight(const std::vector<NodeId>& sources, NodeId target) const;

  /// Successor builder: shares the graph and every table with this
  /// snapshot, bumps the version and stamps model records written from now
  /// on with it; it copies a few pointers only. The caller replaces what
  /// changed (swap the graph, write a table through Mutable() or the model
  /// table's writers) before publishing.
  std::shared_ptr<EngineSnapshot> CopyForWrite() const;
};

/// How queries and maintenance hold a published snapshot.
using SnapshotPtr = std::shared_ptr<const EngineSnapshot>;

}  // namespace f2db

#endif  // F2DB_ENGINE_SNAPSHOT_H_
