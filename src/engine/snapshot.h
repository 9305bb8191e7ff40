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
//     and once the graph has advanced every series is a borrowed row of
//     one panel (see TimeSeries::Panel): the graph holds the panel's one
//     reference, so building the successor's graph or releasing the old
//     one touches one counter, not one per row.
//   - `schemes` and `history_sums` are SharedTables: a successor shares
//     them until it writes them; the history sums are rebuilt as old sum
//     plus column in one pass.
//   - `models` splits each model into parameters, state and record. The
//     parameters are shared const ForecastModel objects, replaced only by
//     a load, a refit or recovery. The states of all models live in one
//     flat array, and the records (the bookkeeping below) in one plain
//     array. An advance copies those two arrays and steps every state in
//     place; it allocates nothing per model and copies no pointers.
//   - Writing the successor's rows and stepping its models are both
//     independent per row and per model, so one ParallelFor runs them
//     together on the maintenance pool.
//
// Every model record carries a generation stamp: the version of the
// snapshot that last wrote the model's state or record. A re-estimation
// remembers the stamp it started from and is installed only if the stamp
// is still current, so a refit that raced an advance (which restamps every
// model) is discarded.
//
// The shared-panel invariant that makes this safe: a single writer (the
// engine's writer mutex) builds a successor; the successor claims the
// panel's next column with one compare-and-swap before it writes that
// column of every row, so two graphs never write the same slot, and a
// successor whose claim fails (the panel is full, or a discarded successor
// claimed the column) packs its rows into a fresh panel instead; and a
// reader never reads past its own window's length, so slots appended after
// its snapshot was taken are invisible to it even though they live in the
// same panel. A reader that copies a series out of a snapshot takes its
// own reference to the panel, so the copy outlives the snapshot.
// Publication through the atomic shared_ptr orders the writer's appends,
// including those the pool's threads made, before any reader of the
// successor.

#ifndef F2DB_ENGINE_SNAPSHOT_H_
#define F2DB_ENGINE_SNAPSHOT_H_

#include <cstdint>
#include <iterator>
#include <memory>
#include <span>
#include <utility>
#include <vector>

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

  /// Sets every row i to fn(i, row i) in one pass: in place when this table
  /// holds the only reference, else into fresh rows, without copying the
  /// old ones first. Called only as Mutable() is.
  template <typename Fn>
  void Update(Fn fn) {
    if (rows_.use_count() == 1) {
      for (std::size_t i = 0; i < rows_->size(); ++i) {
        (*rows_)[i] = fn(i, (*rows_)[i]);
      }
      return;
    }
    auto fresh = std::make_shared<std::vector<Row>>();
    fresh->reserve(rows_->size());
    for (std::size_t i = 0; i < rows_->size(); ++i) {
      fresh->push_back(fn(i, (*rows_)[i]));
    }
    rows_ = std::move(fresh);
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
 private:
  /// Which nodes carry models and where their states live; replaced only
  /// by Assign, shared by every successor otherwise.
  struct Layout {
    std::vector<NodeId> nodes;          ///< slot -> node
    std::vector<std::uint32_t> slots;   ///< node -> slot or kNoSlot
    std::vector<std::size_t> offsets;   ///< slot -> first state value
  };

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

  /// Writable models for one time advance, from BeginStep; valid until the
  /// table changes.
  class Stepper {
   public:
    /// Number of models.
    std::size_t size() const { return count_; }

    /// Stamps the record of `slot` and calls step(model, node, state,
    /// record) with the model's parameters, node and writable state and
    /// record. Models are independent: different slots may be stepped on
    /// different threads.
    template <typename Step>
    void operator()(std::size_t slot, Step&& step) const {
      // The parameter objects are scattered over the heap: fetch the ones
      // a few slots ahead while this one steps.
      if (slot + 8 < count_) {
        const auto* ahead =
            reinterpret_cast<const char*>(params_[slot + 8].get());
        __builtin_prefetch(ahead);
        __builtin_prefetch(ahead + 64);
      }
      const std::size_t offset = layout_->offsets[slot];
      records_[slot].generation = generation_;
      step(*params_[slot], layout_->nodes[slot],
           std::span<double>(states_ + offset,
                             layout_->offsets[slot + 1] - offset),
           records_[slot]);
    }

   private:
    friend class ModelTable;
    const Layout* layout_ = nullptr;
    const std::shared_ptr<const ForecastModel>* params_ = nullptr;
    double* states_ = nullptr;
    ModelRecord* records_ = nullptr;
    std::uint64_t generation_ = 0;
    std::size_t count_ = 0;
  };

  /// The time-advance step: copies the states and records once (unless
  /// this table already owns them) and returns the stepper that writes
  /// them; the stepper stamps every record it steps.
  Stepper BeginStep();

 private:
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
