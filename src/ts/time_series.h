// TimeSeries: an equidistant sequence of measure values.
//
// In the paper's data model (Section II-A) a base time series is the ordered
// sequence of measure values sharing identical values in all categorical
// dimensions; aggregated time series arise from SUM aggregation over
// categorical dimensions. Both are represented by this container. The time
// axis is a dense integer index (period number); calendar mapping is the
// caller's concern.
//
// Storage is shared and append-only. A TimeSeries is a window (first
// element, length, start time) over reference-counted storage, so copying
// one costs O(1). A standalone series' storage is one buffer with a tip,
// the first slot no copy has claimed yet: Append writes in place when the
// window ends at the tip, claimed with an atomic compare-and-swap, so of
// several copies ending there exactly one extends the buffer and the
// others copy their window into a fresh buffer of twice its length. A
// reader never looks past its own window, so an append through one copy is
// invisible to every other copy, and copies in different threads need no
// lock as long as each copy object is written by one thread at a time.
// DropFront only moves the window. The mutable accessors (non-const
// operator[], AddInPlace) first give the series a private buffer unless it
// already holds the only reference.
//
// A Panel holds the rows of many series (a graph's) in one allocation.
// Panel::Pack makes those series borrowed rows: windows that hold no
// reference of their own, valid while the Panel that packed them (or a copy
// of it) lives, so copying or destroying all of them touches no counter. A
// series copied or moved out of a borrowed row takes its own reference
// through the panel and lives on its own. Rows all end at one column, and a
// panel has one claim for its next column instead of a tip per row: the
// holder that claims it (Panel::ClaimColumn, one compare-and-swap) writes
// that column of every row with plain stores (Panel::AppendColumn, or
// Panel::AdvanceRows into copies of the rows). A panel row never appends on
// its own: Append on any series over a panel copies its window out first.

#ifndef F2DB_TS_TIME_SERIES_H_
#define F2DB_TS_TIME_SERIES_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace f2db {

/// An equidistant univariate time series with a dense integer time axis.
class TimeSeries {
 public:
  class Panel;

  /// Empty series starting at time 0.
  TimeSeries() = default;

  /// Series over `values` with the first observation at `start_time`.
  explicit TimeSeries(std::vector<double> values, std::int64_t start_time = 0);

  /// A copy holds its own reference, also when `other` is a borrowed row.
  TimeSeries(const TimeSeries& other) noexcept;
  TimeSeries& operator=(const TimeSeries& other) noexcept;
  /// A moved-from series is empty, like a moved-from vector. Moving a
  /// borrowed row takes a reference, as copying one does.
  TimeSeries(TimeSeries&& other) noexcept;
  TimeSeries& operator=(TimeSeries&& other) noexcept;
  ~TimeSeries();

  /// Validated construction: rejects NaN/Inf observations with a clear
  /// InvalidArgument naming the offending index. Ingestion boundaries
  /// (engine inserts, CSV loads) go through this; internal trusted code may
  /// keep using the unchecked constructor.
  static Result<TimeSeries> Create(std::vector<double> values,
                                   std::int64_t start_time = 0);

  /// OK when every observation is finite; InvalidArgument naming the first
  /// non-finite index otherwise.
  Status ValidateFinite() const;

  /// Number of observations.
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Time index of the first observation.
  std::int64_t start_time() const { return start_time_; }
  /// Time index one past the last observation.
  std::int64_t end_time() const {
    return start_time_ + static_cast<std::int64_t>(size_);
  }

  /// Observation by position (0-based), not by time index.
  double operator[](std::size_t i) const { return data_[i]; }
  /// Writable observation; detaches from shared storage first. The
  /// reference is valid until the next non-const call on this series;
  /// copies taken while it is held share what is written through it.
  double& operator[](std::size_t i) {
    Detach();
    return data_[i];
  }

  /// Observation at absolute time index t; requires t in range.
  double AtTime(std::int64_t t) const {
    return data_[static_cast<std::size_t>(t - start_time_)];
  }

  /// The observations, oldest first.
  std::span<const double> values() const { return {data_, size_}; }

  /// The observations copied into a vector (for vector-taking helpers).
  std::vector<double> ToVector() const { return {data_, data_ + size_}; }

  /// Appends one observation at the next time index: in place when this
  /// window ends at its standalone buffer's tip, otherwise into a private
  /// copy with room to grow. Amortized O(1).
  void Append(double value);

  /// Drops the oldest `count` observations (clamped to size()) and moves
  /// start_time forward accordingly — the retention primitive: the series
  /// keeps its identity and time axis but forgets its oldest history.
  /// O(1): only the window moves.
  void DropFront(std::size_t count);

  /// Sum over the whole history (the h_s of Eq. 2 in the paper).
  double Sum() const;

  /// Arithmetic mean of the history.
  double Mean() const;

  /// Sub-series of `count` observations starting at position `begin`, in
  /// storage of its own: a short slice of a long history does not keep the
  /// whole history alive or spread its reads over it.
  TimeSeries Slice(std::size_t begin, std::size_t count) const;

  /// First `count` observations.
  TimeSeries Head(std::size_t count) const { return Slice(0, count); }

  /// Last `count` observations.
  TimeSeries Tail(std::size_t count) const;

  /// Splits into (train, test) where train holds `train_fraction` of the
  /// observations (at least one observation in each part when size >= 2).
  std::pair<TimeSeries, TimeSeries> TrainTestSplit(double train_fraction) const;

  /// Element-wise sum of `series` (all equal length & start). Implements the
  /// SUM aggregation function of the paper's data model.
  static Result<TimeSeries> SumOf(const std::vector<const TimeSeries*>& series);

  /// Element-wise in-place addition; requires matching length & start.
  Status AddInPlace(const TimeSeries& other);

  /// Compact rendering for diagnostics.
  std::string ToString() const;

 private:
  /// Reference-counted storage: one standalone buffer or one panel.
  struct Storage;

  /// Drops one reference; the last one frees the storage.
  static void Release(Storage* storage);
  /// Becomes a copy of `other` that holds a reference of its own.
  void TakeCopy(const TimeSeries& other);
  /// Becomes a borrowed copy of the borrowed row `row`.
  void TakeBorrowed(const TimeSeries& row);
  /// Claims the slot after the window in a standalone buffer; false when
  /// the window does not end at the tip, the buffer is full, or the
  /// storage is a panel.
  bool TryClaimNext();
  /// Moves the window into a fresh, private buffer of `capacity` slots.
  void Reallocate(std::size_t capacity);
  /// Reallocates unless this series holds the only storage reference.
  void Detach();

  Storage* storage_ = nullptr;  ///< null for a series that never had data
  double* data_ = nullptr;      ///< first observation of the window
  std::size_t size_ = 0;
  std::int64_t start_time_ = 0;
  /// A panel row that holds no reference (see Panel::Pack).
  bool borrowed_ = false;
};

/// One reference to a panel: fixed-capacity rows of many series in one
/// allocation, all ending at one column, with one claim for the next
/// column (see the file comment). Copying a Panel is one increment.
class TimeSeries::Panel {
 public:
  /// No panel.
  Panel() = default;
  Panel(const Panel& other) noexcept;
  Panel& operator=(const Panel& other) noexcept;
  Panel(Panel&& other) noexcept;
  Panel& operator=(Panel&& other) noexcept;
  ~Panel();

  /// Moves the windows of `rows`, all of one length, into a fresh panel of
  /// `capacity` slots per row (at least that length) and makes them
  /// borrowed rows of it, valid while the returned panel or a copy of it
  /// lives; a reference a row held is released. Columns up to the rows'
  /// length count as claimed.
  static Panel Pack(std::span<TimeSeries> rows, std::size_t capacity);

  explicit operator bool() const { return storage_ != nullptr; }
  bool operator==(const Panel& other) const {
    return storage_ == other.storage_;
  }

  /// Claims `column`, the column the holder's rows end at, for appending:
  /// true for exactly one caller per column, and only while the panel has
  /// room; false when another holder claimed it first or the panel is full.
  bool ClaimColumn(std::size_t column) const;

  /// Constructs to[i], uninitialized storage, as a copy of from[i] that
  /// borrows when from[i] is a borrowed row (valid while the caller holds
  /// its panel) and holds a reference otherwise.
  static void CopyRows(std::span<const TimeSeries> from, TimeSeries* to);

  /// Stores values[i] after the window of rows[i], borrowed rows ending at
  /// a column the caller claimed, with plain stores. Fetches the rows' next
  /// slots ahead of the writes, so the column does not wait out one cache
  /// miss per row.
  static void AppendColumn(std::span<TimeSeries> rows,
                           std::span<const double> values);

  /// AppendColumn into copies: constructs to[i], uninitialized storage, as
  /// a borrowed copy of from[i] with values[i] appended; from[i] is left as
  /// it was.
  static void AdvanceRows(std::span<const TimeSeries> from, TimeSeries* to,
                          std::span<const double> values);

 private:
  explicit Panel(Storage* storage) : storage_(storage) {}

  Storage* storage_ = nullptr;
};

}  // namespace f2db

#endif  // F2DB_TS_TIME_SERIES_H_
