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
// element, length, start time) over a reference-counted buffer, so copying
// one costs O(1). Append writes in place when the window ends at the
// buffer's tip, the first slot no copy has claimed yet; the slot is claimed
// with an atomic compare-and-swap, so of several copies ending at the tip
// exactly one extends the buffer and the others copy their window into a
// fresh buffer of twice its length. A reader never looks past its own
// window, so an append through one copy is invisible to every other copy,
// and copies in different threads need no lock as long as each copy
// object is written by one thread at a time. DropFront only moves the
// window. The mutable accessors (non-const operator[], AddInPlace) first
// give the series a private buffer unless it already holds the only
// reference.
//
// A buffer is a run of slots plus its tip; who owns the slots is hidden
// behind the buffer's reference count. A standalone series owns its own
// storage. Pack moves many series into one panel: one fixed-capacity row
// per series, all under a single reference count, so copying or releasing
// all of them touches one counter.

#ifndef F2DB_TS_TIME_SERIES_H_
#define F2DB_TS_TIME_SERIES_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"

namespace f2db {

/// An equidistant univariate time series with a dense integer time axis.
class TimeSeries {
 public:
  /// Empty series starting at time 0.
  TimeSeries() = default;

  /// Series over `values` with the first observation at `start_time`.
  explicit TimeSeries(std::vector<double> values, std::int64_t start_time = 0);

  TimeSeries(const TimeSeries&) = default;
  TimeSeries& operator=(const TimeSeries&) = default;
  /// A moved-from series is empty, like a moved-from vector.
  TimeSeries(TimeSeries&& other) noexcept;
  TimeSeries& operator=(TimeSeries&& other) noexcept;

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
  /// window ends at the buffer's tip, otherwise into a private copy with
  /// room to grow. Amortized O(1).
  void Append(double value);

  /// Appends in place when this window ends at the buffer's tip and the
  /// buffer has a free slot; returns false and changes nothing otherwise.
  bool TryAppend(double value);
  /// TryAppend of all `values` at once: in place when every one fits.
  bool TryAppend(std::span<const double> values);

  /// TryAppend(values[i]) on rows[i] for i = 0, 1, ... until a row cannot
  /// append in place; returns how many rows appended. Fetches the rows'
  /// next slots ahead of the writes, so appending one column to many rows
  /// does not wait out one cache miss per row.
  static std::size_t TryAppendEach(std::span<TimeSeries> rows,
                                   std::span<const double> values);

  /// Moves the windows of `rows` into one new panel with `capacity` slots
  /// per row (at least every row's length). Each row keeps its values and
  /// start time and may append in place until its row is full.
  static void Pack(std::span<TimeSeries* const> rows, std::size_t capacity);

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
  /// Fixed-capacity storage shared by every copy of a series: `capacity`
  /// slots at `slots`, of which the first `tip` some copy has claimed. The
  /// owner of the slots (a standalone vector or a panel) holds the Buffer;
  /// series reference it through an aliasing pointer to the owner.
  struct Buffer {
    double* slots = nullptr;
    std::size_t capacity = 0;
    std::atomic<std::size_t> tip{0};
  };
  struct Owned;  ///< one standalone series' storage
  struct Panel;  ///< many series' rows in one allocation

  /// Moves the window into a fresh, private buffer of `capacity` slots.
  void Reallocate(std::size_t capacity);
  /// Reallocates unless this series holds the only buffer reference.
  void Detach();

  std::shared_ptr<Buffer> buffer_;
  double* data_ = nullptr;  ///< first observation of the window
  std::size_t size_ = 0;
  std::int64_t start_time_ = 0;
};

}  // namespace f2db

#endif  // F2DB_TS_TIME_SERIES_H_
