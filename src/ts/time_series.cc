#include "ts/time_series.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <sstream>
#include <utility>

namespace f2db {
namespace {

/// Slots of the first buffer an append to an empty series allocates.
constexpr std::size_t kMinCapacity = 8;

/// Upper bound on one block of a panel's slots (unless a single row is
/// larger). Blocks this small come from the allocator's heap and reuse the
/// memory earlier series released, where one block per panel would be a
/// fresh mapping every time a panel regrows.
constexpr std::size_t kPanelBlockBytes = 64 * 1024;

}  // namespace

struct TimeSeries::Owned {
  Owned(std::vector<double> values, std::size_t claimed)
      : storage(std::move(values)) {
    buffer.slots = storage.data();
    buffer.capacity = storage.size();
    buffer.tip.store(claimed, std::memory_order_relaxed);
  }
  Buffer buffer;
  std::vector<double> storage;
};

struct TimeSeries::Panel {
  /// `rows` rows of `capacity` slots, `rows_per_block` rows per block.
  Panel(std::size_t rows, std::size_t capacity, std::size_t rows_per_block)
      : buffers(new Buffer[rows]) {
    for (std::size_t first = 0; first < rows; first += rows_per_block) {
      const std::size_t count = std::min(rows_per_block, rows - first);
      blocks.emplace_back(new double[count * capacity]);
      for (std::size_t i = 0; i < count; ++i) {
        buffers[first + i].slots = blocks.back().get() + i * capacity;
        buffers[first + i].capacity = capacity;
      }
    }
  }
  std::unique_ptr<Buffer[]> buffers;
  std::vector<std::unique_ptr<double[]>> blocks;
};

TimeSeries::TimeSeries(std::vector<double> values, std::int64_t start_time)
    : size_(values.size()), start_time_(start_time) {
  if (values.empty()) return;
  // The vector's spare capacity becomes unclaimed slots past the tip.
  values.resize(values.capacity());
  auto owned = std::make_shared<Owned>(std::move(values), size_);
  buffer_ = std::shared_ptr<Buffer>(owned, &owned->buffer);
  data_ = buffer_->slots;
}

TimeSeries::TimeSeries(TimeSeries&& other) noexcept
    : buffer_(std::move(other.buffer_)),
      data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)),
      start_time_(other.start_time_) {}

TimeSeries& TimeSeries::operator=(TimeSeries&& other) noexcept {
  if (this != &other) {
    buffer_ = std::move(other.buffer_);
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
    start_time_ = other.start_time_;
  }
  return *this;
}

Result<TimeSeries> TimeSeries::Create(std::vector<double> values,
                                      std::int64_t start_time) {
  TimeSeries out(std::move(values), start_time);
  F2DB_RETURN_IF_ERROR(out.ValidateFinite());
  return out;
}

Status TimeSeries::ValidateFinite() const {
  for (std::size_t i = 0; i < size_; ++i) {
    if (!std::isfinite(data_[i])) {
      return Status::InvalidArgument(
          "non-finite observation at index " + std::to_string(i) +
          " (time " + std::to_string(start_time_ + static_cast<std::int64_t>(i)) +
          ")");
    }
  }
  return Status::OK();
}

bool TimeSeries::TryAppend(double value) {
  return TryAppend(std::span<const double>(&value, 1));
}

bool TimeSeries::TryAppend(std::span<const double> values) {
  if (values.empty()) return true;
  if (!buffer_) return false;
  std::size_t end = static_cast<std::size_t>(data_ - buffer_->slots) + size_;
  // Claim the slots from `end` on: succeeds only for the one copy whose
  // window ends at the tip, so no two copies ever write the same slot.
  if (end + values.size() <= buffer_->capacity &&
      buffer_->tip.compare_exchange_strong(end, end + values.size())) {
    std::copy(values.begin(), values.end(), data_ + size_);
    size_ += values.size();
    return true;
  }
  return false;
}

std::size_t TimeSeries::TryAppendEach(std::span<TimeSeries> rows,
                                      std::span<const double> values) {
  constexpr std::size_t kAhead = 16;  // rows between a fetch and its write
  const auto fetch = [](const TimeSeries& row) {
    if (row.data_ != nullptr) __builtin_prefetch(row.data_ + row.size_, 1);
  };
  for (std::size_t i = 0; i < std::min(kAhead, rows.size()); ++i) {
    fetch(rows[i]);
  }
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (i + kAhead < rows.size()) fetch(rows[i + kAhead]);
    if (!rows[i].TryAppend(values[i])) return i;
  }
  return rows.size();
}

void TimeSeries::Append(double value) {
  if (TryAppend(value)) return;
  Reallocate(std::max(2 * size_, kMinCapacity));
  buffer_->tip.store(size_ + 1);
  data_[size_++] = value;
}

void TimeSeries::Reallocate(std::size_t capacity) {
  assert(capacity >= size_);
  std::vector<double> slots(capacity);
  std::copy(data_, data_ + size_, slots.begin());
  auto owned = std::make_shared<Owned>(std::move(slots), size_);
  buffer_ = std::shared_ptr<Buffer>(owned, &owned->buffer);
  data_ = buffer_->slots;
}

void TimeSeries::Pack(std::span<TimeSeries* const> rows,
                      std::size_t capacity) {
  const std::size_t row_bytes =
      std::max<std::size_t>(capacity, 1) * sizeof(double);
  auto panel = std::make_shared<Panel>(
      rows.size(), capacity,
      std::max<std::size_t>(kPanelBlockBytes / row_bytes, 1));
  for (std::size_t i = 0; i < rows.size(); ++i) {
    TimeSeries& row = *rows[i];
    assert(row.size_ <= capacity);
    Buffer& buffer = panel->buffers[i];
    buffer.tip.store(row.size_, std::memory_order_relaxed);
    std::copy(row.data_, row.data_ + row.size_, buffer.slots);
    row.buffer_ = std::shared_ptr<Buffer>(panel, &buffer);
    row.data_ = buffer.slots;
  }
}

void TimeSeries::Detach() {
  if (size_ > 0 && buffer_.use_count() > 1) Reallocate(size_);
}

void TimeSeries::DropFront(std::size_t count) {
  count = std::min(count, size_);
  if (count == 0) return;
  data_ += count;
  size_ -= count;
  start_time_ += static_cast<std::int64_t>(count);
}

double TimeSeries::Sum() const {
  double sum = 0.0;
  for (double v : values()) sum += v;
  return sum;
}

double TimeSeries::Mean() const {
  if (size_ == 0) return 0.0;
  return Sum() / static_cast<double>(size_);
}

TimeSeries TimeSeries::Slice(std::size_t begin, std::size_t count) const {
  assert(begin <= size_);
  count = std::min(count, size_ - begin);
  return TimeSeries(std::vector<double>(data_ + begin, data_ + begin + count),
                    start_time_ + static_cast<std::int64_t>(begin));
}

TimeSeries TimeSeries::Tail(std::size_t count) const {
  count = std::min(count, size_);
  return Slice(size_ - count, count);
}

std::pair<TimeSeries, TimeSeries> TimeSeries::TrainTestSplit(
    double train_fraction) const {
  train_fraction = std::clamp(train_fraction, 0.0, 1.0);
  std::size_t train_count = static_cast<std::size_t>(
      train_fraction * static_cast<double>(size_));
  if (size_ >= 2) {
    train_count = std::clamp<std::size_t>(train_count, 1, size_ - 1);
  }
  return {Head(train_count), Slice(train_count, size_ - train_count)};
}

Result<TimeSeries> TimeSeries::SumOf(
    const std::vector<const TimeSeries*>& series) {
  if (series.empty()) return Status::InvalidArgument("SumOf: no inputs");
  TimeSeries out = *series[0];
  for (std::size_t i = 1; i < series.size(); ++i) {
    F2DB_RETURN_IF_ERROR(out.AddInPlace(*series[i]));
  }
  return out;
}

Status TimeSeries::AddInPlace(const TimeSeries& other) {
  if (other.size() != size() || other.start_time() != start_time()) {
    return Status::InvalidArgument(
        "AddInPlace: series are not aligned (size " + std::to_string(size()) +
        " vs " + std::to_string(other.size()) + ")");
  }
  Detach();
  for (std::size_t i = 0; i < size_; ++i) data_[i] += other.data_[i];
  return Status::OK();
}

std::string TimeSeries::ToString() const {
  std::ostringstream out;
  out << "TimeSeries(t0=" << start_time_ << ", n=" << size_ << ", [";
  const std::size_t show = std::min<std::size_t>(size_, 8);
  for (std::size_t i = 0; i < show; ++i) {
    if (i > 0) out << ", ";
    out << data_[i];
  }
  if (size_ > show) out << ", ...";
  out << "])";
  return out.str();
}

}  // namespace f2db
