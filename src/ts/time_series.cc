#include "ts/time_series.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <memory>
#include <new>
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

struct TimeSeries::Storage {
  std::atomic<std::size_t> refs{1};
  /// Standalone: the slots some copy has claimed. Panel: the columns some
  /// holder has claimed.
  std::atomic<std::size_t> tip{0};
  /// Slots of the buffer, or per row of the panel.
  std::size_t capacity = 0;
  /// The standalone buffer; empty for a panel.
  std::vector<double> slots;
  /// The panel's rows, `rows_per_block` consecutive rows per block.
  std::vector<std::unique_ptr<double[]>> blocks;
};

void TimeSeries::Release(Storage* storage) {
  if (storage != nullptr &&
      storage->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    delete storage;
  }
}

TimeSeries::TimeSeries(std::vector<double> values, std::int64_t start_time)
    : size_(values.size()), start_time_(start_time) {
  if (values.empty()) return;
  // The vector's spare capacity becomes unclaimed slots past the tip.
  values.resize(values.capacity());
  storage_ = new Storage;
  storage_->tip.store(size_, std::memory_order_relaxed);
  storage_->capacity = values.size();
  storage_->slots = std::move(values);
  data_ = storage_->slots.data();
}

TimeSeries::TimeSeries(const TimeSeries& other) noexcept { TakeCopy(other); }

TimeSeries& TimeSeries::operator=(const TimeSeries& other) noexcept {
  if (this != &other) {
    Storage* old = borrowed_ ? nullptr : storage_;
    TakeCopy(other);
    Release(old);
  }
  return *this;
}

TimeSeries::TimeSeries(TimeSeries&& other) noexcept
    : storage_(std::exchange(other.storage_, nullptr)),
      data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)),
      start_time_(other.start_time_) {
  if (std::exchange(other.borrowed_, false) && storage_ != nullptr) {
    storage_->refs.fetch_add(1, std::memory_order_relaxed);
  }
}

TimeSeries& TimeSeries::operator=(TimeSeries&& other) noexcept {
  if (this != &other) {
    if (!borrowed_) Release(storage_);
    storage_ = std::exchange(other.storage_, nullptr);
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
    start_time_ = other.start_time_;
    borrowed_ = false;
    if (std::exchange(other.borrowed_, false) && storage_ != nullptr) {
      storage_->refs.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return *this;
}

TimeSeries::~TimeSeries() {
  if (!borrowed_) Release(storage_);
}

void TimeSeries::TakeCopy(const TimeSeries& other) {
  storage_ = other.storage_;
  data_ = other.data_;
  size_ = other.size_;
  start_time_ = other.start_time_;
  borrowed_ = false;
  if (storage_ != nullptr) {
    storage_->refs.fetch_add(1, std::memory_order_relaxed);
  }
}

void TimeSeries::TakeBorrowed(const TimeSeries& row) {
  assert(row.borrowed_);
  if (!borrowed_) Release(storage_);
  storage_ = row.storage_;
  data_ = row.data_;
  size_ = row.size_;
  start_time_ = row.start_time_;
  borrowed_ = true;
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

bool TimeSeries::TryClaimNext() {
  if (storage_ == nullptr || storage_->slots.empty()) return false;
  std::size_t end =
      static_cast<std::size_t>(data_ - storage_->slots.data()) + size_;
  // Succeeds only for the one copy whose window ends at the tip, so no two
  // copies ever write the same slot.
  return end < storage_->capacity &&
         storage_->tip.compare_exchange_strong(end, end + 1);
}

void TimeSeries::Append(double value) {
  if (!TryClaimNext()) {
    Reallocate(std::max(2 * size_, kMinCapacity));
    storage_->tip.store(size_ + 1, std::memory_order_relaxed);
  }
  data_[size_++] = value;
}

void TimeSeries::Reallocate(std::size_t capacity) {
  assert(capacity >= size_);
  std::vector<double> slots(capacity);
  std::copy(data_, data_ + size_, slots.begin());
  Storage* old = borrowed_ ? nullptr : storage_;
  storage_ = new Storage;
  storage_->tip.store(size_, std::memory_order_relaxed);
  storage_->capacity = capacity;
  storage_->slots = std::move(slots);
  data_ = storage_->slots.data();
  borrowed_ = false;
  Release(old);
}

TimeSeries::Panel::Panel(const Panel& other) noexcept
    : storage_(other.storage_) {
  if (storage_ != nullptr) {
    storage_->refs.fetch_add(1, std::memory_order_relaxed);
  }
}

TimeSeries::Panel& TimeSeries::Panel::operator=(const Panel& other) noexcept {
  if (this != &other) {
    if (other.storage_ != nullptr) {
      other.storage_->refs.fetch_add(1, std::memory_order_relaxed);
    }
    Release(storage_);
    storage_ = other.storage_;
  }
  return *this;
}

TimeSeries::Panel::Panel(Panel&& other) noexcept
    : storage_(std::exchange(other.storage_, nullptr)) {}

TimeSeries::Panel& TimeSeries::Panel::operator=(Panel&& other) noexcept {
  if (this != &other) {
    Release(storage_);
    storage_ = std::exchange(other.storage_, nullptr);
  }
  return *this;
}

TimeSeries::Panel::~Panel() { Release(storage_); }

TimeSeries::Panel TimeSeries::Panel::Pack(std::span<TimeSeries> rows,
                                          std::size_t capacity) {
  const std::size_t length = rows.empty() ? 0 : rows[0].size_;
  assert(capacity >= length);
  const std::size_t rows_per_block = std::max<std::size_t>(
      kPanelBlockBytes / (std::max<std::size_t>(capacity, 1) * sizeof(double)),
      1);
  Panel panel(new Storage);
  Storage& storage = *panel.storage_;
  storage.tip.store(length, std::memory_order_relaxed);
  storage.capacity = capacity;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (i % rows_per_block == 0) {
      storage.blocks.emplace_back(
          new double[std::min(rows_per_block, rows.size() - i) * capacity]);
    }
    TimeSeries& row = rows[i];
    assert(row.size_ == length);
    double* slots =
        storage.blocks.back().get() + (i % rows_per_block) * capacity;
    std::copy(row.data_, row.data_ + row.size_, slots);
    if (!row.borrowed_) Release(row.storage_);
    row.storage_ = &storage;
    row.data_ = slots;
    row.borrowed_ = true;
  }
  return panel;
}

bool TimeSeries::Panel::ClaimColumn(std::size_t column) const {
  std::size_t expected = column;
  return column < storage_->capacity &&
         storage_->tip.compare_exchange_strong(expected, column + 1);
}

void TimeSeries::Panel::CopyRows(std::span<const TimeSeries> from,
                                 TimeSeries* to) {
  for (std::size_t i = 0; i < from.size(); ++i) {
    if (from[i].borrowed_) {
      (::new (static_cast<void*>(to + i)) TimeSeries)->TakeBorrowed(from[i]);
    } else {
      ::new (static_cast<void*>(to + i)) TimeSeries(from[i]);
    }
  }
}

namespace {

/// Calls write(i) for every row, fetching the slot after rows[i]'s window
/// kAhead rows before the write.
template <typename Next, typename Write>
void ForEachRowFetchingAhead(std::size_t count, Next next_slot, Write write) {
  constexpr std::size_t kAhead = 16;  // rows between a fetch and its write
  for (std::size_t i = 0; i < std::min(kAhead, count); ++i) {
    __builtin_prefetch(next_slot(i), 1);
  }
  for (std::size_t i = 0; i < count; ++i) {
    if (i + kAhead < count) __builtin_prefetch(next_slot(i + kAhead), 1);
    write(i);
  }
}

}  // namespace

void TimeSeries::Panel::AppendColumn(std::span<TimeSeries> rows,
                                     std::span<const double> values) {
  ForEachRowFetchingAhead(
      rows.size(),
      [rows](std::size_t i) { return rows[i].data_ + rows[i].size_; },
      [rows, values](std::size_t i) {
        TimeSeries& row = rows[i];
        assert(row.borrowed_);
        row.data_[row.size_++] = values[i];
      });
}

void TimeSeries::Panel::AdvanceRows(std::span<const TimeSeries> from,
                                    TimeSeries* to,
                                    std::span<const double> values) {
  ForEachRowFetchingAhead(
      from.size(),
      [from](std::size_t i) { return from[i].data_ + from[i].size_; },
      [from, to, values](std::size_t i) {
        TimeSeries& row = *::new (static_cast<void*>(to + i)) TimeSeries;
        row.TakeBorrowed(from[i]);
        row.data_[row.size_++] = values[i];
      });
}

void TimeSeries::Detach() {
  if (size_ > 0 &&
      (borrowed_ || storage_->refs.load(std::memory_order_acquire) > 1)) {
    Reallocate(size_);
  }
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
