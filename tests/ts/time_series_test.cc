#include "ts/time_series.h"

#include <gtest/gtest.h>

#include <limits>
#include <optional>
#include <span>
#include <thread>
#include <vector>

namespace f2db {
namespace {

TEST(TimeSeries, EmptyDefaults) {
  TimeSeries ts;
  EXPECT_TRUE(ts.empty());
  EXPECT_EQ(ts.size(), 0u);
  EXPECT_EQ(ts.start_time(), 0);
  EXPECT_EQ(ts.end_time(), 0);
  EXPECT_DOUBLE_EQ(ts.Sum(), 0.0);
  EXPECT_DOUBLE_EQ(ts.Mean(), 0.0);
}

TEST(TimeSeries, BasicAccessors) {
  TimeSeries ts({1, 2, 3}, 10);
  EXPECT_EQ(ts.size(), 3u);
  EXPECT_EQ(ts.start_time(), 10);
  EXPECT_EQ(ts.end_time(), 13);
  EXPECT_DOUBLE_EQ(ts[1], 2.0);
  EXPECT_DOUBLE_EQ(ts.AtTime(12), 3.0);
  EXPECT_DOUBLE_EQ(ts.Sum(), 6.0);
  EXPECT_DOUBLE_EQ(ts.Mean(), 2.0);
}

TEST(TimeSeries, AppendExtendsEndTime) {
  TimeSeries ts({1}, 5);
  ts.Append(2);
  EXPECT_EQ(ts.end_time(), 7);
  EXPECT_DOUBLE_EQ(ts.AtTime(6), 2.0);
}

TEST(TimeSeries, SliceKeepsTimeAxis) {
  TimeSeries ts({0, 1, 2, 3, 4}, 100);
  const TimeSeries mid = ts.Slice(1, 3);
  EXPECT_EQ(mid.size(), 3u);
  EXPECT_EQ(mid.start_time(), 101);
  EXPECT_DOUBLE_EQ(mid[0], 1.0);
}

TEST(TimeSeries, SliceClampsCount) {
  TimeSeries ts({0, 1, 2}, 0);
  EXPECT_EQ(ts.Slice(2, 100).size(), 1u);
  EXPECT_EQ(ts.Slice(3, 1).size(), 0u);
}

TEST(TimeSeries, HeadTail) {
  TimeSeries ts({0, 1, 2, 3}, 0);
  EXPECT_EQ(ts.Head(2).size(), 2u);
  EXPECT_DOUBLE_EQ(ts.Head(2)[1], 1.0);
  const TimeSeries tail = ts.Tail(2);
  EXPECT_DOUBLE_EQ(tail[0], 2.0);
  EXPECT_EQ(tail.start_time(), 2);
  EXPECT_EQ(ts.Tail(100).size(), 4u);
}

TEST(TimeSeries, TrainTestSplitFractions) {
  TimeSeries ts(std::vector<double>(10, 1.0), 0);
  const auto [train, test] = ts.TrainTestSplit(0.8);
  EXPECT_EQ(train.size(), 8u);
  EXPECT_EQ(test.size(), 2u);
  EXPECT_EQ(test.start_time(), 8);
}

TEST(TimeSeries, TrainTestSplitAlwaysNonEmptyPartsWhenPossible) {
  TimeSeries ts({1, 2}, 0);
  const auto [train0, test0] = ts.TrainTestSplit(0.0);
  EXPECT_EQ(train0.size(), 1u);
  EXPECT_EQ(test0.size(), 1u);
  const auto [train1, test1] = ts.TrainTestSplit(1.0);
  EXPECT_EQ(train1.size(), 1u);
  EXPECT_EQ(test1.size(), 1u);
}

TEST(TimeSeries, SumOfAlignedSeries) {
  TimeSeries a({1, 2}, 0), b({10, 20}, 0);
  auto sum = TimeSeries::SumOf({&a, &b});
  ASSERT_TRUE(sum.ok());
  EXPECT_DOUBLE_EQ(sum.value()[0], 11.0);
  EXPECT_DOUBLE_EQ(sum.value()[1], 22.0);
}

TEST(TimeSeries, SumOfRejectsMisaligned) {
  TimeSeries a({1, 2}, 0), b({10, 20}, 1);
  EXPECT_FALSE(TimeSeries::SumOf({&a, &b}).ok());
  TimeSeries c({1}, 0);
  EXPECT_FALSE(TimeSeries::SumOf({&a, &c}).ok());
  EXPECT_FALSE(TimeSeries::SumOf({}).ok());
}

TEST(TimeSeries, AddInPlace) {
  TimeSeries a({1, 2}, 0), b({3, 4}, 0);
  ASSERT_TRUE(a.AddInPlace(b).ok());
  EXPECT_DOUBLE_EQ(a[0], 4.0);
  EXPECT_DOUBLE_EQ(a[1], 6.0);
}

TEST(TimeSeries, ToStringTruncatesLongSeries) {
  TimeSeries ts(std::vector<double>(20, 1.0), 0);
  EXPECT_NE(ts.ToString().find("..."), std::string::npos);
}

TEST(TimeSeries, CreateAcceptsFiniteValues) {
  auto ts = TimeSeries::Create({1.0, -2.5, 0.0}, 5);
  ASSERT_TRUE(ts.ok());
  EXPECT_EQ(ts.value().size(), 3u);
  EXPECT_EQ(ts.value().start_time(), 5);
}

TEST(TimeSeries, CreateRejectsNonFiniteValues) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  auto with_nan = TimeSeries::Create({1.0, nan, 3.0});
  ASSERT_FALSE(with_nan.ok());
  EXPECT_EQ(with_nan.status().code(), StatusCode::kInvalidArgument);
  // The error names the offending index.
  EXPECT_NE(with_nan.status().message().find("index 1"), std::string::npos);
  EXPECT_FALSE(TimeSeries::Create({inf}).ok());
  EXPECT_FALSE(TimeSeries::Create({-inf, 0.0}).ok());
}

TEST(TimeSeries, ValidateFiniteFlagsPoisonedSeries) {
  TimeSeries clean({1.0, 2.0}, 0);
  EXPECT_TRUE(clean.ValidateFinite().ok());
  TimeSeries dirty({1.0, std::numeric_limits<double>::quiet_NaN()}, 0);
  EXPECT_EQ(dirty.ValidateFinite().code(), StatusCode::kInvalidArgument);
}


// ---- shared append-only storage: copies are O(1) views of one buffer ----

std::vector<double> Values(const TimeSeries& ts) { return ts.ToVector(); }

TEST(TimeSeries, AppendOnOneCopyIsInvisibleToTheOther) {
  TimeSeries original({1, 2, 3}, 10);
  const TimeSeries pinned = original;
  original.Append(4);
  original.Append(5);
  EXPECT_EQ(Values(original), (std::vector<double>{1, 2, 3, 4, 5}));
  EXPECT_EQ(Values(pinned), (std::vector<double>{1, 2, 3}));
  EXPECT_EQ(pinned.end_time(), 13);
  // A copy taken after the appends sees them, and so does its own copy.
  const TimeSeries later = original;
  EXPECT_EQ(Values(later), Values(original));
}

TEST(TimeSeries, CopiesAppendingDivergeCorrectly) {
  TimeSeries a({1, 2}, 0);
  TimeSeries b = a;
  a.Append(10);  // claims the shared tip
  b.Append(20);  // loses the claim: copies its window, then appends
  a.Append(11);
  b.Append(21);
  EXPECT_EQ(Values(a), (std::vector<double>{1, 2, 10, 11}));
  EXPECT_EQ(Values(b), (std::vector<double>{1, 2, 20, 21}));
  // b now owns a buffer of its own; a copy of b claims that buffer's tip
  // and b, appending next, copies in turn.
  TimeSeries c = b;
  c.Append(30);
  b.Append(22);
  EXPECT_EQ(Values(c), (std::vector<double>{1, 2, 20, 21, 30}));
  EXPECT_EQ(Values(b), (std::vector<double>{1, 2, 20, 21, 22}));
  EXPECT_EQ(Values(a), (std::vector<double>{1, 2, 10, 11}));
}

TEST(TimeSeries, ManyAppendsThroughCopiesKeepEveryVersion) {
  // One writer appending through successive copies (the engine's
  // publication chain) while every earlier version stays readable.
  std::vector<TimeSeries> versions{TimeSeries({0.0}, 0)};
  for (int i = 1; i < 200; ++i) {
    TimeSeries next = versions.back();
    next.Append(static_cast<double>(i));
    versions.push_back(std::move(next));
  }
  for (std::size_t v = 0; v < versions.size(); ++v) {
    ASSERT_EQ(versions[v].size(), v + 1);
    for (std::size_t i = 0; i <= v; ++i) {
      ASSERT_EQ(versions[v][i], static_cast<double>(i));
    }
  }
}

TEST(TimeSeries, DropFrontThenAppend) {
  TimeSeries ts({1, 2, 3, 4}, 100);
  const TimeSeries pinned = ts;
  ts.DropFront(3);
  EXPECT_EQ(ts.start_time(), 103);
  ts.Append(5);
  ts.Append(6);
  EXPECT_EQ(Values(ts), (std::vector<double>{4, 5, 6}));
  EXPECT_DOUBLE_EQ(ts.AtTime(105), 6.0);
  EXPECT_EQ(Values(pinned), (std::vector<double>{1, 2, 3, 4}));
  ts.DropFront(100);  // clamps: empty, time axis moved to the end
  EXPECT_TRUE(ts.empty());
  EXPECT_EQ(ts.start_time(), 106);
  ts.Append(7);
  EXPECT_EQ(Values(ts), (std::vector<double>{7}));
  EXPECT_EQ(ts.start_time(), 106);
}

TEST(TimeSeries, AddInPlaceDetachesFromCopies) {
  TimeSeries a({1, 2}, 0);
  const TimeSeries copy = a;
  ASSERT_TRUE(a.AddInPlace(TimeSeries({10, 20}, 0)).ok());
  EXPECT_EQ(Values(a), (std::vector<double>{11, 22}));
  EXPECT_EQ(Values(copy), (std::vector<double>{1, 2}));
  // Adding a series to itself (shared buffer, sole owner) doubles it.
  ASSERT_TRUE(a.AddInPlace(a).ok());
  EXPECT_EQ(Values(a), (std::vector<double>{22, 44}));
}

TEST(TimeSeries, MutableIndexDetachesFromCopies) {
  TimeSeries a({1, 2, 3}, 0);
  const TimeSeries copy = a;
  a[1] = 50;
  EXPECT_EQ(Values(a), (std::vector<double>{1, 50, 3}));
  EXPECT_EQ(Values(copy), (std::vector<double>{1, 2, 3}));
  // The detached series appends on its own buffer.
  a.Append(4);
  EXPECT_EQ(Values(a), (std::vector<double>{1, 50, 3, 4}));
  EXPECT_EQ(Values(copy), (std::vector<double>{1, 2, 3}));
}

TEST(TimeSeries, MovedFromSeriesIsEmpty) {
  TimeSeries a({1, 2}, 5);
  TimeSeries b = std::move(a);
  EXPECT_EQ(Values(b), (std::vector<double>{1, 2}));
  EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move): defined here
  a.Append(3);
  EXPECT_EQ(Values(a), (std::vector<double>{3}));
  EXPECT_EQ(Values(b), (std::vector<double>{1, 2}));
}

TEST(TimeSeries, ConcurrentCopiesAppendWithoutSharingASlot) {
  // Threads race to extend copies of one series: exactly one claims each
  // slot of the shared buffer, the others copy; every result is exact.
  constexpr int kThreads = 4;
  constexpr int kAppends = 500;
  TimeSeries grown({1, 2}, 0);
  grown.Append(3);  // reallocates with spare slots past the tip
  const TimeSeries base = grown;
  std::vector<TimeSeries> results(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&base, &results, t] {
      TimeSeries mine = base;
      for (int i = 0; i < kAppends; ++i) mine.Append(t * 1000.0 + i);
      results[t] = std::move(mine);
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(Values(base), (std::vector<double>{1, 2, 3}));
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(results[t].size(), 3u + kAppends);
    for (int i = 0; i < kAppends; ++i) {
      ASSERT_EQ(results[t][3 + i], t * 1000.0 + i) << "thread " << t;
    }
  }
}

// ---- panels: rows that borrow one reference and share one column claim ----

/// Three rows of four observations each, the k-th row counting from 10*k.
std::vector<TimeSeries> ThreeRows() {
  std::vector<TimeSeries> rows;
  for (int k = 0; k < 3; ++k) {
    rows.emplace_back(std::vector<double>{10.0 * k, 10.0 * k + 1,
                                          10.0 * k + 2, 10.0 * k + 3},
                      5);
  }
  return rows;
}

TEST(TimeSeries, RowsCopiedOutOfAPanelOutliveIt) {
  // Packed rows hold no reference: the panel holds the only one. A copy of
  // a row takes a reference of its own, so it stays readable (under
  // AddressSanitizer: stays allocated) after the panel is gone.
  std::vector<TimeSeries> rows = ThreeRows();
  TimeSeries copied;
  {
    const TimeSeries::Panel panel = TimeSeries::Panel::Pack(rows, 8);
    copied = rows[0];
  }
  rows.clear();  // the rows dangle now; only their destructors may run
  EXPECT_EQ(Values(copied), (std::vector<double>{0, 1, 2, 3}));
  EXPECT_EQ(copied.start_time(), 5);
  copied.Append(4);
  EXPECT_EQ(Values(copied), (std::vector<double>{0, 1, 2, 3, 4}));
}

TEST(TimeSeries, RowsMovedOutOfAPanelOutliveIt) {
  // Moving a borrowed row, by construction or by assignment, takes a
  // reference too, as copying one does. Each row gets a panel of its own,
  // so neither move keeps the other's panel alive.
  std::vector<TimeSeries> rows = ThreeRows();
  std::optional<TimeSeries> constructed;
  TimeSeries assigned;
  {
    const std::span<TimeSeries> all(rows);
    const TimeSeries::Panel first = TimeSeries::Panel::Pack(all.first(1), 8);
    const TimeSeries::Panel second =
        TimeSeries::Panel::Pack(all.subspan(1, 1), 8);
    constructed.emplace(std::move(rows[0]));
    assigned = std::move(rows[1]);
    EXPECT_TRUE(rows[0].empty());
    EXPECT_TRUE(rows[1].empty());
  }
  rows.clear();
  EXPECT_EQ(Values(*constructed), (std::vector<double>{0, 1, 2, 3}));
  EXPECT_EQ(Values(assigned), (std::vector<double>{10, 11, 12, 13}));
  EXPECT_EQ(assigned.start_time(), 5);
}

TEST(TimeSeries, AppendingToACopyOfAPanelRowNeverWritesIntoThePanel) {
  // Only the holder that claims a panel column writes it. A copy of a row
  // that appends copies its window out instead, leaving the column free.
  std::vector<TimeSeries> rows = ThreeRows();
  const TimeSeries::Panel panel = TimeSeries::Panel::Pack(rows, 8);
  const double* const row_data = rows[0].values().data();
  TimeSeries copy = rows[0];
  copy.Append(99);
  EXPECT_NE(copy.values().data(), row_data);
  EXPECT_EQ(Values(copy), (std::vector<double>{0, 1, 2, 3, 99}));
  // The column after the rows is still unclaimed, and the rows' own
  // column lands in the panel in place.
  ASSERT_TRUE(panel.ClaimColumn(4));
  EXPECT_FALSE(panel.ClaimColumn(4));
  const std::vector<double> column{7, 17, 27};
  TimeSeries::Panel::AppendColumn(rows, column);
  EXPECT_EQ(rows[0].values().data(), row_data);
  EXPECT_EQ(Values(rows[0]), (std::vector<double>{0, 1, 2, 3, 7}));
  EXPECT_EQ(Values(rows[2]), (std::vector<double>{20, 21, 22, 23, 27}));
  EXPECT_EQ(Values(copy), (std::vector<double>{0, 1, 2, 3, 99}));
}

TEST(TimeSeries, PanelColumnsAreClaimedOnceInOrderUntilFull) {
  std::vector<TimeSeries> rows = ThreeRows();
  const TimeSeries::Panel panel = TimeSeries::Panel::Pack(rows, 5);
  EXPECT_FALSE(panel.ClaimColumn(3));  // packed columns count as claimed
  EXPECT_FALSE(panel.ClaimColumn(5));  // not the next column
  const TimeSeries::Panel other = panel;  // a second holder, one claim
  EXPECT_TRUE(other.ClaimColumn(4));
  EXPECT_FALSE(panel.ClaimColumn(4));
  EXPECT_FALSE(panel.ClaimColumn(5));  // the panel is full
}

}  // namespace
}  // namespace f2db
