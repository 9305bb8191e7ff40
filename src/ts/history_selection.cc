#include "ts/history_selection.h"

#include <algorithm>
#include <limits>

#include "ts/accuracy.h"

namespace f2db {

Result<HistorySelection> SelectHistoryLength(
    const TimeSeries& series, const ModelFactory& factory,
    const HistorySelectionOptions& options) {
  const std::size_t n = series.size();
  if (options.validation_length == 0) {
    return Status::InvalidArgument("history selection: validation_length == 0");
  }
  if (n < options.min_length + options.validation_length) {
    return Status::InvalidArgument("history selection: series too short");
  }

  std::vector<std::size_t> candidates = options.candidate_lengths;
  if (candidates.empty()) {
    // Geometric ladder n, n/2, n/4, ... down to the floor.
    std::size_t length = n;
    while (length >= options.min_length + options.validation_length) {
      candidates.push_back(length);
      length /= 2;
    }
  }
  if (candidates.empty()) {
    return Status::InvalidArgument("history selection: no viable candidates");
  }

  const TimeSeries validation = series.Tail(options.validation_length);

  HistorySelection best;
  best.validation_smape = std::numeric_limits<double>::max();
  for (std::size_t length : candidates) {
    length = std::min(length, n);
    if (length < options.min_length + options.validation_length) continue;
    // Train on the suffix with the validation tail removed.
    const TimeSeries train =
        series.Slice(n - length, length - options.validation_length);
    auto model = factory.CreateAndFit(train);
    if (!model.ok()) continue;
    ++best.candidates_tried;
    const double error =
        Smape(validation.ToVector(),
              model.value()->Forecast(options.validation_length));
    if (error < best.validation_smape) {
      best.validation_smape = error;
      best.length = length;
    }
  }
  if (best.length == 0) {
    return Status::Internal("history selection: no candidate could be fitted");
  }
  return best;
}

}  // namespace f2db
