#include "cube/hierarchy.h"

#include <algorithm>
#include <cassert>
#include <numeric>

namespace f2db {
namespace {

const std::string kAllLevelName = "ALL";
const std::string kAllValueName = "*";

}  // namespace

Status Hierarchy::AddLevel(std::string level_name,
                           std::vector<std::string> value_names) {
  if (finalized_) return Status::FailedPrecondition("hierarchy is finalized");
  if (value_names.empty()) {
    return Status::InvalidArgument("level needs at least one value");
  }
  for (const Level& existing : levels_) {
    if (existing.name == level_name) {
      return Status::InvalidArgument("hierarchy '" + name_ +
                                     "' already has a level '" + level_name +
                                     "'");
    }
  }
  Level level;
  level.by_name.resize(value_names.size());
  std::iota(level.by_name.begin(), level.by_name.end(), ValueIndex{0});
  std::sort(level.by_name.begin(), level.by_name.end(),
            [&value_names](ValueIndex a, ValueIndex b) {
              return value_names[a] < value_names[b];
            });
  // Sorted, so a duplicate member name sits next to its twin.
  const auto twin = std::adjacent_find(
      level.by_name.begin(), level.by_name.end(),
      [&value_names](ValueIndex a, ValueIndex b) {
        return value_names[a] == value_names[b];
      });
  if (twin != level.by_name.end()) {
    return Status::InvalidArgument("hierarchy '" + name_ + "': level '" +
                                   level_name + "' has duplicate value '" +
                                   value_names[*twin] + "'");
  }
  level.name = std::move(level_name);
  level.parents.assign(value_names.size(), 0);
  level.value_names = std::move(value_names);
  levels_.push_back(std::move(level));
  return Status::OK();
}

Status Hierarchy::SetParent(LevelIndex level, ValueIndex child_value,
                            ValueIndex parent_value) {
  if (finalized_) return Status::FailedPrecondition("hierarchy is finalized");
  if (level + 1 >= levels_.size()) {
    return Status::InvalidArgument(
        "SetParent: level must have a declared parent level");
  }
  if (child_value >= levels_[level].value_names.size()) {
    return Status::OutOfRange("SetParent: child value out of range");
  }
  if (parent_value >= levels_[level + 1].value_names.size()) {
    return Status::OutOfRange("SetParent: parent value out of range");
  }
  levels_[level].parents[child_value] = parent_value;
  levels_[level].parents_set = true;
  return Status::OK();
}

Status Hierarchy::Finalize() {
  if (finalized_) return Status::OK();
  if (levels_.empty()) {
    return Status::FailedPrecondition("hierarchy has no levels");
  }
  // The topmost declared level rolls up into ALL (value 0).
  for (auto& value : levels_.back().parents) value = 0;

  // Build child lists for levels 1..num_levels (ALL).
  children_.assign(levels_.size() + 1, {});
  for (std::size_t level = 1; level <= levels_.size(); ++level) {
    const std::size_t parent_count =
        level == levels_.size() ? 1 : levels_[level].value_names.size();
    children_[level].assign(parent_count, {});
    const Level& child_level = levels_[level - 1];
    for (ValueIndex v = 0; v < child_level.value_names.size(); ++v) {
      const ValueIndex parent = child_level.parents[v];
      if (parent >= parent_count) {
        return Status::Internal("parent index out of range after SetParent");
      }
      children_[level][parent].push_back(v);
    }
    // Every parent value must have at least one child, otherwise its time
    // series would be undefined.
    for (std::size_t p = 0; p < parent_count; ++p) {
      if (children_[level][p].empty()) {
        return Status::InvalidArgument(
            "hierarchy '" + name_ + "': value '" +
            (level == levels_.size() ? kAllValueName
                                     : levels_[level].value_names[p]) +
            "' has no children");
      }
    }
  }
  finalized_ = true;
  return Status::OK();
}

std::size_t Hierarchy::num_values(LevelIndex level) const {
  if (level >= levels_.size()) return 1;  // ALL
  return levels_[level].value_names.size();
}

const std::string& Hierarchy::level_name(LevelIndex level) const {
  if (level >= levels_.size()) return kAllLevelName;
  return levels_[level].name;
}

const std::string& Hierarchy::value_name(LevelIndex level,
                                         ValueIndex value) const {
  if (level >= levels_.size()) return kAllValueName;
  assert(value < levels_[level].value_names.size());
  return levels_[level].value_names[value];
}

ValueIndex Hierarchy::parent_value(LevelIndex level, ValueIndex value) const {
  assert(level < levels_.size());
  assert(value < levels_[level].parents.size());
  return levels_[level].parents[value];
}

const std::vector<ValueIndex>& Hierarchy::child_values(
    LevelIndex level, ValueIndex value) const {
  assert(finalized_);
  assert(level >= 1 && level <= levels_.size());
  assert(value < children_[level].size());
  return children_[level][value];
}

Result<LevelIndex> Hierarchy::FindLevel(std::string_view level_name) const {
  if (const auto level = TryFindLevel(level_name)) return *level;
  return Status::NotFound("no level '" + std::string(level_name) +
                          "' in hierarchy '" + name_ + "'");
}

std::optional<LevelIndex> Hierarchy::TryFindLevel(
    std::string_view level_name) const {
  for (std::size_t i = 0; i < levels_.size(); ++i) {
    if (levels_[i].name == level_name) return static_cast<LevelIndex>(i);
  }
  if (level_name == kAllLevelName) {
    return static_cast<LevelIndex>(levels_.size());
  }
  return std::nullopt;
}

Result<ValueIndex> Hierarchy::FindValue(LevelIndex level,
                                        std::string_view value_name) const {
  if (level >= levels_.size()) {
    if (value_name == kAllValueName) return ValueIndex{0};
    return Status::NotFound("ALL level has only '*'");
  }
  const Level& named = levels_[level];
  const auto it = std::lower_bound(
      named.by_name.begin(), named.by_name.end(), value_name,
      [&named](ValueIndex v, std::string_view name) {
        return named.value_names[v] < name;
      });
  if (it != named.by_name.end() && named.value_names[*it] == value_name) {
    return *it;
  }
  return Status::NotFound("no value '" + std::string(value_name) +
                          "' at level '" + levels_[level].name + "'");
}

Hierarchy Hierarchy::Flat(std::string name, std::vector<std::string> values) {
  Hierarchy h(std::move(name));
  const Status add = h.AddLevel(h.name_, std::move(values));
  assert(add.ok());
  (void)add;
  const Status fin = h.Finalize();
  assert(fin.ok());
  (void)fin;
  return h;
}

}  // namespace f2db
