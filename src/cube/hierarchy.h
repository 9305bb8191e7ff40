// Dimension hierarchies with functional dependencies.
//
// A categorical dimension of the data cube (Section II-A) is modeled as a
// Hierarchy: an ordered list of levels from finest (level 0, e.g. city) to
// coarsest (e.g. region), with a parent mapping between adjacent levels
// encoding the functional dependency (city -> region). An implicit ALL
// level with a single value '*' sits above the coarsest declared level, so
// every hierarchy supports full aggregation.

#ifndef F2DB_CUBE_HIERARCHY_H_
#define F2DB_CUBE_HIERARCHY_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace f2db {

/// Index of a level inside a hierarchy; num_levels() denotes ALL.
using LevelIndex = std::uint32_t;
/// Index of a member value inside one level.
using ValueIndex = std::uint32_t;

/// One categorical dimension with (possibly multiple) aggregation levels.
///
/// Usage: construct, AddLevel from finest to coarsest, SetParent for every
/// value of every non-topmost level, then Finalize(). Values of the topmost
/// declared level implicitly aggregate into ALL.
class Hierarchy {
 public:
  explicit Hierarchy(std::string name) : name_(std::move(name)) {}

  /// Appends the next-coarser level with its member value names.
  /// The first call defines level 0 (the base granularity). Member names
  /// must be unique within the level and the level name unique within the
  /// hierarchy (kInvalidArgument otherwise): lookups are by name.
  Status AddLevel(std::string level_name, std::vector<std::string> value_names);

  /// Declares that `child_value` of `level` rolls up into `parent_value`
  /// of `level`+1. Required for every value of every level except the
  /// topmost declared level.
  Status SetParent(LevelIndex level, ValueIndex child_value,
                   ValueIndex parent_value);

  /// Validates parent mappings and builds child lists. Must be called once
  /// before the hierarchy is used in a graph.
  Status Finalize();

  const std::string& name() const { return name_; }
  bool finalized() const { return finalized_; }

  /// Number of declared levels (excluding ALL).
  std::size_t num_levels() const { return levels_.size(); }

  /// Number of values at `level`; the ALL level has exactly one.
  std::size_t num_values(LevelIndex level) const;

  /// Level name; "ALL" for the implicit top level.
  const std::string& level_name(LevelIndex level) const;

  /// Value name; "*" for the ALL value.
  const std::string& value_name(LevelIndex level, ValueIndex value) const;

  /// Parent value at `level`+1 of `value` at `level`. For the topmost
  /// declared level this is the ALL value (0).
  ValueIndex parent_value(LevelIndex level, ValueIndex value) const;

  /// Child values at `level`-1 that roll up into `value` at `level`.
  /// Requires 1 <= level <= num_levels() and a finalized hierarchy.
  const std::vector<ValueIndex>& child_values(LevelIndex level,
                                              ValueIndex value) const;

  /// Looks up a level by name (including "ALL").
  Result<LevelIndex> FindLevel(std::string_view level_name) const;

  /// FindLevel without the error Status: nullopt on a miss. The
  /// per-execution filter-resolution hot path probes every dimension and
  /// must not pay an error-message allocation for the ones that don't
  /// carry the level.
  std::optional<LevelIndex> TryFindLevel(std::string_view level_name) const;

  /// Looks up a value by name within a level: a binary search of the
  /// level's name-sorted member index, O(log n) in the member count.
  Result<ValueIndex> FindValue(LevelIndex level,
                               std::string_view value_name) const;

  /// Builds a flat hierarchy with a single level (no intermediate
  /// aggregation below ALL); finalized and ready to use. `values` must be
  /// non-empty and unique, as AddLevel requires.
  static Hierarchy Flat(std::string name, std::vector<std::string> values);

 private:
  struct Level {
    std::string name;
    std::vector<std::string> value_names;
    /// Value indices sorted by name (built by AddLevel): FindValue's
    /// search index. Indices rather than views into value_names, so a
    /// copied or moved hierarchy keeps a valid index.
    std::vector<ValueIndex> by_name;
    /// parents[v] = parent value index at the next level; filled by
    /// SetParent, defaulted to 0 for the topmost level at Finalize.
    std::vector<ValueIndex> parents;
    bool parents_set = false;
  };

  std::string name_;
  std::vector<Level> levels_;
  /// children_[level][value] = child values at level-1 (level >= 1;
  /// index num_levels() is the ALL level).
  std::vector<std::vector<std::vector<ValueIndex>>> children_;
  bool finalized_ = false;
};

}  // namespace f2db

#endif  // F2DB_CUBE_HIERARCHY_H_
