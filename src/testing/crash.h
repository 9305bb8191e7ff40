// Scratch-directory handling for the durable test plans: the crash and
// I/O-fault grid points of the differential driver (testing/differential.h)
// and the durability tests each run over a throwaway data directory.

#ifndef F2DB_TESTING_CRASH_H_
#define F2DB_TESTING_CRASH_H_

#include <string>

namespace f2db::testing {

/// Removes `dir` recursively (files and subdirectories — a sharded data
/// dir nests shard-<k> directories).
void RemoveDirectoryTree(const std::string& dir);

}  // namespace f2db::testing

#endif  // F2DB_TESTING_CRASH_H_
