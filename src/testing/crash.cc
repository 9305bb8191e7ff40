#include "testing/crash.h"

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

namespace f2db::testing {

void RemoveDirectoryTree(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d != nullptr) {
    while (dirent* entry = ::readdir(d)) {
      const std::string name = entry->d_name;
      if (name == "." || name == "..") continue;
      const std::string path = dir + "/" + name;
      struct stat st;
      if (::lstat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode)) {
        RemoveDirectoryTree(path);  // shard-<k> subdirectories
      } else {
        ::unlink(path.c_str());
      }
    }
    ::closedir(d);
  }
  ::rmdir(dir.c_str());
}

}  // namespace f2db::testing
