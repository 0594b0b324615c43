// Scoped scratch directories for tests. A ScopedTempDir is a fresh mkdtemp
// directory under ::testing::TempDir() (which follows TEST_TMPDIR), removed
// together with the files left in it when the object goes out of scope, so a
// test run leaves nothing behind.

#ifndef BAGCPD_TESTS_TESTING_TEMP_DIR_H_
#define BAGCPD_TESTS_TESTING_TEMP_DIR_H_

#include <dirent.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace bagcpd {

/// \brief Full paths of the entries directly inside `dir`.
inline std::vector<std::string> ListFiles(const std::string& dir) {
  std::vector<std::string> files;
  DIR* handle = opendir(dir.c_str());
  EXPECT_NE(handle, nullptr) << dir;
  if (handle == nullptr) return files;
  while (dirent* entry = readdir(handle)) {
    const std::string name = entry->d_name;
    if (name != "." && name != "..") files.push_back(dir + "/" + name);
  }
  closedir(handle);
  return files;
}

/// \brief A fresh directory named `<prefix>-XXXXXX` under the test temp
/// root, removed with the files in it on destruction.
class ScopedTempDir {
 public:
  explicit ScopedTempDir(const std::string& prefix) {
    path_ = ::testing::TempDir();
    // Some gtest versions return TEST_TMPDIR as given, without a separator.
    if (!path_.empty() && path_.back() != '/') path_ += '/';
    path_ += prefix + "-XXXXXX";
    EXPECT_NE(mkdtemp(path_.data()), nullptr) << path_;
  }
  ~ScopedTempDir() {
    for (const std::string& file : ListFiles(path_)) {
      std::remove(file.c_str());
    }
    rmdir(path_.c_str());
  }
  ScopedTempDir(const ScopedTempDir&) = delete;
  ScopedTempDir& operator=(const ScopedTempDir&) = delete;

  const std::string& path() const { return path_; }

  /// \brief Path of `name` inside this directory.
  std::string File(const std::string& name) const {
    return path_ + "/" + name;
  }

 private:
  std::string path_;
};

}  // namespace bagcpd

#endif  // BAGCPD_TESTS_TESTING_TEMP_DIR_H_
