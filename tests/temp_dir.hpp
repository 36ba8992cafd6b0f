// A scratch directory under the system temp dir, unique per process and
// per instance, removed with everything in it when the object goes out of
// scope — also when a failed ASSERT returns from the test early.
#pragma once

#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace a2a {

struct TempDir {
  std::filesystem::path path;

  explicit TempDir(const std::string& prefix = "a2a_test_") {
    static int counter = 0;
    path = std::filesystem::temp_directory_path() /
           (prefix + std::to_string(::getpid()) + "_" +
            std::to_string(counter++));
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
};

}  // namespace a2a
