// Read-only memory-mapped files.
//
// The SchedBin v2 read path opens multi-megabyte schedule artifacts and
// decodes individual chunks on demand; mapping the file means only the
// pages actually touched (header, trailer, the requested chunks) are ever
// read from disk, instead of slurping the whole container per lookup.
// Move-only RAII wrapper; unmapped on destruction.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace a2a {

class MmapFile {
 public:
  MmapFile() = default;
  /// Maps `path` read-only. Throws InvalidArgument when the file cannot be
  /// opened, stat'ed or mapped. Empty files map to an empty view.
  explicit MmapFile(const std::string& path);
  ~MmapFile();

  MmapFile(MmapFile&& other) noexcept;
  MmapFile& operator=(MmapFile&& other) noexcept;
  MmapFile(const MmapFile&) = delete;
  MmapFile& operator=(const MmapFile&) = delete;

  [[nodiscard]] std::string_view view() const {
    return {static_cast<const char*>(data_), size_};
  }
  [[nodiscard]] std::size_t size() const { return size_; }
  /// Identity of the file that was mapped (st_dev, st_ino at open time):
  /// tells the mapped file apart from one later renamed over its path.
  [[nodiscard]] std::uint64_t device() const { return device_; }
  [[nodiscard]] std::uint64_t inode() const { return inode_; }

 private:
  void* data_ = nullptr;
  std::size_t size_ = 0;
  std::uint64_t device_ = 0;
  std::uint64_t inode_ = 0;
};

}  // namespace a2a
