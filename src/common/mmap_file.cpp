#include "common/mmap_file.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <utility>

#include "common/error.hpp"

namespace a2a {

MmapFile::MmapFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  A2A_REQUIRE(fd >= 0, "cannot open file for mmap: ", path);
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    throw InvalidArgument("cannot stat file for mmap: " + path);
  }
  size_ = static_cast<std::size_t>(st.st_size);
  device_ = static_cast<std::uint64_t>(st.st_dev);
  inode_ = static_cast<std::uint64_t>(st.st_ino);
  if (size_ > 0) {
    void* map = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
    if (map == MAP_FAILED) {
      ::close(fd);
      throw InvalidArgument("mmap failed for: " + path);
    }
    data_ = map;
  }
  // The mapping survives the descriptor.
  ::close(fd);
}

MmapFile::~MmapFile() {
  if (data_ != nullptr) ::munmap(data_, size_);
}

MmapFile::MmapFile(MmapFile&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)),
      device_(std::exchange(other.device_, 0)),
      inode_(std::exchange(other.inode_, 0)) {}

MmapFile& MmapFile::operator=(MmapFile&& other) noexcept {
  if (this != &other) {
    if (data_ != nullptr) ::munmap(data_, size_);
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
    device_ = std::exchange(other.device_, 0);
    inode_ = std::exchange(other.inode_, 0);
  }
  return *this;
}

}  // namespace a2a
