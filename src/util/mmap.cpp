#include "util/mmap.hpp"

#include <utility>

#include "util/fs.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#define MOSAIC_HAVE_MMAP 1
#endif

namespace mosaic::util {

MappedFile::~MappedFile() { reset(); }

MappedFile::MappedFile(MappedFile&& other) noexcept
    : data_(other.data_),
      size_(other.size_),
      mapped_(other.mapped_),
      fallback_(std::move(other.fallback_)) {
  if (!mapped_) data_ = fallback_.data();
  other.data_ = nullptr;
  other.size_ = 0;
  other.mapped_ = false;
}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    reset();
    data_ = other.data_;
    size_ = other.size_;
    mapped_ = other.mapped_;
    fallback_ = std::move(other.fallback_);
    if (!mapped_) data_ = fallback_.data();
    other.data_ = nullptr;
    other.size_ = 0;
    other.mapped_ = false;
  }
  return *this;
}

void MappedFile::reset() noexcept {
#if defined(MOSAIC_HAVE_MMAP)
  if (mapped_ && data_ != nullptr) {
    ::munmap(const_cast<std::byte*>(data_), size_);
  }
#endif
  data_ = nullptr;
  size_ = 0;
  mapped_ = false;
  fallback_.clear();
}

MappedFile MappedFile::from_buffer(std::vector<std::byte> buffer) {
  MappedFile file;
  file.fallback_ = std::move(buffer);
  file.data_ = file.fallback_.data();
  file.size_ = file.fallback_.size();
  return file;
}

Expected<MappedFile> MappedFile::open(const std::string& path) {
#if defined(MOSAIC_HAVE_MMAP)
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd >= 0) {
    struct stat st {};
    if (::fstat(fd, &st) == 0 && S_ISREG(st.st_mode)) {
      const auto size = static_cast<std::size_t>(st.st_size);
      if (size == 0) {
        ::close(fd);
        return MappedFile{};  // mmap(len=0) is UB; empty span is correct
      }
      void* addr = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
      ::close(fd);  // the mapping keeps its own reference to the file
      if (addr != MAP_FAILED) {
        MappedFile file;
        file.data_ = static_cast<const std::byte*>(addr);
        file.size_ = size;
        file.mapped_ = true;
        return file;
      }
    } else {
      ::close(fd);
    }
  }
  // fd open / fstat / mmap failed — fall through to the heap read, which
  // produces the accurate error message for genuinely unreadable files.
#endif
  auto bytes = read_file(path);
  if (!bytes.has_value()) return std::move(bytes).error();
  MappedFile file;
  file.fallback_ = std::move(bytes).value();
  file.data_ = file.fallback_.data();
  file.size_ = file.fallback_.size();
  return file;
}

}  // namespace mosaic::util
