#pragma once

// An anonymous zero-filled mapping whose pages fault in on first touch. A
// shared one stays shared across fork() (a child's stores reach the
// parent); a private one is copy-on-write. Off POSIX: a zeroed heap block.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#if !defined(_WIN32)
#include <sys/mman.h>
#endif

namespace rhtm {

class ZeroMapping {
 public:
  ZeroMapping(std::size_t bytes, [[maybe_unused]] bool shared) : bytes_(bytes) {
#if defined(_WIN32)
    base_ = std::memset(::operator new(bytes, std::align_val_t{4096}), 0, bytes);
#else
    base_ = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                 (shared ? MAP_SHARED : MAP_PRIVATE) | MAP_ANONYMOUS, -1, 0);
    if (base_ == MAP_FAILED) {
      std::fprintf(stderr, "mmap of %zu bytes failed\n", bytes);
      std::abort();
    }
#endif
  }
  ZeroMapping(const ZeroMapping&) = delete;
  ZeroMapping& operator=(const ZeroMapping&) = delete;
  ~ZeroMapping() {
#if defined(_WIN32)
    ::operator delete(base_, std::align_val_t{4096});
#else
    munmap(base_, bytes_);
#endif
  }

  /// `offset` bytes into the mapping, as a T (a zero-filled T must be valid).
  template <class T>
  [[nodiscard]] T* at(std::size_t offset = 0) const {
    return reinterpret_cast<T*>(static_cast<char*>(base_) + offset);
  }

 private:
  std::size_t bytes_;
  void* base_;
};

}  // namespace rhtm
