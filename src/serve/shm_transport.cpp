#include "serve/shm_transport.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <time.h>  // NOLINT(modernize-deprecated-headers): POSIX nanosleep
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace socpinn::serve {

std::vector<Shard> partition_fleet(std::size_t num_cells,
                                   std::size_t workers) {
  if (workers == 0) {
    throw std::invalid_argument("partition_fleet: need at least one worker");
  }
  if (workers > num_cells) {
    throw std::invalid_argument(
        "partition_fleet: more workers than cells would leave a worker with "
        "an empty shard");
  }
  std::vector<Shard> shards;
  shards.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    const ShardRange range = shard_range(num_cells, w, workers);
    shards.push_back(Shard{w, range.begin, range.end});
  }
  return shards;
}

void nap() {
  timespec ts{0, 100'000};
  ::nanosleep(&ts, nullptr);
}

ShmSegment::ShmSegment(std::size_t size) : size_(size) {
  if (size == 0) {
    throw std::invalid_argument("ShmSegment: zero-sized segment");
  }
  // Unique throwaway name: the segment is unlinked before the constructor
  // returns, so the name only needs to dodge concurrent creations in this
  // process (the counter) and other processes (the pid).
  static std::atomic<std::uint64_t> counter{0};
  const std::string name =
      "/socpinn-" + std::to_string(static_cast<long>(::getpid())) + "-" +
      std::to_string(counter.fetch_add(1, std::memory_order_relaxed));

  const int fd = ::shm_open(name.c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
  if (fd < 0) {
    throw std::runtime_error(std::string("ShmSegment: shm_open failed: ") +
                             std::strerror(errno));
  }
  if (::ftruncate(fd, static_cast<off_t>(size)) != 0) {
    const int err = errno;
    ::close(fd);
    ::shm_unlink(name.c_str());
    throw std::runtime_error(std::string("ShmSegment: ftruncate failed: ") +
                             std::strerror(err));
  }
  data_ = ::mmap(nullptr, size, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  const int err = errno;
  // The fd and the name are both disposable once the mapping exists (or
  // failed): fork inherits mappings, not descriptors or names.
  ::close(fd);
  ::shm_unlink(name.c_str());
  if (data_ == MAP_FAILED) {
    data_ = nullptr;
    throw std::runtime_error(std::string("ShmSegment: mmap failed: ") +
                             std::strerror(err));
  }
}

ShmSegment::~ShmSegment() {
  if (data_ != nullptr) ::munmap(data_, size_);
}

ShmSegment::ShmSegment(ShmSegment&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)) {}

ShmSegment& ShmSegment::operator=(ShmSegment&& other) noexcept {
  if (this != &other) {
    if (data_ != nullptr) ::munmap(data_, size_);
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
  }
  return *this;
}

namespace {

constexpr std::size_t kWord = sizeof(std::uint64_t);

/// Whole words covering `bytes`: the blob moves word by word.
std::size_t words_for(std::size_t bytes) { return (bytes + kWord - 1) / kWord; }

}  // namespace

ModelRegion::ModelRegion(std::size_t capacity)
    : segment_(sizeof(ModelRegionHeader) + words_for(capacity) * kWord) {
  std::atomic_ref<std::uint64_t>(header()->capacity)
      .store(capacity, std::memory_order_relaxed);
}

void ModelRegion::publish(const std::string& blob) {
  ModelRegionHeader* h = header();
  if (blob.size() > h->capacity) {
    throw std::invalid_argument(
        "ModelRegion::publish: serialized model exceeds the region capacity "
        "fixed at construction");
  }
  const std::atomic_ref<std::uint64_t> seq(h->seq);
  const std::uint64_t s = seq.load(std::memory_order_relaxed);
  seq.store(s + 1, std::memory_order_relaxed);  // odd: publish in flight
  for (std::size_t w = 0; w < words_for(blob.size()); ++w) {
    std::uint64_t word = 0;
    std::memcpy(&word, blob.data() + w * kWord,
                std::min(kWord, blob.size() - w * kWord));
    std::atomic_ref<std::uint64_t>(words()[w]).store(
        word, std::memory_order_release);
  }
  std::atomic_ref<std::uint64_t>(h->size).store(blob.size(),
                                                std::memory_order_release);
  seq.store(s + 2, std::memory_order_release);
}

std::uint64_t ModelRegion::version() const {
  return std::atomic_ref<std::uint64_t>(header()->seq)
             .load(std::memory_order_acquire) /
         2;
}

std::uint64_t ModelRegion::read_if_newer(std::uint64_t seen_version,
                                         std::string& out) const {
  ModelRegionHeader* h = header();
  const std::atomic_ref<std::uint64_t> seq(h->seq);
  for (;;) {
    const std::uint64_t s1 = seq.load(std::memory_order_acquire);
    if ((s1 & 1u) != 0) continue;  // publish in flight: wait it out
    if (s1 / 2 == seen_version) return seen_version;
    // A torn size is still one some publish stored, so at most capacity.
    const std::size_t size = std::atomic_ref<std::uint64_t>(h->size).load(
        std::memory_order_acquire);
    out.resize(size);
    for (std::size_t w = 0; w < words_for(size); ++w) {
      const std::uint64_t word = std::atomic_ref<std::uint64_t>(words()[w])
                                     .load(std::memory_order_acquire);
      std::memcpy(out.data() + w * kWord, &word,
                  std::min(kWord, size - w * kWord));
    }
    if (seq.load(std::memory_order_relaxed) == s1) return s1 / 2;
    // A racing publish tore the copy; re-read — the writer only publishes
    // on hot-swap, so this terminates immediately in practice.
  }
}

}  // namespace socpinn::serve
