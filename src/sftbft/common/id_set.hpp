// Flat bookkeeping for 64-bit transaction ids.
//
// Every replica marks every committed transaction, so id bookkeeping runs
// n times per committed txn and must not allocate per id. IdSet is an
// open-addressed set with no per-element allocation; IdWindow bounds it to
// the last `capacity` distinct ids with FIFO eviction, over a fixed ring
// of ids.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace sftbft {

/// Open-addressed set of uint64_t: power-of-two capacity, linear probing,
/// backward-shift deletion (no tombstones), multiplicative hashing. Every
/// id value is legal: the slot value that marks "empty" is stored out of
/// band when it is itself a member. Storage is allocated on first insert
/// and grows by doubling at load 1/2.
class IdSet {
 public:
  [[nodiscard]] bool contains(std::uint64_t id) const {
    if (id == kEmpty) return has_empty_;
    return !slots_.empty() && slots_[probe(id)] == id;
  }

  /// Returns false (and changes nothing) when `id` is already a member.
  bool insert(std::uint64_t id) {
    if (id == kEmpty) {
      if (has_empty_) return false;
      has_empty_ = true;
      ++size_;
      return true;
    }
    if ((size_ + 1) * 2 > slots_.size()) grow();
    const std::size_t i = probe(id);
    if (slots_[i] == id) return false;
    slots_[i] = id;
    ++size_;
    return true;
  }

  /// Returns false when `id` was not a member.
  bool erase(std::uint64_t id) {
    if (id == kEmpty) {
      if (!has_empty_) return false;
      has_empty_ = false;
      --size_;
      return true;
    }
    if (slots_.empty()) return false;
    const std::size_t i = probe(id);
    if (slots_[i] != id) return false;
    erase_slot(i);
    return true;
  }

  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

  /// Fibonacci hashing: the top bits of id * 2^64/phi. Ids are clustered
  /// ((space << 40) | seq); the multiply spreads consecutive ones apart.
  [[nodiscard]] std::size_t home(std::uint64_t id) const {
    return static_cast<std::size_t>((id * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  /// The slot holding `id`, else the empty slot ending its probe run.
  /// Precondition: a non-empty table (load <= 1/2, so an empty slot exists).
  [[nodiscard]] std::size_t probe(std::uint64_t id) const {
    std::size_t i = home(id);
    while (slots_[i] != id && slots_[i] != kEmpty) i = (i + 1) & mask_;
    return i;
  }

  void erase_slot(std::size_t hole);
  void grow();

  std::vector<std::uint64_t> slots_;
  std::size_t mask_ = 0;
  unsigned shift_ = 64;
  std::size_t size_ = 0;
  bool has_empty_ = false;
};

/// The last `capacity` distinct ids pushed, evicted oldest first.
/// Re-pushing an id already in the window neither duplicates nor refreshes
/// it. A capacity of 0 remembers nothing. Nothing is allocated until the
/// first push.
class IdWindow {
 public:
  explicit IdWindow(std::size_t capacity) : capacity_(capacity) {}

  [[nodiscard]] bool contains(std::uint64_t id) const {
    return set_.contains(id);
  }

  void push(std::uint64_t id) {
    if (capacity_ == 0 || set_.contains(id)) return;
    if (ring_.size() < capacity_) {
      ring_.push_back(id);
    } else {
      set_.erase(ring_[oldest_]);
      ring_[oldest_] = id;
      oldest_ = oldest_ + 1 == capacity_ ? 0 : oldest_ + 1;
    }
    set_.insert(id);
  }

  [[nodiscard]] std::size_t size() const { return set_.size(); }

 private:
  std::size_t capacity_;
  IdSet set_;
  /// Ids in arrival order once full: ring_[oldest_] is evicted next.
  std::vector<std::uint64_t> ring_;
  std::size_t oldest_ = 0;
};

}  // namespace sftbft
