#include "sftbft/common/id_set.hpp"

#include <bit>
#include <utility>

namespace sftbft {

void IdSet::erase_slot(std::size_t hole) {
  // Backward shift: pull each later member of the probe run into the hole
  // unless the hole lies before its home slot (moving it there would put
  // it out of reach of its own probe sequence).
  for (std::size_t i = (hole + 1) & mask_; slots_[i] != kEmpty;
       i = (i + 1) & mask_) {
    const std::size_t displacement = (i - home(slots_[i])) & mask_;
    if (displacement >= ((i - hole) & mask_)) {
      slots_[hole] = slots_[i];
      hole = i;
    }
  }
  slots_[hole] = kEmpty;
  --size_;
}

void IdSet::grow() {
  const std::size_t capacity = slots_.empty() ? 16 : slots_.size() * 2;
  std::vector<std::uint64_t> old =
      std::exchange(slots_, std::vector<std::uint64_t>(capacity, kEmpty));
  mask_ = capacity - 1;
  shift_ = 64 - static_cast<unsigned>(std::countr_zero(capacity));
  for (const std::uint64_t id : old) {
    if (id == kEmpty) continue;
    std::size_t i = home(id);
    while (slots_[i] != kEmpty) i = (i + 1) & mask_;
    slots_[i] = id;
  }
}

}  // namespace sftbft
