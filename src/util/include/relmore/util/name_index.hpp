#pragma once

/// \file name_index.hpp
/// A name -> position index that stores no names.
///
/// The readers look names up in tables they already own: the sections of
/// a tree, the nets of a design, the instance and port lines of a file. A
/// node-based map keyed by `std::string` copies every name into a heap
/// block of its own and frees them one by one, leaving holes that later
/// allocations land in. `NameIndex` is one array of (hash, position)
/// slots; it compares a candidate through the caller's accessor,
/// `name_of(position)`, which returns the name held at that position. An
/// index costs one allocation per growth and none per name.
///
/// Open addressing with linear probing over a power-of-two table that is
/// kept at most half full. The first position indexed under a name keeps
/// it: `insert` of an equal name returns the earlier position and changes
/// nothing, which is the answer a front-to-back scan gives.

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string_view>
#include <utility>
#include <vector>

namespace relmore::util {

class NameIndex {
 public:
  /// Sizes the table for `n` names, so that inserting that many never
  /// regrows it.
  void reserve(std::size_t n) {
    if (2 * n > slots_.size()) rehash(std::bit_ceil(std::max(2 * n, kMinSlots)));
  }

  /// Position of the first indexed name equal to `name`, or -1.
  template <typename NameOf>
  [[nodiscard]] int find(std::string_view name, const NameOf& name_of) const {
    if (slots_.empty()) return -1;
    return slots_[probe(name, hash(name), name_of)].position;
  }

  /// Indexes `name` at `position` (>= 0) unless an equal name is indexed
  /// already. Returns the position that holds the name: `position`, or the
  /// earlier one.
  template <typename NameOf>
  int insert(std::string_view name, int position, const NameOf& name_of) {
    if (2 * (count_ + 1) > slots_.size()) rehash(std::max(kMinSlots, 2 * slots_.size()));
    const std::uint32_t h = hash(name);
    Slot& slot = slots_[probe(name, h, name_of)];
    if (slot.position >= 0) return slot.position;
    slot = Slot{h, position};
    ++count_;
    return position;
  }

 private:
  struct Slot {
    std::uint32_t hash = 0;
    int position = -1;  ///< -1: empty
  };
  static constexpr std::size_t kMinSlots = 16;

  static std::uint32_t hash(std::string_view name) {
    return static_cast<std::uint32_t>(std::hash<std::string_view>{}(name));
  }
  [[nodiscard]] std::size_t mask() const { return slots_.size() - 1; }

  /// The slot holding `name`, or the empty slot that ends its probe run.
  template <typename NameOf>
  [[nodiscard]] std::size_t probe(std::string_view name, std::uint32_t h,
                                  const NameOf& name_of) const {
    std::size_t i = h & mask();
    for (;; i = (i + 1) & mask()) {
      const Slot& slot = slots_[i];
      if (slot.position < 0) return i;
      if (slot.hash == h && std::string_view(name_of(slot.position)) == name) return i;
    }
  }

  void rehash(std::size_t n_slots) {
    const std::vector<Slot> old = std::exchange(slots_, std::vector<Slot>(n_slots));
    for (const Slot& slot : old) {
      if (slot.position < 0) continue;
      std::size_t i = slot.hash & mask();
      while (slots_[i].position >= 0) i = (i + 1) & mask();
      slots_[i] = slot;
    }
  }

  std::vector<Slot> slots_;  ///< power-of-two size, at most half full
  std::size_t count_ = 0;
};

}  // namespace relmore::util
