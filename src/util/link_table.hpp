// LinkTable<T> — dense per-directed-link (src, dst) storage.
//
// The engines keep several n×n link-indexed tables (per-link RNG
// substreams, per-link fault overrides, per-link packet sequence
// counters).  Before this helper each site hand-rolled the
// `src * world_size + dst` arithmetic with its own growth assumptions and
// no bounds checking; LinkTable centralizes the layout and asserts the
// bounds once.
//
// Layout is row-major by src, so one sender's links are contiguous.
#pragma once

#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

#include "util/ids.hpp"

namespace dpu {

template <class T>
class LinkTable {
 public:
  LinkTable() = default;
  explicit LinkTable(std::size_t world_size) { reset(world_size); }

  /// (Re)initializes to an n×n table of default-constructed cells.
  void reset(std::size_t world_size) {
    n_ = world_size;
    cells_.assign(n_ * n_, T{});
  }

  /// (Re)initializes with `make(flat_index)` per cell, flat_index being
  /// `src * world_size + dst` — the per-link RNG substream convention.
  template <class Make>
  void reset(std::size_t world_size, Make&& make) {
    n_ = world_size;
    cells_.clear();
    cells_.reserve(n_ * n_);
    for (std::size_t i = 0; i < n_ * n_; ++i) {
      cells_.push_back(make(i));
    }
  }

  [[nodiscard]] T& at(NodeId src, NodeId dst) {
    assert(src < n_ && dst < n_ && "LinkTable: link index out of range");
    return cells_[static_cast<std::size_t>(src) * n_ + dst];
  }

  [[nodiscard]] const T& at(NodeId src, NodeId dst) const {
    assert(src < n_ && dst < n_ && "LinkTable: link index out of range");
    return cells_[static_cast<std::size_t>(src) * n_ + dst];
  }

  /// True until the first reset() — the lazy-allocation idiom
  /// LinkFaultTable uses to keep the no-faults fast path free.
  [[nodiscard]] bool empty() const { return cells_.empty(); }

  [[nodiscard]] std::size_t world_size() const { return n_; }

 private:
  std::size_t n_ = 0;
  std::vector<T> cells_;
};

}  // namespace dpu
