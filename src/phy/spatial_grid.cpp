#include "phy/spatial_grid.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace cavenet::phy {

namespace {

/// Packs two cell coordinates into one key. Coordinates are truncated to
/// 32 bits; scenarios large enough to wrap (cell span beyond ±2^31) only
/// alias distant cells together, which keeps queries a conservative
/// superset — never a miss.
std::uint64_t pack_cell(std::int64_t cx, std::int64_t cy) noexcept {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(cx)) << 32) |
         static_cast<std::uint32_t>(cy);
}

}  // namespace

std::int64_t SpatialGrid::cell_coord(double v) const noexcept {
  return static_cast<std::int64_t>(std::floor(v / cell_size_));
}

void SpatialGrid::rebuild(std::span<const Vec2> positions,
                          std::span<const std::uint32_t> members,
                          double cell_size) {
  if (!(cell_size > 0.0)) {
    throw std::invalid_argument("spatial grid cell size must be > 0");
  }
  cell_size_ = cell_size;
  entries_.clear();
  entries_.reserve(members.size());
  for (const std::uint32_t i : members) {
    entries_.emplace_back(
        pack_cell(cell_coord(positions[i].x), cell_coord(positions[i].y)), i);
  }
  std::sort(entries_.begin(), entries_.end());
}

void SpatialGrid::query(Vec2 center, double radius,
                        std::vector<std::uint32_t>& out) const {
  if (entries_.empty()) return;
  const std::size_t first_out = out.size();
  const std::int64_t x0 = cell_coord(center.x - radius);
  const std::int64_t x1 = cell_coord(center.x + radius);
  const std::int64_t y0 = cell_coord(center.y - radius);
  const std::int64_t y1 = cell_coord(center.y + radius);
  for (std::int64_t cx = x0; cx <= x1; ++cx) {
    for (std::int64_t cy = y0; cy <= y1; ++cy) {
      const std::uint64_t key = pack_cell(cx, cy);
      auto it = std::lower_bound(
          entries_.begin(), entries_.end(), key,
          [](const auto& entry, std::uint64_t k) { return entry.first < k; });
      for (; it != entries_.end() && it->first == key; ++it) {
        out.push_back(it->second);
      }
    }
  }
  // Each cell run is ascending, but cells are visited in coordinate
  // order; restore global index order for the caller.
  std::sort(out.begin() + static_cast<std::ptrdiff_t>(first_out), out.end());
}

}  // namespace cavenet::phy
