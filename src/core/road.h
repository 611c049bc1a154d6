// Multi-lane road: several NaS lanes placed in the plane.
//
// The paper motivates multiple lanes via connectivity (relay nodes on a
// parallel lane can bridge gaps, Fig. 1-a) and interference (traffic on the
// opposite lane interferes, Fig. 1-b). Lanes evolve independently — the NaS
// model has no lane changing — but share the simulation clock and are
// mapped into one absolute coordinate system for trace generation.
#ifndef CAVENET_CORE_ROAD_H
#define CAVENET_CORE_ROAD_H

#include <cstdint>
#include <memory>
#include <vector>

#include "core/geometry.h"
#include "core/nas_lane.h"

namespace cavenet::ca {

/// Snapshot of one vehicle in absolute plane coordinates.
struct VehicleState {
  std::uint32_t lane = 0;
  std::uint32_t vehicle_id = 0;  ///< id within the lane
  std::uint32_t node_id = 0;     ///< globally unique across lanes
  Vec2 position;                 ///< absolute plane position
  Vec2 velocity;                 ///< absolute plane velocity, m/s
  bool wrapped_this_step = false;
};

class Road {
 public:
  /// Adds a lane with its geometry; returns the lane index. The geometry
  /// length must match the physical lane length of `lane`.
  std::uint32_t add_lane(NasLane lane, std::unique_ptr<LaneGeometry> geometry);

  std::size_t lane_count() const noexcept { return lanes_.size(); }
  NasLane& lane(std::size_t k) { return lanes_.at(k).sim; }
  const NasLane& lane(std::size_t k) const { return lanes_.at(k).sim; }
  const LaneGeometry& geometry(std::size_t k) const {
    return *lanes_.at(k).geometry;
  }

  /// Total vehicle count across all lanes.
  std::size_t vehicle_count() const noexcept;

  /// Steps every lane once. Lanes are independent automata (no lane
  /// changing, each with its own Rng).
  void step();
  std::int64_t time_step() const noexcept { return time_step_; }

  /// Current absolute state of every vehicle, ordered by node id.
  /// Node ids number vehicles lane by lane (lane 0 first).
  std::vector<VehicleState> states() const;

 private:
  struct LaneEntry {
    NasLane sim;
    std::unique_ptr<LaneGeometry> geometry;
    std::uint32_t first_node_id = 0;
    std::vector<std::int64_t> last_wraps;  // per vehicle id
  };
  std::vector<LaneEntry> lanes_;
  std::int64_t time_step_ = 0;
};

}  // namespace cavenet::ca

#endif  // CAVENET_CORE_ROAD_H
