// The shared wireless medium: delivers each transmission to the attached
// radios that can interact with it, with per-link propagation loss and
// speed-of-light delay.
//
// Scaling design (docs/SCALING.md "Channel strips"): when the
// propagation model can bound its interaction range
// (PropagationModel::max_range_m), the channel partitions the world's
// x-extent into strips one interaction radius wide, keeps a per-timestamp
// position snapshot and a uniform grid per strip, and a transmission only
// refreshes and queries the strips its radius (plus drift margin) can
// reach. Receivers beyond the radius are provably below every radio's
// carrier-sense threshold, so the strip path is bitwise-identical to a
// full scan — only cheaper. Models that cannot bound range (shadowing,
// fading) and the kLinear reference fall back to evaluating every
// attached radio.
#ifndef CAVENET_PHY_CHANNEL_H
#define CAVENET_PHY_CHANNEL_H

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "netsim/simulator.h"
#include "obs/stats_registry.h"
#include "phy/propagation.h"
#include "phy/shard_map.h"
#include "phy/spatial_grid.h"
#include "phy/wifi_phy.h"

namespace cavenet::phy {

/// How the channel finds candidate receivers for a transmission. kGrid is
/// the default (strip snapshots with a grid per strip); kLinear is the
/// brute-force reference (same range cull, same results, same counters —
/// it only walks every radio to apply it) kept as the equivalence-test
/// oracle and for measuring the index's win.
enum class ChannelIndex { kGrid, kLinear };

/// What the channel needs to split the world into strips, all derived by
/// the scenario from the mobility trace: the x-extent every position the
/// trace can visit lies in, and `max_speed_mps`, a true bound on every
/// radio's speed for the whole run (the drift bound of the strips' stale
/// membership; ShardMap re-verifies it every rebucket and throws on
/// violation). The strip count is not configurable: it is
/// floor(extent / interaction radius), at least one. Results are
/// bitwise-identical at any strip count: the candidate superset changes,
/// the evaluated set and event order never do.
struct ShardPlan {
  double x_min = 0.0;
  double x_max = 0.0;
  double max_speed_mps = 0.0;
};

class Channel {
 public:
  /// RAII handle for one radio's membership on the medium: detaches on
  /// destruction (node teardown / churn). Obtained from Channel::attach;
  /// must not outlive the channel it came from.
  class [[nodiscard]] Attachment {
   public:
    Attachment() noexcept = default;
    Attachment(Attachment&& other) noexcept;
    Attachment& operator=(Attachment&& other) noexcept;
    Attachment(const Attachment&) = delete;
    Attachment& operator=(const Attachment&) = delete;
    ~Attachment() { detach(); }

    /// Unregisters the radio from the channel (idempotent). The radio
    /// stops receiving immediately; frames already in flight to it are
    /// still delivered (they left the medium while it was attached).
    void detach() noexcept;
    bool attached() const noexcept { return channel_ != nullptr; }

   private:
    friend class Channel;
    Attachment(Channel* channel, std::uint32_t slot) noexcept
        : channel_(channel), slot_(slot) {}

    Channel* channel_ = nullptr;
    std::uint32_t slot_ = 0;
  };

  Channel(netsim::Simulator& sim, std::unique_ptr<PropagationModel> model,
          ChannelIndex index = ChannelIndex::kGrid);

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Registers a radio on this medium and hands back its lifecycle
  /// handle. The radio and the handle must not outlive the channel;
  /// dropping the handle detaches the radio.
  Attachment attach(WifiPhy* phy);

  /// Radios currently attached (detached slots excluded).
  std::size_t radio_count() const noexcept { return live_count_; }

  /// Called by a transmitting radio; delivers the frame to every other
  /// attached radio that can interact with it (each gets an independent
  /// copy).
  ///
  /// Cost per call: with a range-bounded model, position evaluations for
  /// the members of the (at most a few) strips the radius reaches, once
  /// per distinct simulation timestamp, plus O(neighbours within the
  /// max-interaction radius) receive-power evaluations and events; with
  /// one strip the refresh is O(radios). The kLinear fallback and
  /// unbounded models
  /// pay O(radios) per call (every radio distance- or power-evaluated),
  /// though events stay O(neighbours) either way.
  void transmit(const WifiPhy& sender, const netsim::Packet& packet,
                SimTime duration, double tx_power_w);

  /// Drops the cached per-timestamp position snapshot. Only needed by
  /// callers that mutate a mobility model's position out-of-band at the
  /// current timestamp (test harnesses teleporting nodes mid-event);
  /// positions that are pure functions of simulation time never need it.
  void invalidate_positions() noexcept { shards_.invalidate(); }

  /// Installs the world's strip plan (see ShardPlan). Call before the
  /// run. Without a plan, with the kLinear reference, or with a
  /// range-unbounded model the channel keeps one strip. The strip count
  /// is resolved at the first transmit, against its interaction radius.
  void configure_shards(const ShardPlan& plan);

  /// Observed strip state, for tests and the bench harness.
  struct ShardDiagnostics {
    /// Resolved strip count (0 = not yet resolved).
    std::uint32_t strips = 0;
    std::uint64_t epochs = 0;     ///< membership rebuckets
    std::uint64_t refreshed = 0;  ///< per-strip position refreshes (nodes)
  };
  ShardDiagnostics shard_diagnostics() const noexcept {
    return {static_cast<std::uint32_t>(strips_.size()), shards_.epochs(),
            diag_refreshed_};
  }

  PropagationModel& propagation() noexcept { return *model_; }
  ChannelIndex index_mode() const noexcept { return index_; }

  /// Binds the channel's culling counters into a registry:
  /// "chan.tx" transmissions carried, "chan.evaluated" receive-power
  /// evaluations performed, "chan.culled" receivers skipped without one
  /// (beyond the max-interaction radius). evaluated + culled counts every
  /// (transmission, other radio) pair, and both are identical for kGrid
  /// and kLinear — the index changes how candidates are found, never
  /// which ones are evaluated.
  void bind_stats(obs::StatsRegistry& registry);

  /// Binds the strip counters: "shard.lbts_epochs" membership
  /// rebuckets, "shard.refresh.nodes" per-strip position refreshes.
  /// Opt-in and separate from bind_stats: the scenario runners do not
  /// bind these, so a run's stats snapshot is the same at any strip count.
  void bind_shard_stats(obs::StatsRegistry& registry);

 private:
  void detach_slot(std::uint32_t slot) noexcept;
  /// Max-interaction radius for this transmit power against the most
  /// sensitive attached radio; nullopt when the model can't bound range.
  std::optional<double> interaction_radius(double tx_power_w);
  /// Sizes the strip state: floor(extent / radius) strips when a plan,
  /// a grid index and a bounded `radius` allow it, else one.
  void resolve_strips(const std::optional<double>& radius);
  /// Re-evaluates every live position at `now` and rebuilds strip
  /// membership (churn, invalidation, or a multi-strip epoch).
  void rebucket(SimTime now);
  /// Evaluates every live radio's position at `now` into positions_.
  /// Slots whose mobility model exposes a BatchMobilityProvider are
  /// served in bulk (one virtual call per run of consecutive same-
  /// provider slots) instead of per-radio virtual dispatch.
  void eval_all_positions(SimTime now);
  /// Same, for an explicit slot list (a strip's members).
  void eval_member_positions(SimTime now,
                             std::span<const std::uint32_t> member_slots);
  /// Ensures strip `s`'s members have fresh positions at `now`.
  void refresh_strip(std::uint32_t s, SimTime now);

  netsim::Simulator* sim_;
  std::unique_ptr<PropagationModel> model_;
  ChannelIndex index_;

  // Slot-addressed radio table: slots keep their index for the lifetime
  // of the channel (Attachment handles store it), detach tombstones the
  // slot. Iteration order == attach order, which fixes the event
  // schedule order and therefore byte-level determinism.
  std::vector<WifiPhy*> slots_;
  std::vector<std::uint8_t> live_;
  std::vector<Vec2> positions_;  ///< snapshot, parallel to slots_
  std::size_t live_count_ = 0;

  /// Batch-dispatch table, parallel to slots_: the slot's mobility
  /// provider (nullptr = per-radio dispatch) and its member id there.
  /// Captured at attach time, cleared on detach.
  std::vector<const netsim::BatchMobilityProvider*> batch_provider_;
  std::vector<std::uint32_t> batch_member_;
  std::size_t batch_count_ = 0;  ///< live slots with a provider

  std::vector<std::uint32_t> scratch_;  ///< query results, reused

  /// Smallest carrier-sense threshold over attached radios — the radius
  /// bound must cover the most sensitive receiver.
  double min_cs_threshold_w_ = 0.0;
  bool min_cs_valid_ = false;
  /// Single-entry cache: tx power -> solved radius (tx power is uniform
  /// in practice, so the solve runs once per attach/detach epoch).
  std::optional<std::pair<double, std::optional<double>>> radius_cache_;

  obs::Counter obs_tx_;         ///< chan.tx
  obs::Counter obs_evaluated_;  ///< chan.evaluated
  obs::Counter obs_culled_;     ///< chan.culled

  // --- strips (configure_shards) ---
  std::optional<ShardPlan> plan_;
  ShardMap shards_;
  /// Per-strip snapshot time and grid; empty until the first transmit
  /// resolves the strip count. Every membership rebucket refreshes all
  /// strips, so a strip's snapshot is valid once its time is `now`.
  struct Strip {
    SimTime snapshot_time = SimTime::zero();
    bool grid_built = false;
    SpatialGrid grid;
  };
  std::vector<Strip> strips_;

  std::uint64_t diag_refreshed_ = 0;
  obs::Counter obs_shard_epochs_;   ///< shard.lbts_epochs
  obs::Counter obs_shard_refresh_;  ///< shard.refresh.nodes
};

}  // namespace cavenet::phy

#endif  // CAVENET_PHY_CHANNEL_H
