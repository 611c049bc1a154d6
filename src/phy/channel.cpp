#include "phy/channel.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <span>
#include <stdexcept>
#include <utility>

#include "util/units.h"

namespace cavenet::phy {

namespace {
/// Indices per batched position call: a position lookup is a binary
/// search plus interpolation, so runs this long amortize the virtual
/// call while the member/result buffers stay on the stack.
constexpr std::size_t kRefreshGrain = 256;
/// Upper bound on the derived strip count, so a degenerate extent (or a
/// tiny radius) cannot size millions of empty strips.
constexpr double kMaxStrips = 4096.0;
}  // namespace

Channel::Attachment::Attachment(Attachment&& other) noexcept
    : channel_(std::exchange(other.channel_, nullptr)), slot_(other.slot_) {}

Channel::Attachment& Channel::Attachment::operator=(
    Attachment&& other) noexcept {
  if (this != &other) {
    detach();
    channel_ = std::exchange(other.channel_, nullptr);
    slot_ = other.slot_;
  }
  return *this;
}

void Channel::Attachment::detach() noexcept {
  if (channel_ == nullptr) return;
  channel_->detach_slot(slot_);
  channel_ = nullptr;
}

Channel::Channel(netsim::Simulator& sim,
                 std::unique_ptr<PropagationModel> model, ChannelIndex index)
    : sim_(&sim), model_(std::move(model)), index_(index) {
  if (!model_) throw std::invalid_argument("channel needs a propagation model");
}

Channel::Attachment Channel::attach(WifiPhy* phy) {
  if (phy == nullptr) throw std::invalid_argument("null radio");
  if (phy->channel_ != nullptr) {
    throw std::logic_error("radio is already attached to a channel");
  }
  const auto slot = static_cast<std::uint32_t>(slots_.size());
  slots_.push_back(phy);
  live_.push_back(1);
  positions_.push_back({});
  const netsim::MobilityModel* mobility = phy->mobility();
  const netsim::BatchMobilityProvider* provider =
      mobility != nullptr ? mobility->batch_provider() : nullptr;
  batch_provider_.push_back(provider);
  batch_member_.push_back(mobility != nullptr ? mobility->batch_member() : 0);
  if (provider != nullptr) ++batch_count_;
  ++live_count_;
  phy->set_channel(this, slot);
  if (min_cs_valid_) {
    min_cs_threshold_w_ =
        std::min(min_cs_threshold_w_, phy->params().profile.cs_threshold_w);
  } else {
    min_cs_threshold_w_ = phy->params().profile.cs_threshold_w;
    min_cs_valid_ = true;
  }
  radius_cache_.reset();
  // Membership churn: strip assignment must be rebuilt before use.
  shards_.invalidate();
  return Attachment(this, slot);
}

void Channel::detach_slot(std::uint32_t slot) noexcept {
  if (slot >= slots_.size() || !live_[slot]) return;
  slots_[slot]->set_channel(nullptr, 0);
  slots_[slot] = nullptr;
  live_[slot] = 0;
  if (batch_provider_[slot] != nullptr) {
    batch_provider_[slot] = nullptr;
    --batch_count_;
  }
  --live_count_;
  // The detached radio may have been the most sensitive one; rescan.
  min_cs_valid_ = false;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (!live_[i]) continue;
    const double thr = slots_[i]->params().profile.cs_threshold_w;
    min_cs_threshold_w_ = min_cs_valid_ ? std::min(min_cs_threshold_w_, thr)
                                        : thr;
    min_cs_valid_ = true;
  }
  radius_cache_.reset();
  shards_.invalidate();
}

void Channel::bind_stats(obs::StatsRegistry& registry) {
  obs_tx_ = registry.counter("chan.tx");
  obs_evaluated_ = registry.counter("chan.evaluated");
  obs_culled_ = registry.counter("chan.culled");
}

void Channel::bind_shard_stats(obs::StatsRegistry& registry) {
  obs_shard_epochs_ = registry.counter("shard.lbts_epochs");
  obs_shard_refresh_ = registry.counter("shard.refresh.nodes");
  // Re-publish activity from before the registry was attached.
  obs_shard_epochs_.inc(shards_.epochs());
  obs_shard_refresh_.inc(diag_refreshed_);
}

void Channel::configure_shards(const ShardPlan& plan) {
  if (plan.max_speed_mps < 0.0) {
    throw std::invalid_argument("shard max speed must be >= 0");
  }
  plan_ = plan;
  strips_.clear();  // re-resolved at the next transmit
  shards_.invalidate();
}

void Channel::resolve_strips(const std::optional<double>& radius) {
  // A strip narrower than the interaction radius buys nothing — every
  // query would touch several strips — so the world holds as many
  // radius-wide strips as fit its extent (docs/SCALING.md "Channel
  // strips"). The kLinear reference keeps one: it exists to be the
  // brute-force baseline the strip path is compared against.
  double count = 1.0;
  if (plan_ && radius && *radius > 0.0 && index_ == ChannelIndex::kGrid) {
    const double cap = std::floor((plan_->x_max - plan_->x_min) / *radius);
    if (cap > 1.0) count = std::min(cap, kMaxStrips);
  }
  const auto strips = static_cast<std::uint32_t>(count);
  if (strips > 1) {
    shards_.configure(strips, plan_->x_min, plan_->x_max,
                      plan_->max_speed_mps);
  } else {
    shards_.configure(1, 0.0, 0.0, 0.0);
  }
  strips_.assign(strips, Strip{});
}

void Channel::rebucket(SimTime now) {
  // One full O(radios) position pass per rebucket; between rebuckets the
  // per-transmit cost is the touched strips only.
  eval_all_positions(now);
  shards_.rebucket(now, positions_, live_);
  for (Strip& strip : strips_) {
    strip.snapshot_time = now;
    strip.grid_built = false;
  }
  obs_shard_epochs_.inc();
  obs_shard_refresh_.inc(live_count_);
  diag_refreshed_ += live_count_;
}

void Channel::refresh_strip(std::uint32_t s, SimTime now) {
  Strip& strip = strips_[s];
  if (strip.snapshot_time == now) return;
  const std::vector<std::uint32_t>& members = shards_.members(s);
  eval_member_positions(now, members);
  strip.snapshot_time = now;
  strip.grid_built = false;
  obs_shard_refresh_.inc(members.size());
  diag_refreshed_ += members.size();
}

std::optional<double> Channel::interaction_radius(double tx_power_w) {
  if (!min_cs_valid_) return std::nullopt;
  if (radius_cache_ && radius_cache_->first == tx_power_w) {
    return radius_cache_->second;
  }
  std::optional<double> radius =
      model_->max_range_m(tx_power_w, min_cs_threshold_w_);
  radius_cache_ = {tx_power_w, radius};
  return radius;
}

void Channel::eval_all_positions(SimTime now) {
  if (batch_count_ == 0) {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (live_[i]) positions_[i] = slots_[i]->position_at(now);
    }
    return;
  }
  // Batched dispatch: runs of consecutive live slots sharing a provider
  // (attach order == node order in the scenario runners, so this is one
  // run per provider in practice) are served with one positions_at call
  // straight into the snapshot, kRefreshGrain members at a time. The
  // values are the ones per-radio dispatch would have produced — only
  // the call count changes.
  const std::size_t n = slots_.size();
  std::array<std::uint32_t, kRefreshGrain> members;
  std::size_t i = 0;
  while (i < n) {
    if (!live_[i]) {
      ++i;
      continue;
    }
    const netsim::BatchMobilityProvider* provider = batch_provider_[i];
    if (provider == nullptr) {
      positions_[i] = slots_[i]->position_at(now);
      ++i;
      continue;
    }
    std::size_t j = i;
    while (j < n && j - i < kRefreshGrain && live_[j] &&
           batch_provider_[j] == provider) {
      ++j;
    }
    for (std::size_t k = i; k < j; ++k) members[k - i] = batch_member_[k];
    provider->positions_at(
        now, std::span<const std::uint32_t>(members.data(), j - i),
        std::span<Vec2>(positions_.data() + i, j - i));
    i = j;
  }
}

void Channel::eval_member_positions(
    SimTime now, std::span<const std::uint32_t> member_slots) {
  if (batch_count_ == 0) {
    for (const std::uint32_t slot : member_slots) {
      positions_[slot] = slots_[slot]->position_at(now);
    }
    return;
  }
  // Strip members are scattered slots, so gather member ids and scatter
  // results through stack buffers, one provider-run at a time.
  const std::size_t n = member_slots.size();
  std::array<std::uint32_t, kRefreshGrain> members;
  std::array<Vec2, kRefreshGrain> out;
  std::size_t i = 0;
  while (i < n) {
    const std::uint32_t slot = member_slots[i];
    const netsim::BatchMobilityProvider* provider = batch_provider_[slot];
    if (provider == nullptr) {
      positions_[slot] = slots_[slot]->position_at(now);
      ++i;
      continue;
    }
    std::size_t j = i;
    while (j < n && j - i < kRefreshGrain &&
           batch_provider_[member_slots[j]] == provider) {
      ++j;
    }
    for (std::size_t k = i; k < j; ++k) {
      members[k - i] = batch_member_[member_slots[k]];
    }
    provider->positions_at(
        now, std::span<const std::uint32_t>(members.data(), j - i),
        std::span<Vec2>(out.data(), j - i));
    for (std::size_t k = i; k < j; ++k) positions_[member_slots[k]] = out[k - i];
    i = j;
  }
}

void Channel::transmit(const WifiPhy& sender, const netsim::Packet& packet,
                       SimTime duration, double tx_power_w) {
  obs_tx_.inc();
  const std::optional<double> radius = interaction_radius(tx_power_w);
  const std::uint32_t sender_slot = sender.channel_slot_;
  const SimTime now = sim_->now();
  if (strips_.empty()) resolve_strips(radius);
  if (shards_.needs_rebucket(now)) rebucket(now);
  // The sender's position is a pure function of `now`; evaluating it
  // directly is bit-identical to reading a refreshed snapshot.
  const Vec2 tx_pos = sender.position();
  std::uint64_t evaluated = 0;

  // Shared per-candidate step: exact distance cull (only when the model
  // bounds range), then the receive-power evaluation and the receiver's
  // own carrier-sense cull, exactly as the full scan always did. The
  // candidate search (strips or full scan) only changes how candidates
  // are found — a conservative superset either way — never which ones
  // survive this exact test, so counters and deliveries are identical.
  const auto consider = [&](std::uint32_t slot) {
    const Vec2 rx_pos = positions_[slot];
    const double d = distance(tx_pos, rx_pos);
    if (radius && d > *radius) return;
    ++evaluated;
    WifiPhy* rx = slots_[slot];
    const double power = model_->rx_power_w(tx_power_w, tx_pos, rx_pos);
    if (power < rx->params().profile.cs_threshold_w) return;
    const double delay_s = d / kSpeedOfLight;
    // The per-receiver copy shares the header stack (COW), so this is a
    // refcount bump, and the whole delivery closure fits the scheduler's
    // inline action buffer: the hottest path in the kernel allocates
    // nothing per receiver.
    netsim::Packet copy = packet;
    auto deliver = [rx, copy = std::move(copy), power, duration]() mutable {
      rx->begin_receive(std::move(copy), power, duration);
    };
    static_assert(sizeof(deliver) <= netsim::detail::InlineAction::kCapacity,
                  "broadcast delivery must stay allocation-free");
    sim_->schedule(SimTime::from_seconds(delay_s), "chan", std::move(deliver));
  };

  if (radius && index_ == ChannelIndex::kGrid) {
    // Only the strips the interaction radius plus the drift margin can
    // reach get their positions refreshed and their grids queried.
    const double reach = *radius + shards_.margin_at(now);
    const std::uint32_t s0 = shards_.strip_of_x(tx_pos.x - reach);
    const std::uint32_t s1 = shards_.strip_of_x(tx_pos.x + reach);
    scratch_.clear();
    for (std::uint32_t s = s0; s <= s1; ++s) {
      refresh_strip(s, now);
      Strip& strip = strips_[s];
      if (!strip.grid_built) {
        strip.grid.rebuild(positions_, shards_.members(s), *radius);
        strip.grid_built = true;
      }
      strip.grid.query(tx_pos, *radius, scratch_);
    }
    // Each strip's query results are ascending; restore the global
    // attach order across strips so delivery scheduling is the same at
    // any strip count.
    if (s0 != s1) std::sort(scratch_.begin(), scratch_.end());
    for (const std::uint32_t slot : scratch_) {
      if (slot != sender_slot) consider(slot);
    }
  } else {
    for (std::uint32_t s = 0; s < strips_.size(); ++s) refresh_strip(s, now);
    for (std::uint32_t slot = 0; slot < slots_.size(); ++slot) {
      if (live_[slot] && slot != sender_slot) consider(slot);
    }
  }

  obs_evaluated_.inc(evaluated);
  obs_culled_.inc(static_cast<std::uint64_t>(live_count_) - 1 - evaluated);
}

}  // namespace cavenet::phy
