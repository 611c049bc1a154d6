#include "routing/olsr.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <tuple>
#include <utility>

namespace cavenet::routing::olsr {

using netsim::kBroadcast;
using netsim::NodeId;
using netsim::Packet;

OlsrProtocol::OlsrProtocol(netsim::Simulator& sim, netsim::LinkLayer& link,
                           OlsrParams params)
    : RoutingProtocol(sim, link, "olsr", 0x6f6c7372), params_(params) {}

void OlsrProtocol::start() {
  sim_->schedule(jitter(), "olsr", [this] { hello_timer(); });
  sim_->schedule(jitter() + SimTime::nanoseconds(params_.tc_interval.ns() / 2),
                 "olsr", [this] { tc_timer(); });
  sim_->schedule(jitter() + SimTime::seconds(1), "olsr",
                 [this] { hna_timer(); });
}

void OlsrProtocol::add_local_network(NodeId network) {
  local_networks_.push_back(network);
}

const RoutingTable& OlsrProtocol::table() const {
  materialize_routes();
  return table_;
}

std::optional<NodeId> OlsrProtocol::gateway_for(NodeId network) const {
  materialize_routes();
  const RouteEntry* route = nullptr;
  NodeId gateway = 0;
  for (const auto& assoc : hna_associations_) {
    if (assoc.network != network || assoc.expires <= sim_->now()) continue;
    const RouteEntry* candidate = table_.lookup(assoc.gateway, sim_->now());
    if (candidate == nullptr) continue;
    if (route == nullptr || candidate->hop_count < route->hop_count) {
      route = candidate;
      gateway = assoc.gateway;
    }
  }
  if (route == nullptr) return std::nullopt;
  return gateway;
}

const RouteEntry* OlsrProtocol::resolve(NodeId dst) const {
  materialize_routes();
  if (const RouteEntry* direct = table_.lookup(dst, sim_->now())) {
    return direct;
  }
  // No host route: try the HNA association set, nearest gateway first.
  if (const auto gateway = gateway_for(dst)) {
    return table_.lookup(*gateway, sim_->now());
  }
  return nullptr;
}

void OlsrProtocol::send(Packet packet, NodeId destination) {
  DataHeader header;
  header.src = address();
  header.dst = destination;
  header.ttl = 32;
  packet.push(header);
  ++stats_.data_originated;
  if (const RouteEntry* route = resolve(destination)) {
    send_data_link(std::move(packet), route->next_hop);
    return;
  }
  // Proactive protocol: no discovery to wait for — if the topology has no
  // path right now, the packet is lost (a root cause of OLSR's lower
  // goodput in the paper's comparison).
  ++stats_.drops_no_route;
}

bool OlsrProtocol::link_is_sym(NodeId neighbor) const {
  const auto it = links_.find(neighbor);
  return it != links_.end() && it->second.sym_until > sim_->now();
}

std::vector<NodeId> OlsrProtocol::symmetric_neighbors() const {
  std::vector<NodeId> out;
  for (const auto& [addr, link] : links_) {
    if (link.sym_until > sim_->now()) out.push_back(addr);
  }
  return out;
}

double OlsrProtocol::link_etx(NodeId neighbor) const {
  const auto it = links_.find(neighbor);
  if (it == links_.end()) return std::numeric_limits<double>::infinity();
  const double ni = it->second.ni;
  const double lqi = it->second.lqi;
  if (ni <= 0.0 || lqi <= 0.0) return std::numeric_limits<double>::infinity();
  return 1.0 / (ni * lqi);
}

void OlsrProtocol::hello_timer() {
  expire_state();
  select_mprs();

  HelloHeader hello;
  hello.origin = address();
  for (const auto& [addr, link] : links_) {
    if (link.asym_until <= sim_->now() && link.sym_until <= sim_->now()) {
      continue;
    }
    HelloHeader::NeighborEntry entry;
    entry.addr = addr;
    if (mprs_.contains(addr)) entry.code = LinkCode::kMpr;
    else if (link.sym_until > sim_->now()) entry.code = LinkCode::kSym;
    else entry.code = LinkCode::kAsym;
    entry.link_quality = static_cast<std::uint8_t>(
        std::clamp(link.ni * 255.0, 0.0, 255.0));
    hello.neighbors.push_back(entry);
  }
  Packet packet(0);
  packet.push(hello);
  send_control(std::move(packet), kBroadcast);

  ++hello_ticks_;
  if (params_.use_etx && hello_ticks_ % params_.etx_window == 0) {
    etx_window_rollover();
  }
  compute_routes();
  sim_->schedule(params_.hello_interval + jitter(10), "olsr",
                 [this] { hello_timer(); });
}

void OlsrProtocol::etx_window_rollover() {
  for (auto& [addr, link] : links_) {
    const double ni =
        std::min(1.0, static_cast<double>(link.hellos_in_window) /
                          static_cast<double>(params_.etx_window));
    if (ni != link.ni) {
      link.ni = ni;
      routes_dirty_ = true;
    }
    link.hellos_in_window = 0;
  }
}

void OlsrProtocol::tc_timer() {
  expire_state();
  if (!mpr_selectors_.empty()) {
    TcHeader tc;
    tc.origin = address();
    tc.message_seq = ++message_seq_;
    tc.ansn = ansn_;
    tc.ttl = 255;
    for (const auto& [selector, expiry] : mpr_selectors_) {
      TcHeader::Advertised adv;
      adv.addr = selector;
      if (const auto it = links_.find(selector); it != links_.end()) {
        adv.link_quality = static_cast<std::uint8_t>(
            std::clamp(it->second.ni * 255.0, 0.0, 255.0));
      }
      tc.advertised.push_back(adv);
    }
    duplicates_[{address(), tc.message_seq}] =
        sim_->now() + params_.duplicate_hold;
    Packet packet(0);
    packet.push(tc);
    send_control(std::move(packet), kBroadcast);
  }
  sim_->schedule(params_.tc_interval + jitter(10), "olsr",
                 [this] { tc_timer(); });
}

void OlsrProtocol::on_link_receive(Packet packet, NodeId from) {
  // Const peeks: the packet may share its header stack with every other
  // receiver of the broadcast, and reading must not detach it.
  if (const HelloHeader* hello = std::as_const(packet).peek<HelloHeader>()) {
    handle_hello(*hello, from);
  } else if (std::as_const(packet).peek<TcHeader>() != nullptr) {
    const TcHeader tc = *std::as_const(packet).peek<TcHeader>();
    handle_tc(std::move(packet), tc, from);
  } else if (const HnaHeader* hna = std::as_const(packet).peek<HnaHeader>()) {
    handle_hna(*hna, from);
  } else if (std::as_const(packet).peek<DataHeader>() != nullptr) {
    forward_data(std::move(packet), from);
  }
}

void OlsrProtocol::handle_hello(const HelloHeader& hello, NodeId from) {
  const SimTime hold = params_.neighbor_hold();
  LinkTuple& link = links_[from];
  link.asym_until = sim_->now() + hold;
  ++link.hellos_in_window;
  // Without ETX, ni enters no route cost: not a route input.
  if (!params_.use_etx) link.ni = 1.0;

  bool lists_me = false;
  for (const auto& entry : hello.neighbors) {
    if (entry.addr == address()) {
      lists_me = true;
      const double lqi = params_.use_etx
                             ? static_cast<double>(entry.link_quality) / 255.0
                             : 1.0;
      if (lqi != link.lqi) {
        link.lqi = lqi;
        routes_dirty_ = true;
      }
      // The neighbour selected us as MPR: record selector.
      if (entry.code == LinkCode::kMpr) {
        const bool is_new = !mpr_selectors_.contains(from);
        mpr_selectors_[from] = sim_->now() + hold;
        if (is_new) ++ansn_;
      }
    }
  }
  if (lists_me) {
    if (link.sym_until <= sim_->now()) routes_dirty_ = true;  // turns sym
    link.sym_until = sim_->now() + hold;
  }

  // 2-hop neighbourhood: symmetric neighbours of a symmetric neighbour.
  if (link.sym_until > sim_->now()) {
    for (const auto& entry : hello.neighbors) {
      if (entry.addr == address()) continue;
      if (entry.code == LinkCode::kAsym) continue;
      const auto match = std::find_if(
          two_hop_.begin(), two_hop_.end(), [&](const TwoHopTuple& t) {
            return t.neighbor == from && t.two_hop == entry.addr;
          });
      if (match != two_hop_.end()) {
        match->expires = sim_->now() + hold;
      } else {
        two_hop_.push_back({from, entry.addr, sim_->now() + hold});
      }
    }
  }
  compute_routes();
}

void OlsrProtocol::handle_tc(Packet packet, const TcHeader& tc, NodeId from) {
  (void)packet;
  if (tc.origin == address()) return;
  if (!link_is_sym(from)) return;  // RFC 9.5: accept only from sym neighbours

  const auto key = std::make_pair(tc.origin, tc.message_seq);
  const bool duplicate = duplicates_.contains(key);
  if (!duplicate) {
    duplicates_[key] = sim_->now() + params_.duplicate_hold;

    // Purge older ANSN tuples from this origin, then record the new set.
    if (std::erase_if(topology_, [&](const TopologyTuple& t) {
          return t.last_hop == tc.origin &&
                 static_cast<std::int16_t>(tc.ansn - t.ansn) > 0;
        }) > 0) {
      routes_dirty_ = true;
    }
    for (const auto& adv : tc.advertised) {
      const auto match = std::find_if(
          topology_.begin(), topology_.end(), [&](const TopologyTuple& t) {
            return t.dest == adv.addr && t.last_hop == tc.origin;
          });
      const double quality =
          params_.use_etx ? static_cast<double>(adv.link_quality) / 255.0
                          : 1.0;
      if (match != topology_.end()) {
        // A refresh changes the routes only if the tuple had expired
        // (unused by the last calculation) or its cost moved.
        if (match->expires <= sim_->now() || match->quality != quality) {
          routes_dirty_ = true;
        }
        match->ansn = tc.ansn;
        match->expires = sim_->now() + params_.topology_hold();
        match->quality = quality;
      } else {
        topology_.push_back({adv.addr, tc.origin, tc.ansn,
                             sim_->now() + params_.topology_hold(), quality});
        routes_dirty_ = true;
      }
    }
    compute_routes();
  }

  // MPR flooding rule: retransmit only if the sender selected us as MPR.
  if (!duplicate && mpr_selectors_.contains(from) && tc.ttl > 1) {
    TcHeader fwd = tc;
    --fwd.ttl;
    Packet out(0);
    out.push(fwd);
    send_control(std::move(out), kBroadcast);
  }
}

void OlsrProtocol::forward_data(Packet packet, NodeId from) {
  (void)from;
  const DataHeader* header = std::as_const(packet).peek<DataHeader>();
  // A gateway terminates traffic for its associated networks (the packet
  // would leave the MANET through the uplink here).
  if (std::find(local_networks_.begin(), local_networks_.end(),
                header->dst) != local_networks_.end()) {
    const DataHeader popped = packet.pop<DataHeader>();
    deliver(std::move(packet), popped.src, popped.hops);
    return;
  }
  if (header->dst == address()) {
    const DataHeader popped = packet.pop<DataHeader>();
    deliver(std::move(packet), popped.src, popped.hops);
    return;
  }
  if (header->ttl <= 1) {
    ++stats_.drops_ttl;
    return;
  }
  const NodeId dst = header->dst;
  // Forwarding rewrites ttl/hops: only now take a writable header
  // (detaching a stack shared with the other broadcast receivers).
  DataHeader* fwd = packet.peek<DataHeader>();
  --fwd->ttl;
  ++fwd->hops;
  if (const RouteEntry* route = resolve(dst)) {
    ++stats_.data_forwarded;
    send_data_link(std::move(packet), route->next_hop);
    return;
  }
  ++stats_.drops_no_route;
}

void OlsrProtocol::hna_timer() {
  if (!local_networks_.empty()) {
    HnaHeader hna;
    hna.origin = address();
    hna.message_seq = ++message_seq_;
    hna.ttl = 255;
    hna.networks = local_networks_;
    duplicates_[{address(), hna.message_seq}] =
        sim_->now() + params_.duplicate_hold;
    Packet packet(0);
    packet.push(hna);
    send_control(std::move(packet), kBroadcast);
  }
  sim_->schedule(params_.hna_interval + jitter(10), "olsr",
                 [this] { hna_timer(); });
}

void OlsrProtocol::handle_hna(const HnaHeader& hna, NodeId from) {
  if (hna.origin == address()) return;
  if (!link_is_sym(from)) return;

  const auto key = std::make_pair(hna.origin, hna.message_seq);
  const bool duplicate = duplicates_.contains(key);
  if (!duplicate) {
    duplicates_[key] = sim_->now() + params_.duplicate_hold;
    for (const NodeId network : hna.networks) {
      const auto match = std::find_if(
          hna_associations_.begin(), hna_associations_.end(),
          [&](const HnaTuple& t) {
            return t.network == network && t.gateway == hna.origin;
          });
      if (match != hna_associations_.end()) {
        match->expires = sim_->now() + params_.hna_hold();
      } else {
        hna_associations_.push_back(
            {network, hna.origin, sim_->now() + params_.hna_hold()});
      }
    }
  }
  // Same MPR flooding rule as TC.
  if (!duplicate && mpr_selectors_.contains(from) && hna.ttl > 1) {
    HnaHeader fwd = hna;
    --fwd.ttl;
    Packet out(0);
    out.push(fwd);
    send_control(std::move(out), kBroadcast);
  }
}

void OlsrProtocol::expire_state() {
  const SimTime now = sim_->now();
  // A pending calculation filters at its own, earlier time: once a link or
  // tuple it uses may have expired, run it before the erasures below.
  if (now >= routes_valid_until_) materialize_routes();
  if (std::erase_if(links_, [&](const auto& kv) {
        return kv.second.sym_until <= now && kv.second.asym_until <= now;
      }) > 0) {
    routes_dirty_ = true;
  }
  std::erase_if(two_hop_,
                [&](const TwoHopTuple& t) { return t.expires <= now; });
  const std::size_t selectors_before = mpr_selectors_.size();
  std::erase_if(mpr_selectors_,
                [&](const auto& kv) { return kv.second <= now; });
  if (mpr_selectors_.size() != selectors_before) ++ansn_;
  if (std::erase_if(topology_, [&](const TopologyTuple& t) {
        return t.expires <= now;
      }) > 0) {
    routes_dirty_ = true;
  }
  std::erase_if(hna_associations_,
                [&](const HnaTuple& t) { return t.expires <= now; });
  std::erase_if(duplicates_,
                [&](const auto& kv) { return kv.second <= now; });
}

void OlsrProtocol::select_mprs() {
  // Greedy set cover (RFC 8.3.1 heuristic): first neighbours that are the
  // sole cover of some 2-hop node, then best coverage counts (ties go to
  // the lowest neighbour id).
  const SimTime now = sim_->now();
  mpr_candidates_.clear();
  for (const auto& [addr, link] : links_) {
    if (link.sym_until > now) mpr_candidates_.push_back(addr);
  }
  const auto is_neighbor = [this](NodeId n) {
    return std::binary_search(mpr_candidates_.begin(), mpr_candidates_.end(),
                              n);
  };

  // Strict 2-hop set: reachable via a sym neighbour, not a neighbour or us.
  coverage_.clear();
  for (const auto& t : two_hop_) {
    if (t.expires <= now || !is_neighbor(t.neighbor)) continue;
    if (t.two_hop == address() || is_neighbor(t.two_hop)) continue;
    coverage_.emplace_back(
        t.two_hop,
        static_cast<std::uint32_t>(
            std::lower_bound(mpr_candidates_.begin(), mpr_candidates_.end(),
                             t.neighbor) -
            mpr_candidates_.begin()));
  }
  std::sort(coverage_.begin(), coverage_.end());
  // Calls f(first, last) for each 2-hop node's run of coverers.
  const auto for_each_two_hop = [this](auto&& f) {
    for (auto run = coverage_.begin(); run != coverage_.end();) {
      auto last = run;
      while (last != coverage_.end() && last->first == run->first) ++last;
      f(run, last);
      run = last;
    }
  };

  is_mpr_.assign(mpr_candidates_.size(), 0);
  for_each_two_hop([this](auto first, auto last) {
    if (last - first == 1) is_mpr_[first->second] = 1;
  });
  while (true) {
    // Coverage count of every neighbour over the still-uncovered nodes;
    // MPRs cover none of those, so they count 0.
    cover_counts_.assign(mpr_candidates_.size(), 0);
    bool uncovered = false;
    for_each_two_hop([this, &uncovered](auto first, auto last) {
      if (std::any_of(first, last,
                      [this](const auto& c) { return is_mpr_[c.second]; })) {
        return;
      }
      uncovered = true;
      for (; first != last; ++first) ++cover_counts_[first->second];
    });
    if (!uncovered) break;
    const auto best =
        std::max_element(cover_counts_.begin(), cover_counts_.end());
    is_mpr_[static_cast<std::size_t>(best - cover_counts_.begin())] = 1;
  }

  mprs_.clear();
  for (std::size_t i = 0; i < mpr_candidates_.size(); ++i) {
    if (is_mpr_[i]) mprs_.insert(mprs_.end(), mpr_candidates_[i]);
  }
}

void OlsrProtocol::compute_routes() {
  const SimTime now = sim_->now();
  if (!routes_dirty_ && now < routes_valid_until_) return;
  routes_dirty_ = false;
  routes_valid_until_ = SimTime::max();
  for (const auto& [addr, link] : links_) {
    if (link.sym_until <= now) continue;
    routes_valid_until_ = std::min(routes_valid_until_, link.sym_until);
  }
  for (const auto& t : topology_) {
    if (t.expires <= now) continue;
    routes_valid_until_ = std::min(routes_valid_until_, t.expires);
  }
  // A later change that would alter the result at `now` either marks the
  // routes dirty (and the next call site re-marks) or erases an entry the
  // calculation uses (and expire_state runs it first); a refresh of an
  // unexpired entry does not. So running it later at `now` yields the
  // table a run right here would have.
  routes_time_ = now;
  routes_pending_ = true;
}

void OlsrProtocol::materialize_routes() const {
  if (!routes_pending_) return;
  routes_pending_ = false;
  const SimTime now = routes_time_;

  // Dijkstra over sym links + topology edges. Cost is 1 per hop, or ETX
  // when the LQ extension is active. The frontier is a binary heap driven
  // exactly as std::priority_queue drives it, so equal-cost ties pop in
  // the same order.
  constexpr double kUnreached = std::numeric_limits<double>::infinity();
  const auto push = [this](FrontierItem item) {
    frontier_.push_back(item);
    std::push_heap(frontier_.begin(), frontier_.end(), std::greater<>{});
  };
  frontier_.clear();
  nodes_.clear();
  for (const auto& [addr, link] : links_) {
    if (link.sym_until <= now) continue;
    const double cost = params_.use_etx ? link_etx(addr) : 1.0;
    if (cost == kUnreached) continue;
    push({cost, 1, addr, addr});
    nodes_.push_back(addr);
  }

  // Adjacency from the topology set: last_hop -> dest, each last_hop's
  // edges in topology-set order (a stable sort; the order key makes
  // std::sort stable without std::stable_sort's scratch allocation).
  edges_.clear();
  for (const auto& t : topology_) {
    if (t.expires <= now) continue;
    const double cost =
        params_.use_etx ? (t.quality > 0.0 ? 1.0 / t.quality : 0.0) : 1.0;
    if (cost <= 0.0 || t.dest == address()) continue;
    edges_.push_back({t.last_hop, static_cast<std::uint32_t>(edges_.size()),
                      t.dest, cost});
    nodes_.push_back(t.dest);
  }
  std::sort(edges_.begin(), edges_.end(), [](const Edge& a, const Edge& b) {
    return std::tie(a.last_hop, a.order) < std::tie(b.last_hop, b.order);
  });
  std::sort(nodes_.begin(), nodes_.end());
  nodes_.erase(std::unique(nodes_.begin(), nodes_.end()), nodes_.end());
  reached_.assign(nodes_.size(), {kUnreached, 0, 0});

  while (!frontier_.empty()) {
    std::pop_heap(frontier_.begin(), frontier_.end(), std::greater<>{});
    const FrontierItem item = frontier_.back();
    frontier_.pop_back();
    Reached& reached = reached_[static_cast<std::size_t>(
        std::lower_bound(nodes_.begin(), nodes_.end(), item.node) -
        nodes_.begin())];
    // Costs are finite and positive, so a reached node never improves.
    if (reached.cost <= item.cost) continue;
    reached = {item.cost, item.first_hop, item.hops};

    for (auto edge = std::lower_bound(
             edges_.begin(), edges_.end(), item.node,
             [](const Edge& e, NodeId node) { return e.last_hop < node; });
         edge != edges_.end() && edge->last_hop == item.node; ++edge) {
      push({item.cost + edge->cost, item.hops + 1, edge->dest,
            item.first_hop});
    }
  }

  // Rewrite the table in place, merging two id-sorted sequences: entries
  // of destinations still reached are reused rather than reallocated.
  auto& entries = table_.entries();
  auto entry = entries.begin();
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (reached_[i].cost == kUnreached) continue;
    while (entry != entries.end() && entry->first < nodes_[i]) {
      entry = entries.erase(entry);
    }
    if (entry == entries.end() || entry->first != nodes_[i]) {
      entry = entries.emplace_hint(entry, nodes_[i], RouteEntry{});
    }
    entry->second = RouteEntry{.next_hop = reached_[i].next_hop,
                               .hop_count = reached_[i].hops,
                               .valid = true,
                               .expires = SimTime::max()};
    ++entry;
  }
  entries.erase(entry, entries.end());
}

}  // namespace cavenet::routing::olsr
