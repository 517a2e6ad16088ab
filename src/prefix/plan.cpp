#include "src/prefix/plan.h"

#include <algorithm>
#include <functional>
#include <stdexcept>

namespace peel {
namespace {

struct Layout {
  const Topology* topo = nullptr;
  int pod_count = 1;
  int tors_per_pod = 0;
  int hosts_per_rack = 0;
  /// Resolves (pod, tor index) to the ToR node, kInvalidNode if absent.
  std::function<NodeId(int, int)> tor_at;
};

/// One fabric member host, keyed by where its rack sits.
struct MemberHost {
  int pod = 0;
  int tor_idx = 0;
  int host_idx = 0;  ///< index within the rack
  NodeId tor = kInvalidNode;  ///< the rack's ToR, fixed by (pod, tor_idx)

  auto operator<=>(const MemberHost&) const = default;
};

/// One pod's share of a (ToR-prefix, host-prefix) packet class: its member
/// racks are rack_tors[member_begin, member_end), its over-covered racks
/// [member_end, redundant_end). Sorting groups a class's slices, pods
/// ascending.
struct ClassSlice {
  Prefix tor_prefix;
  Prefix host_prefix;
  int pod = 0;
  std::uint32_t member_begin = 0, member_end = 0, redundant_end = 0;

  auto operator<=>(const ClassSlice&) const = default;
  [[nodiscard]] bool same_class(const ClassSlice& o) const {
    return tor_prefix == o.tor_prefix && host_prefix == o.host_prefix;
  }
};

std::vector<Prefix> cover_of(const MemberSet& set, int m, int bound) {
  return bound > 0 ? bounded_cover(set, m, bound).prefixes : exact_cover(set, m);
}

/// Groups (host, destination position) pairs by host, keeping destination
/// order within a host.
HostMembers group_by_host(std::vector<std::pair<NodeId, std::uint32_t>> pairs,
                          std::span<const NodeId> destinations) {
  std::sort(pairs.begin(), pairs.end());
  HostMembers out;
  out.hosts.reserve(pairs.size());
  out.offsets.reserve(pairs.size() + 1);
  out.endpoints.reserve(pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    if (i > 0 && pairs[i].first == pairs[i - 1].first) {
      ++out.offsets.back();
    } else {
      out.hosts.push_back(pairs[i].first);
      out.offsets.push_back(out.offsets.back() + 1);
    }
    out.endpoints.push_back(destinations[pairs[i].second]);
  }
  return out;
}

PeelPlan build_generic(const Layout& layout, NodeId source,
                       std::span<const NodeId> destinations,
                       const PeelCoverOptions& cover) {
  const Topology& topo = *layout.topo;
  PeelPlan plan;
  plan.source = source;
  plan.destinations.assign(destinations.begin(), destinations.end());
  plan.pod_id_bits = id_bits(layout.pod_count);
  plan.tor_id_bits = id_bits(layout.tors_per_pod);
  plan.host_id_bits = id_bits(layout.hosts_per_rack);

  const NodeId src_host =
      topo.kind(source) == NodeKind::Gpu ? topo.host_of(source) : source;
  const NodeId src_tor = topo.tor_of(src_host);
  const int src_pod = static_cast<int>(topo.node(src_tor).pod);
  const int src_tor_idx = static_cast<int>(topo.node(src_tor).tier_index);

  // Fabric member hosts sorted by (pod, rack, host): runs of equal pod, and
  // within them of equal rack, replace a pod -> rack -> host-set tree.
  std::vector<MemberHost> members;
  members.reserve(destinations.size());
  std::vector<std::pair<NodeId, std::uint32_t>> by_host;
  by_host.reserve(destinations.size());
  for (NodeId d : destinations) {
    if (d == source) throw std::invalid_argument("source listed among destinations");
    const NodeId host = topo.kind(d) == NodeKind::Gpu ? topo.host_of(d) : d;
    by_host.emplace_back(host, static_cast<std::uint32_t>(by_host.size()));
    if (host == src_host) {
      plan.source_local.push_back(d);
      continue;  // delivered over NVLink, never enters the fabric
    }
    const NodeId tor = topo.tor_of(host);
    members.push_back(MemberHost{
        static_cast<int>(topo.node(tor).pod),
        static_cast<int>(topo.node(tor).tier_index),
        static_cast<int>(topo.node(host).tier_index) % layout.hosts_per_rack, tor});
  }
  plan.host_members = group_by_host(std::move(by_host), destinations);
  std::sort(members.begin(), members.end());
  members.erase(std::unique(members.begin(), members.end()), members.end());

  // Phase 1: per-pod covers, one slice per (ToR-prefix, host-prefix).
  std::vector<NodeId> rack_tors;
  std::vector<ClassSlice> slices;
  std::vector<int> ids;
  std::vector<NodeId> redundant;
  for (std::size_t pod_begin = 0; pod_begin < members.size();) {
    const int pod = members[pod_begin].pod;
    std::size_t pod_end = pod_begin;
    while (pod_end < members.size() && members[pod_end].pod == pod) ++pod_end;
    const auto racks = std::span(members).subspan(pod_begin, pod_end - pod_begin);
    pod_begin = pod_end;

    ids.clear();
    for (const MemberHost& m : racks) ids.push_back(m.tor_idx);
    const MemberSet tor_set = make_member_set(ids, plan.tor_id_bits);
    std::vector<Prefix> tor_prefixes;
    if (cover.max_tor_prefixes_per_pod > 0) {
      tor_prefixes = cover_of(tor_set, plan.tor_id_bits, cover.max_tor_prefixes_per_pod);
    } else {
      // The source's own rack is a free don't-care in its pod: the packet
      // passes its ToR on the way up anyway, so a block absorbing it saves a
      // whole extra packet at the cost of (at most) a few local redundant
      // host copies.
      MemberSet dont_care(tor_set.size(), 0);
      if (pod == src_pod && !tor_set[static_cast<std::size_t>(src_tor_idx)]) {
        dont_care[static_cast<std::size_t>(src_tor_idx)] = 1;
      }
      tor_prefixes = exact_cover(tor_set, dont_care, plan.tor_id_bits);
    }

    for (const Prefix& tp : tor_prefixes) {
      const auto first = static_cast<int>(tp.block_start(plan.tor_id_bits));
      const auto last = std::min(
          first + static_cast<int>(tp.block_size(plan.tor_id_bits)), layout.tors_per_pod);
      ClassSlice slice{tp, {}, pod, static_cast<std::uint32_t>(rack_tors.size())};
      ids.clear();  // host indices of the block's member racks
      redundant.clear();
      auto rack = std::lower_bound(
          racks.begin(), racks.end(), first,
          [](const MemberHost& m, int t) { return m.tor_idx < t; });
      for (int id = first; id < last; ++id) {
        if (rack == racks.end() || rack->tor_idx != id) {
          const NodeId tor = layout.tor_at(pod, id);
          if (tor != kInvalidNode) redundant.push_back(tor);
          continue;
        }
        rack_tors.push_back(rack->tor);
        for (; rack != racks.end() && rack->tor_idx == id; ++rack) {
          ids.push_back(rack->host_idx);
        }
      }
      slice.member_end = static_cast<std::uint32_t>(rack_tors.size());
      rack_tors.insert(rack_tors.end(), redundant.begin(), redundant.end());
      slice.redundant_end = static_cast<std::uint32_t>(rack_tors.size());
      const MemberSet host_set = make_member_set(ids, plan.host_id_bits);
      for (const Prefix& hp :
           cover_of(host_set, plan.host_id_bits, cover.max_tor_prefixes_per_pod)) {
        slice.host_prefix = hp;
        slices.push_back(slice);
      }
    }
  }

  // Phase 2: merge pods sharing a packet class into pod-prefix blocks — the
  // core-tier prefix rules replicate one packet to every pod in the block.
  std::sort(slices.begin(), slices.end());
  plan.packets.reserve(slices.size());  // every packet serves some slice
  const auto tors_of = [&rack_tors](std::uint32_t begin, std::uint32_t end) {
    return std::span(rack_tors).subspan(begin, end - begin);
  };
  for (std::size_t class_begin = 0; class_begin < slices.size();) {
    std::size_t class_end = class_begin;
    while (class_end < slices.size() &&
           slices[class_end].same_class(slices[class_begin])) {
      ++class_end;
    }
    const auto group = std::span(slices).subspan(class_begin, class_end - class_begin);
    class_begin = class_end;

    ids.clear();
    for (const ClassSlice& e : group) ids.push_back(e.pod);
    const MemberSet pod_set = make_member_set(ids, plan.pod_id_bits);
    for (const Prefix& pp : cover_of(pod_set, plan.pod_id_bits, cover.max_pod_blocks)) {
      PeelPacketRule rule;
      rule.pod_prefix = pp;
      rule.tor_prefix = group.front().tor_prefix;
      rule.host_prefix = group.front().host_prefix;
      const std::uint32_t start = pp.block_start(plan.pod_id_bits);
      const std::uint32_t size = pp.block_size(plan.pod_id_bits);
      auto entry = group.begin();
      for (std::uint32_t pod = start; pod < start + size; ++pod) {
        if (static_cast<int>(pod) >= layout.pod_count) continue;  // unequipped
        // The pod's last slice in the class, if it has one.
        const ClassSlice* slice = nullptr;
        for (; entry != group.end() && entry->pod <= static_cast<int>(pod); ++entry) {
          if (entry->pod == static_cast<int>(pod)) slice = &*entry;
        }
        if (slice == nullptr) {
          // Over-covered pod (bounded pod blocks): every live rack the ToR
          // prefix selects there receives a copy and discards it.
          const std::uint32_t tstart = rule.tor_prefix.block_start(plan.tor_id_bits);
          const std::uint32_t tsize = rule.tor_prefix.block_size(plan.tor_id_bits);
          for (std::uint32_t tid = tstart; tid < tstart + tsize; ++tid) {
            const NodeId tor = layout.tor_at(static_cast<int>(pod),
                                             static_cast<int>(tid));
            if (tor != kInvalidNode) rule.redundant_tors.push_back(tor);
          }
          continue;
        }
        rule.pods.push_back(static_cast<int>(pod));
        const auto member = tors_of(slice->member_begin, slice->member_end);
        const auto over = tors_of(slice->member_end, slice->redundant_end);
        rule.member_tors.insert(rule.member_tors.end(), member.begin(), member.end());
        rule.redundant_tors.insert(rule.redundant_tors.end(), over.begin(), over.end());
      }
      const std::uint32_t hstart = rule.host_prefix.block_start(plan.host_id_bits);
      const std::uint32_t hsize = rule.host_prefix.block_size(plan.host_id_bits);
      for (std::uint32_t h = hstart; h < hstart + hsize; ++h) {
        if (static_cast<int>(h) < layout.hosts_per_rack) {
          rule.covered_host_idx.push_back(static_cast<int>(h));
        }
      }
      plan.packets.push_back(std::move(rule));
    }
  }
  return plan;
}

}  // namespace

std::span<const NodeId> HostMembers::of(NodeId host) const {
  const auto it = std::lower_bound(hosts.begin(), hosts.end(), host);
  if (it == hosts.end() || *it != host) return {};
  const auto i = static_cast<std::size_t>(it - hosts.begin());
  return std::span(endpoints).subspan(offsets[i], offsets[i + 1] - offsets[i]);
}

std::size_t PeelPlan::redundant_rack_copies() const {
  std::size_t n = 0;
  for (const auto& p : packets) n += p.redundant_tors.size();
  return n;
}

PeelPlan build_peel_plan(const FatTree& ft, NodeId source,
                         std::span<const NodeId> destinations,
                         PeelCoverOptions cover) {
  Layout layout;
  layout.topo = &ft.topo;
  layout.pod_count = ft.pods();
  layout.tors_per_pod = ft.tors_per_pod();
  layout.hosts_per_rack = ft.hosts_per_tor();
  layout.tor_at = [&ft](int pod, int idx) { return ft.tor_at(pod, idx); };
  return build_generic(layout, source, destinations, cover);
}

PeelPlan build_peel_plan(const LeafSpine& ls, NodeId source,
                         std::span<const NodeId> destinations,
                         PeelCoverOptions cover) {
  Layout layout;
  layout.topo = &ls.topo;
  layout.pod_count = 1;
  layout.tors_per_pod = static_cast<int>(ls.leaves.size());
  layout.hosts_per_rack = ls.config.hosts_per_leaf;
  layout.tor_at = [&ls](int pod, int idx) {
    (void)pod;
    return idx < static_cast<int>(ls.leaves.size())
               ? ls.leaves[static_cast<std::size_t>(idx)]
               : kInvalidNode;
  };
  return build_generic(layout, source, destinations, cover);
}

}  // namespace peel
