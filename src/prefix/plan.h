// PeelPlan: the complete data-plane program PEEL derives for one multicast
// group (§3.2).
//
// The sender emits one packet copy per ⟨pod-prefix, ToR-prefix, host-prefix⟩
// rule.  Replication uses only pre-installed power-of-two prefix rules at
// every downward tier — §3.2 develops the aggregate-to-ToR tier "for
// concreteness", and notes the same principle applies to the other downward
// segments, so cores expand the pod prefix (2k-1 static rules), aggregation
// switches expand the ToR prefix (k-1 rules), and ToRs expand the host
// prefix.  All state stays O(k) per switch and the header carries three
// ⟨value,len⟩ tuples — still well under 8 B for k=128.
//
// Redundant deliveries (over-covered racks/hosts under bounded covers, §3.3)
// are recorded so experiments can charge their bandwidth.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/prefix/cover.h"
#include "src/prefix/prefix.h"
#include "src/topology/fat_tree.h"
#include "src/topology/leaf_spine.h"

namespace peel {

/// One packet class the source emits per chunk.
struct PeelPacketRule {
  /// Pods whose aggregation tier this packet reaches (the pod_prefix block,
  /// clipped to live pods). Always {0} on leaf–spine fabrics.
  std::vector<int> pods;
  Prefix pod_prefix;
  Prefix tor_prefix;
  Prefix host_prefix;
  /// Live ToRs the tor_prefix selects across all pods in the block, split
  /// into racks that contain members and over-covered racks.
  std::vector<NodeId> member_tors;
  std::vector<NodeId> redundant_tors;
  /// Live host indices (within a rack) the host_prefix selects.
  std::vector<int> covered_host_idx;
};

/// Member endpoints grouped by destination host: hosts ascending, each
/// host's endpoints in destination-list order.
struct HostMembers {
  std::vector<NodeId> hosts;
  /// hosts.size() + 1 bounds into `endpoints`.
  std::vector<std::uint32_t> offsets{0};
  std::vector<NodeId> endpoints;

  /// Endpoints on `host`; empty when the host holds no member.
  [[nodiscard]] std::span<const NodeId> of(NodeId host) const;
};

struct PeelPlan {
  NodeId source = kInvalidNode;
  std::vector<NodeId> destinations;
  std::vector<PeelPacketRule> packets;

  /// Destination endpoints on the source's own host (delivered over NVLink
  /// without entering the fabric).
  std::vector<NodeId> source_local;

  /// Member endpoints per destination host, for host-agent delivery.
  HostMembers host_members;

  int pod_id_bits = 0;   ///< m for the pod tier (core prefix rules)
  int tor_id_bits = 0;   ///< m for the ToR tier
  int host_id_bits = 0;  ///< m for the host tier
  /// Header cost per packet: three ⟨value,len⟩ tuples.
  [[nodiscard]] int header_bits() const {
    return tuple_header_bits(pod_id_bits) + tuple_header_bits(tor_id_bits) +
           tuple_header_bits(host_id_bits);
  }

  /// Fabric-level redundant deliveries implied by over-covering: rack copies
  /// sent to racks without members.
  [[nodiscard]] std::size_t redundant_rack_copies() const;
};

/// Cover-selection policy (§3.2 exact covers vs §3.3/§3.4 packing).
struct PeelCoverOptions {
  /// 0 = exact ToR cover per pod (zero rack redundancy); a positive bound
  /// trades packet count for over-covered racks via bounded_cover. Host
  /// covers are bounded by the same budget when it is set.
  int max_tor_prefixes_per_pod = 0;
  /// 0 = exact pod-block cover per packet class; a positive bound lets one
  /// packet's pod prefix sweep up non-member pods (whole over-covered racks
  /// that receive and discard) to cap the source's packet count.
  int max_pod_blocks = 0;

  /// "Adaptive prefix packing": at most one packet per class, over-covering
  /// as needed — minimizes source serialization at the cost of redundant
  /// down-tree copies.
  static PeelCoverOptions compact() { return {1, 1}; }
};

/// Builds the PEEL plan on a fat-tree. Destinations are GPUs or hosts; the
/// source must not appear among them.
[[nodiscard]] PeelPlan build_peel_plan(const FatTree& ft, NodeId source,
                                       std::span<const NodeId> destinations,
                                       PeelCoverOptions cover = {});

/// Same on a leaf–spine (the whole leaf tier forms one prefix pod).
[[nodiscard]] PeelPlan build_peel_plan(const LeafSpine& ls, NodeId source,
                                       std::span<const NodeId> destinations,
                                       PeelCoverOptions cover = {});

}  // namespace peel
