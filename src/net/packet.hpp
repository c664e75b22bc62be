#pragma once

#include <cassert>
#include <cstdint>

#include "sim/time.hpp"

namespace mltcp::net {

using NodeId = std::int32_t;
using FlowId = std::int32_t;

inline constexpr NodeId kInvalidNode = -1;
inline constexpr FlowId kInvalidFlow = -1;

/// Default maximum transmission unit, matching Algorithm 1 in the paper.
inline constexpr std::int32_t kDefaultMtu = 1500;

/// Per-packet protocol overhead we model (IP + TCP headers).
inline constexpr std::int32_t kHeaderBytes = 40;

/// Wire size of a pure ACK.
inline constexpr std::int32_t kAckBytes = kHeaderBytes;

enum class PacketType : std::uint8_t { kData, kAck };

/// One SACK block: segments [start, end) received out of order.
struct SackBlock {
  std::int64_t start = 0;
  std::int64_t end = 0;
  bool empty() const { return end <= start; }
};

/// Maximum SACK blocks carried per ACK (as with TCP options space).
inline constexpr int kMaxSackBlocks = 3;

/// A network packet. Plain value type (no invariant beyond field semantics),
/// copied by value through queues and links — and captured by value in the
/// propagation-delivery closure of every hop — so the layout is kept
/// compact: flags are single bits, and SACK blocks are stored as 32-bit
/// (offset, length) pairs relative to `seq` instead of absolute 64-bit
/// ranges (a SACK block always sits a window's width above the cumulative
/// ACK, which is far below 2^32 segments).
struct Packet {
  /// Data: segment sequence number (in MSS-sized segments).
  /// ACK: cumulative acknowledgement (next expected segment).
  std::int64_t seq = 0;

  /// pFabric priority: remaining bytes of the flow when the packet was sent.
  /// Smaller value = higher priority. 0 means "not using priorities".
  std::int64_t priority = 0;

  /// Timestamp option: set by the sender on data packets and echoed back on
  /// ACKs, used for RTT sampling.
  sim::SimTime tx_timestamp = 0;

  FlowId flow = kInvalidFlow;

  /// Wire size including headers.
  std::int32_t size_bytes = kDefaultMtu;

  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;

  PacketType type = PacketType::kData;

  /// --- ECN (used by DCTCP) ---
  std::uint8_t ecn_capable : 1 = 0;  ///< Sender negotiated ECN.
  std::uint8_t ce : 1 = 0;           ///< Congestion Experienced, set by queues.
  std::uint8_t ece : 1 = 0;          ///< ECN Echo, set by receiver on ACKs.

  /// Populated SACK blocks (ACKs only); read them through sack().
  std::uint8_t num_sack = 0;

 private:
  /// SACK option storage: block i covers segments
  /// [seq + sack_off_[i], seq + sack_off_[i] + sack_len_[i]).
  std::uint32_t sack_off_[kMaxSackBlocks] = {};
  std::uint32_t sack_len_[kMaxSackBlocks] = {};

 public:
  int sack_count() const { return num_sack; }

  /// Block `i` as an absolute range. Precondition: i < sack_count().
  SackBlock sack(int i) const {
    return SackBlock{seq + sack_off_[i],
                     seq + sack_off_[i] + sack_len_[i]};
  }

  /// Appends a SACK block for segments [start, end). `seq` (the cumulative
  /// ACK) must already be set; blocks lie above it by construction.
  void add_sack(std::int64_t start, std::int64_t end) {
    assert(num_sack < kMaxSackBlocks);
    assert(start > seq && end > start);
    assert(start - seq <= UINT32_MAX && end - start <= UINT32_MAX);
    sack_off_[num_sack] = static_cast<std::uint32_t>(start - seq);
    sack_len_[num_sack] = static_cast<std::uint32_t>(end - start);
    ++num_sack;
  }
};

/// Every queue hop and propagation event copies a Packet; a pure ACK used to
/// drag a 48-byte zero-initialized SackBlock[3] through each copy. Keep the
/// struct at its current 72 bytes (fits the inline-callback capture budget
/// alongside a pointer; see sim/event_callback.hpp) — grow it only with a
/// deliberate decision here.
static_assert(sizeof(Packet) == 72, "Packet layout grew; see comment above");

}  // namespace mltcp::net
