// The one wire frame every protocol message travels in.
//
// Both stacks (DiemBFT and Streamlet) serialize each message to canonical
// bytes via the shared Encoder/Decoder and ship it inside an Envelope:
//
//     u8  type      -- WireType tag (registry below)
//     u32 sender    -- sending replica (unauthenticated; signatures inside
//                      the payload are what receivers trust)
//     u32 length    -- payload byte count
//     ..  payload   -- the message's canonical encoding
//     u32 crc32     -- over everything above (IEEE 802.3, shared with the
//                      storage WAL's framing)
//
// The encoded frame is the *only* thing the transport sees: the bytes
// charged against link bandwidth are exactly `encode().size()`, a receiver
// that gets flipped bits rejects the frame with CodecError (the CRC), and a
// future socket backend can stream these frames verbatim. There is no
// second, hand-estimated notion of wire size anywhere.
#pragma once

#include <cstdint>

#include "sftbft/common/bytes.hpp"
#include "sftbft/common/codec.hpp"
#include "sftbft/common/types.hpp"

namespace sftbft::net {

/// The wire-protocol type registry. Tags are part of the on-wire format —
/// never renumber, only append. 0x0x = DiemBFT stack, 0x1x = Streamlet,
/// 0x2x = chained HotStuff (same payload codecs as the 0x0x tags — the
/// chained stacks share the kernel's message types; the tag tells mixed
/// tooling which protocol a frame belongs to), 0x4x = the dissemination
/// data plane (sftbft::dissem), protocol-agnostic: every engine speaks the
/// same batch tags because payload distribution is independent of the
/// consensus rules ordering the digests.
enum class WireType : std::uint8_t {
  kProposal = 0x01,      ///< types::Proposal
  kVote = 0x02,          ///< types::Vote (regular and FBFT extra votes)
  kTimeout = 0x03,       ///< types::TimeoutMsg
  kSyncRequest = 0x04,   ///< types::SyncRequest
  kSyncResponse = 0x05,  ///< types::SyncResponse
  kSProposal = 0x11,     ///< streamlet::SProposal
  kSVote = 0x12,         ///< streamlet::SVote
  kSSyncRequest = 0x13,  ///< streamlet::SSyncRequest (= types::SyncRequest)
  kSSyncResponse = 0x14, ///< streamlet::SSyncResponse
  kHProposal = 0x21,     ///< types::Proposal (HotStuff stack)
  kHVote = 0x22,         ///< types::Vote (HotStuff stack)
  kHTimeout = 0x23,      ///< types::TimeoutMsg (HotStuff stack)
  kHSyncRequest = 0x24,  ///< types::SyncRequest (HotStuff stack)
  kHSyncResponse = 0x25, ///< types::SyncResponse (HotStuff stack)
  kBatchPush = 0x41,     ///< dissem::BatchPush (all engines)
  kBatchRequest = 0x42,  ///< dissem::BatchRequest (all engines)
  kBatchResponse = 0x43, ///< dissem::BatchResponse (all engines)
};

/// The tag set one chained-kernel replica speaks (DiemBFT or HotStuff
/// protocol instance; see engine::ReplicaHost).
struct ChainedWireSet {
  WireType proposal = WireType::kProposal;
  WireType vote = WireType::kVote;
  WireType timeout = WireType::kTimeout;
  WireType sync_request = WireType::kSyncRequest;
  WireType sync_response = WireType::kSyncResponse;
};

inline constexpr ChainedWireSet kDiemBftWires{};
inline constexpr ChainedWireSet kHotStuffWires{
    WireType::kHProposal, WireType::kHVote, WireType::kHTimeout,
    WireType::kHSyncRequest, WireType::kHSyncResponse};

/// True iff `tag` names a registered wire type.
[[nodiscard]] bool wire_type_known(std::uint8_t tag);

/// Stats label for a type ("proposal", "vote", ... — the legacy MessageStats
/// keys, shared across stacks so cross-protocol sweeps stay comparable).
[[nodiscard]] const char* wire_type_name(WireType type);

struct Envelope {
  WireType type{};
  ReplicaId sender = kNoReplica;
  Bytes payload;

  /// Frame overhead around a payload of any size (type + sender + length +
  /// crc): the exact constant, not an estimate.
  static constexpr std::size_t kOverhead = 1 + 4 + 4 + 4;

  /// Canonical frame bytes; `encode().size()` IS the message's wire size.
  [[nodiscard]] Bytes encode() const;

  /// Parses and validates a frame: known tag, intact length, matching CRC,
  /// no trailing bytes. Throws CodecError otherwise — the transport counts
  /// such frames as corrupt drops and never delivers them.
  static Envelope decode(BytesView frame);

  /// Wraps a message's canonical encoding. M must expose
  /// `void encode(Encoder&) const`.
  template <typename M>
  static Envelope pack(WireType type, ReplicaId sender, const M& msg) {
    Encoder enc;
    msg.encode(enc);
    return Envelope{type, sender, enc.take()};
  }

  /// Decodes the payload as message type M (which must expose
  /// `static M decode(Decoder&)`). Throws CodecError on malformed payloads
  /// or trailing bytes; callers on the receive path catch and drop.
  template <typename M>
  [[nodiscard]] M unpack() const {
    Decoder dec{BytesView(payload.data(), payload.size())};
    M msg = M::decode(dec);
    if (!dec.exhausted()) {
      throw CodecError("Envelope: trailing bytes after payload");
    }
    return msg;
  }

  friend bool operator==(const Envelope&, const Envelope&) = default;
};

}  // namespace sftbft::net
