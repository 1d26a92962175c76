#include "sftbft/types/vote.hpp"

namespace sftbft::types {

bool VoteMeta::endorses(Round voted_round, Round ancestor_round) const {
  if (ancestor_round == voted_round) return true;  // direct vote
  switch (mode) {
    case VoteMode::Plain:
      // Plain votes carry no history; only the direct vote counts, which is
      // exactly the regular (f-strong) commit rule.
      return false;
    case VoteMode::Marker:
      return marker < ancestor_round;
    case VoteMode::Intervals:
      return endorsed.contains(ancestor_round);
  }
  return false;
}

void VoteMeta::encode(Encoder& enc) const {
  enc.u8(static_cast<std::uint8_t>(mode));
  enc.u64(marker);
  endorsed.encode(enc);
}

VoteMeta VoteMeta::decode(Decoder& dec) {
  VoteMeta meta;
  const std::uint8_t mode_raw = dec.u8();
  if (mode_raw > 2) throw CodecError("VoteMeta: invalid mode");
  meta.mode = static_cast<VoteMode>(mode_raw);
  meta.marker = dec.u64();
  meta.endorsed = IntervalSet::decode(dec);
  return meta;
}

Bytes Vote::signing_bytes() const {
  Encoder enc;
  write_signing_bytes(enc, block_id, round, voter, meta());
  return enc.take();
}

void Vote::write_signing_bytes(Encoder& enc, const BlockId& block_id,
                               Round round, ReplicaId voter,
                               const VoteMeta& meta) {
  enc.str("sftbft/vote");
  enc.raw(block_id.bytes);
  enc.u64(round);
  enc.u32(voter);
  meta.encode(enc);
}

bool Vote::endorses_round(Round ancestor_round) const {
  // Inline rather than via meta(): this is on the strength tracker's hot
  // loop, and meta() would copy the interval set per call.
  if (ancestor_round == round) return true;
  switch (mode) {
    case VoteMode::Plain:
      return false;
    case VoteMode::Marker:
      return marker < ancestor_round;
    case VoteMode::Intervals:
      return endorsed.contains(ancestor_round);
  }
  return false;
}

void Vote::encode(Encoder& enc) const {
  enc.raw(block_id.bytes);
  enc.u64(round);
  enc.u32(voter);
  meta().encode(enc);
  sig.encode(enc);
}

Vote Vote::decode(Decoder& dec) {
  Vote vote;
  const Bytes id_raw = dec.raw(32);
  std::copy(id_raw.begin(), id_raw.end(), vote.block_id.bytes.begin());
  vote.round = dec.u64();
  vote.voter = dec.u32();
  VoteMeta meta = VoteMeta::decode(dec);
  vote.mode = meta.mode;
  vote.marker = meta.marker;
  vote.endorsed = std::move(meta.endorsed);
  vote.sig = crypto::Signature::decode(dec);
  return vote;
}

}  // namespace sftbft::types
