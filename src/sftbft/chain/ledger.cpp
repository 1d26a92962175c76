#include "sftbft/chain/ledger.hpp"

#include <algorithm>
#include <cassert>

namespace sftbft::chain {

Ledger::CommitResult Ledger::commit(const types::Block& block,
                                    std::uint32_t strength, SimTime now) {
  if (block.height == 0) return CommitResult::NoChange;  // genesis implicit
  if (entries_.size() <= block.height) entries_.resize(block.height + 1);

  std::optional<Entry>& slot = entries_[block.height];
  if (!slot) {
    slot = Entry{.block_id = block.id,
                 .round = block.round,
                 .height = block.height,
                 .strength = strength,
                 .created_at = block.created_at,
                 .first_committed_at = now,
                 .last_strength_update_at = now,
                 .txn_count = block.payload.txns.size()};
    ++committed_count_;
    committed_txns_ += block.payload.txns.size();
    return CommitResult::New;
  }
  if (slot->block_id != block.id) {
    throw LedgerConflict("conflicting commit at height " +
                         std::to_string(block.height));
  }
  if (strength > slot->strength) {
    slot->strength = strength;
    slot->last_strength_update_at = now;
    return CommitResult::Raised;
  }
  return CommitResult::NoChange;
}

void Ledger::credit_txns(Height height, std::uint64_t txns) {
  assert(is_committed(height));
  entries_[height]->txn_count += txns;
  committed_txns_ += txns;
}

const Ledger::Entry& Ledger::at(Height height) const {
  assert(is_committed(height));
  return *entries_[height];
}

std::optional<Height> Ledger::tip() const {
  for (Height h = entries_.size(); h > 0; --h) {
    if (entries_[h - 1].has_value()) return h - 1;
  }
  return std::nullopt;
}

std::vector<Ledger::Entry> Ledger::snapshot() const {
  std::vector<Entry> out;
  out.reserve(committed_count_);
  for (const auto& slot : entries_) {
    if (slot) out.push_back(*slot);
  }
  return out;
}

void Ledger::restore(const std::vector<Entry>& entries) {
  entries_.clear();
  committed_count_ = 0;
  committed_txns_ = 0;
  for (const Entry& entry : entries) {
    if (entry.height == 0) continue;
    if (entries_.size() <= entry.height) entries_.resize(entry.height + 1);
    std::optional<Entry>& slot = entries_[entry.height];
    if (slot) {
      if (slot->block_id != entry.block_id) {
        throw LedgerConflict("conflicting entries in restored snapshot at "
                             "height " + std::to_string(entry.height));
      }
      continue;
    }
    slot = entry;
    ++committed_count_;
    committed_txns_ += entry.txn_count;
  }
}

void Ledger::Entry::encode(Encoder& enc) const {
  enc.raw(block_id.bytes);
  enc.u64(round);
  enc.u64(height);
  enc.u32(strength);
  enc.i64(created_at);
  enc.i64(first_committed_at);
  enc.i64(last_strength_update_at);
  enc.u64(txn_count);
}

Ledger::Entry Ledger::Entry::decode(Decoder& dec) {
  Entry entry;
  const Bytes raw = dec.raw(32);
  std::copy(raw.begin(), raw.end(), entry.block_id.bytes.begin());
  entry.round = dec.u64();
  entry.height = dec.u64();
  entry.strength = dec.u32();
  entry.created_at = dec.i64();
  entry.first_committed_at = dec.i64();
  entry.last_strength_update_at = dec.i64();
  entry.txn_count = dec.u64();
  return entry;
}

}  // namespace sftbft::chain
