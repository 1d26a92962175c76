// The commit-chain walk (Sec. 2's "commit a block and all its ancestors",
// strengthened by the Sec.-3 strong commit rules) and its side effects —
// ledger append, mempool accounting, durable commit records, commit
// notifications, snapshot cadence — in one place. Every consensus core
// (chained or lock-step) used to carry a verbatim copy of this loop; they
// now share this one.
#pragma once

#include <functional>
#include <vector>

#include "sftbft/chain/block_tree.hpp"
#include "sftbft/chain/ledger.hpp"
#include "sftbft/common/types.hpp"
#include "sftbft/core/lifecycle.hpp"
#include "sftbft/dissem/batch_store.hpp"
#include "sftbft/mempool/mempool.hpp"
#include "sftbft/sim/scheduler.hpp"
#include "sftbft/storage/replica_store.hpp"

namespace sftbft::core {

class Committer {
 public:
  /// Commit notification: (block, strength, now) — fired once per strength
  /// level first reached per block, ancestors included.
  using OnCommit =
      std::function<void(const types::Block&, std::uint32_t, SimTime)>;

  /// All references must outlive the committer. `store` may be null (no
  /// persistence). Each commit is reported to `lifecycle`, then to
  /// `on_commit` (may be empty). When the store's snapshot cadence comes
  /// due after a commit walk, `envelope` supplies the owning core's
  /// protocol-specific safety state for the snapshot.
  Committer(const chain::BlockTree& tree, chain::Ledger& ledger,
            mempool::Mempool& pool, sim::Scheduler& sched,
            storage::ReplicaStore* store, const Lifecycle& lifecycle,
            OnCommit on_commit, std::function<storage::Envelope()> envelope)
      : tree_(&tree),
        ledger_(&ledger),
        pool_(&pool),
        sched_(&sched),
        store_(store),
        lifecycle_(&lifecycle),
        on_commit_(std::move(on_commit)),
        envelope_(std::move(envelope)) {}

  /// Dissemination mode: digest-referencing payloads are resolved against
  /// `batches` before the ledger append (so committed-transaction counts
  /// and mempool accounting stay exact). `pull` (may be empty) is invoked
  /// with any digests whose batches have not arrived yet — possible only on
  /// the block-sync path, since the vote-availability gate guarantees 2f+1
  /// voters held the data; the store files those batches as committed when
  /// the pull completes.
  void set_batch_store(
      dissem::BatchStore* batches,
      std::function<void(const std::vector<crypto::Sha256Digest>&)> pull) {
    batch_store_ = batches;
    pull_batches_ = std::move(pull);
  }

  /// Commits `head` and all its ancestors at `strength` (strong commit
  /// rule: "x-strong commits a block B_k and all its ancestors"). Stops as
  /// soon as a block already has the strength — deeper ancestors then do
  /// too. Ledger entries are WAL'd when a store is wired, and a due
  /// snapshot is written once afterwards.
  void commit_chain(const types::Block& head, std::uint32_t strength) {
    for (const types::Block* block = &head;
         block != nullptr && block->height > 0;
         block = tree_->parent_of(block->id)) {
      // Digest payloads materialize to their transactions exactly once (at
      // first commit): the store dedups by digest, so a batch referenced by
      // competing forks counts toward exactly one ledger entry.
      const types::Block* target = block;
      types::Block materialized;
      if (batch_store_ && block->payload.is_digests() &&
          !ledger_->is_committed(block->height)) {
        std::vector<crypto::Sha256Digest> missing;
        materialized = *block;
        materialized.payload = types::Payload{};
        materialized.payload.txns =
            batch_store_->resolve_committed(block->payload, missing);
        if (!missing.empty() && pull_batches_) pull_batches_(missing);
        target = &materialized;
      }
      const auto result = ledger_->commit(*target, strength, sched_->now());
      if (result == chain::Ledger::CommitResult::NoChange) break;
      if (result == chain::Ledger::CommitResult::New) {
        pool_->mark_committed(target->payload);
      }
      if (store_) store_->record_commit(ledger_->at(block->height));
      lifecycle_->committed(*block, strength, sched_->now());
      if (on_commit_) on_commit_(*block, strength, sched_->now());
    }
    maybe_snapshot();
  }

 private:
  void maybe_snapshot() {
    if (!store_ || !store_->snapshot_due(ledger_->committed_blocks())) return;
    const std::optional<Height> tip_height = ledger_->tip();
    if (!tip_height) return;
    const types::Block* tip = tree_->get(ledger_->at(*tip_height).block_id);
    if (tip == nullptr) return;  // tip below the restored root; wait for sync
    store_->write_snapshot(*tip, ledger_->snapshot(), envelope_());
  }

  const chain::BlockTree* tree_;
  chain::Ledger* ledger_;
  mempool::Mempool* pool_;
  sim::Scheduler* sched_;
  storage::ReplicaStore* store_;
  const Lifecycle* lifecycle_;
  OnCommit on_commit_;
  std::function<storage::Envelope()> envelope_;
  dissem::BatchStore* batch_store_ = nullptr;
  std::function<void(const std::vector<crypto::Sha256Digest>&)> pull_batches_;
};

}  // namespace sftbft::core
