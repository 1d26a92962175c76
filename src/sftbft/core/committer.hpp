// The commit-chain walk (Sec. 2's "commit a block and all its ancestors",
// strengthened by the Sec.-3 strong commit rules) and its side effects —
// ledger append, mempool accounting, durable commit records, commit
// notifications, snapshot cadence — in one place, shared by every consensus
// core (chained or lock-step). Payloads reach the ledger through the
// replica's dissem::DataPlane, which resolves digest references to their
// transactions; batches that land only after their block committed (the
// block-sync path) are credited to that block's ledger entry afterwards.
#pragma once

#include <functional>
#include <vector>

#include "sftbft/chain/block_tree.hpp"
#include "sftbft/chain/ledger.hpp"
#include "sftbft/common/types.hpp"
#include "sftbft/core/lifecycle.hpp"
#include "sftbft/dissem/plane.hpp"
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
            dissem::DataPlane& plane, sim::Scheduler& sched,
            storage::ReplicaStore* store, const Lifecycle& lifecycle,
            OnCommit on_commit, std::function<storage::Envelope()> envelope)
      : tree_(&tree),
        ledger_(&ledger),
        plane_(&plane),
        sched_(&sched),
        store_(store),
        lifecycle_(&lifecycle),
        on_commit_(std::move(on_commit)),
        envelope_(std::move(envelope)) {}

  /// Commits `head` and all its ancestors at `strength` (strong commit
  /// rule: "x-strong commits a block B_k and all its ancestors"). Stops as
  /// soon as a block already has the strength — deeper ancestors then do
  /// too. Ledger entries are WAL'd when a store is wired, and a due
  /// snapshot is written once afterwards.
  void commit_chain(const types::Block& head, std::uint32_t strength) {
    for (const types::Block* block = &head;
         block != nullptr && block->height > 0;
         block = tree_->parent_of(block->id)) {
      // A payload materializes to its transactions once, at first commit.
      types::Block scratch;
      const types::Block& target = ledger_->is_committed(block->height)
                                       ? *block
                                       : plane_->materialize(*block, scratch);
      const auto result = ledger_->commit(target, strength, sched_->now());
      if (result == chain::Ledger::CommitResult::NoChange) break;
      if (result == chain::Ledger::CommitResult::New) {
        plane_->committed(target.payload);
      }
      if (store_) store_->record_commit(ledger_->at(block->height));
      lifecycle_->committed(*block, strength, sched_->now());
      if (on_commit_) on_commit_(*block, strength, sched_->now());
    }
    maybe_snapshot();
  }

  /// A block learned through block sync. A crash-restarted replica can
  /// already hold its commit (restored from the WAL above the snapshot
  /// tip): its batches are then filed as committed, so they are never
  /// proposed or counted again. Otherwise the batches it lacks are pulled
  /// for the commit to come.
  void synced(const types::Block& block) {
    if (ledger_->is_committed(block.height) &&
        ledger_->at(block.height).block_id == block.id) {
      plane_->recommitted(block.payload);
    } else {
      plane_->fetch(block.payload);
    }
  }

  /// Credits batches that landed after their block committed to that
  /// block's ledger entry, durably: a restart must not bring back the
  /// short count. Call when batches arrive.
  void credit_late_batches() {
    for (const dissem::DataPlane::LateCommit& late :
         plane_->take_late_commits()) {
      ledger_->credit_txns(late.height, late.txns);
      if (store_) store_->record_commit(ledger_->at(late.height));
    }
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
  dissem::DataPlane* plane_;
  sim::Scheduler* sched_;
  storage::ReplicaStore* store_;
  const Lifecycle* lifecycle_;
  OnCommit on_commit_;
  std::function<storage::Envelope()> envelope_;
};

}  // namespace sftbft::core
