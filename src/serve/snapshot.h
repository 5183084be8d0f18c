#ifndef EBI_SERVE_SNAPSHOT_H_
#define EBI_SERVE_SNAPSHOT_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "index/index.h"
#include "index/index_factory.h"
#include "query/executor.h"
#include "storage/io_accountant.h"
#include "storage/table.h"
#include "util/status.h"
#include "util/sync.h"
#include "util/thread_annotations.h"

namespace ebi {
namespace serve {

/// One index the serving layer maintains per snapshot.
struct IndexSpec {
  std::string column;
  IndexKind kind = IndexKind::kEncodedBitmap;
};

/// An immutable, self-contained version of the database: a deep-copied
/// table, the secondary indexes built over it, and a private IoAccountant
/// every read against this version charges. Snapshots are published by
/// the single writer (QueryService's append pipeline) and shared by many
/// concurrent readers; nothing in here is mutated after construction
/// except the accountant's relaxed counters, so readers need no locks.
///
/// Evaluation entry points on the held indexes are thread-safe for the
/// bitmap families the serving layer certifies (simple, encoded,
/// bit-sliced, range-based): their Evaluate* paths read immutable
/// structure and charge atomics only. An append clones the simple,
/// encoded and bit-sliced indexes and rebuilds the range-based one.
class DatabaseSnapshot {
  struct Passkey {};

 public:
  /// Builds a snapshot from scratch: takes ownership of `table`, builds
  /// one index per spec.
  static Result<std::unique_ptr<DatabaseSnapshot>> Create(
      std::unique_ptr<Table> table, std::vector<IndexSpec> specs,
      uint64_t epoch);

  /// Copy-on-write successor: clones the table and every index that
  /// implements CloneRebound, appends `rows`, and extends each clone by
  /// one AppendBatch — so domain expansion coalesces into one rewrite per
  /// column. Indexes without a clone, and clones whose AppendBatch reports
  /// Unimplemented, are factory-rebuilt over the grown table. This
  /// snapshot is never touched; the returned one carries `epoch`.
  Result<std::unique_ptr<DatabaseSnapshot>> CloneWithRows(
      const std::vector<std::vector<Value>>& rows, uint64_t epoch) const;

  DatabaseSnapshot(const DatabaseSnapshot&) = delete;
  DatabaseSnapshot& operator=(const DatabaseSnapshot&) = delete;

  uint64_t epoch() const { return epoch_; }
  const Table& table() const { return *table_; }
  size_t NumRows() const { return table_->NumRows(); }

  /// The index serving predicates on `column` (nullptr when none).
  SecondaryIndex* index(const std::string& column) const;

  /// A SelectionExecutor wired to this snapshot's table, accountant and
  /// indexes. The executor (and everything it returns) must not outlive
  /// the reader's pin on this snapshot.
  SelectionExecutor MakeExecutor() const;

  /// Public so Create can make_unique; the passkey keeps construction
  /// confined to the factory methods.
  explicit DatabaseSnapshot(Passkey) {}

 private:
  /// Builds the index `spec` names over this snapshot's table and
  /// accountant.
  Result<std::unique_ptr<SecondaryIndex>> BuildIndex(
      const IndexSpec& spec) const;

  struct Entry {
    IndexSpec spec;
    std::unique_ptr<SecondaryIndex> index;
  };

  uint64_t epoch_ = 0;
  std::vector<IndexSpec> specs_;
  /// The accountant every index of this version charges (aggregate I/O
  /// of every read served from it; per-request deltas are approximate
  /// under concurrency — see DESIGN.md §9).
  std::unique_ptr<IoAccountant> io_;
  std::unique_ptr<Table> table_;
  std::vector<Entry> entries_;
};

/// Epoch-based publication and reclamation of snapshots (RCU-style).
///
/// One writer publishes; many readers pin. The reader hot path is
/// lock-free: claim a slot (one CAS), announce the global epoch in it
/// (one store), load the current-snapshot pointer (one load) — all
/// seq_cst, so a writer that retires the pointer afterwards is
/// guaranteed to observe the announcement. A retired snapshot is freed
/// only when every in-use slot has announced an epoch at or past the
/// retirement epoch; a pin taken before a publish therefore keeps its
/// snapshot alive arbitrarily long after newer ones supersede it.
class SnapshotManager {
 public:
  /// Concurrent pins the manager holds without spinning. Pins are taken
  /// by requests running on workers and by appenders; a queued request
  /// holds none.
  static constexpr size_t kReaderSlots = 256;
  /// Slot value meaning "claimed but not announcing any epoch".
  static constexpr uint64_t kQuiescent = UINT64_MAX;

  SnapshotManager();
  /// Frees the current snapshot and any unreclaimed retirees. All pins
  /// must have been released (the QueryService drain guarantees this).
  ~SnapshotManager();

  SnapshotManager(const SnapshotManager&) = delete;
  SnapshotManager& operator=(const SnapshotManager&) = delete;

  /// RAII reader pin: keeps one snapshot version alive. Movable; the
  /// destructor releases the slot and opportunistically reclaims.
  class Pin {
   public:
    Pin() = default;
    Pin(Pin&& other) noexcept { *this = std::move(other); }
    Pin& operator=(Pin&& other) noexcept;
    ~Pin() { Release(); }
    Pin(const Pin&) = delete;
    Pin& operator=(const Pin&) = delete;

    const DatabaseSnapshot* get() const { return snapshot_; }
    const DatabaseSnapshot* operator->() const { return snapshot_; }
    const DatabaseSnapshot& operator*() const { return *snapshot_; }
    explicit operator bool() const { return snapshot_ != nullptr; }

    /// Unpins early (idempotent).
    void Release();

   private:
    friend class SnapshotManager;
    Pin(SnapshotManager* manager, size_t slot,
        const DatabaseSnapshot* snapshot)
        : manager_(manager), slot_(slot), snapshot_(snapshot) {}

    SnapshotManager* manager_ = nullptr;
    size_t slot_ = 0;
    const DatabaseSnapshot* snapshot_ = nullptr;
  };

  /// Atomically replaces the current snapshot and retires the previous
  /// one (single writer; serialized internally).
  void Publish(std::unique_ptr<DatabaseSnapshot> snapshot);

  /// Pins the current snapshot. Lock-free; spins (with yields) only while
  /// all kReaderSlots slots are claimed. The pin is empty until the first
  /// Publish.
  Pin Acquire();

  /// Epoch of the current snapshot (0 before the first publish).
  uint64_t CurrentEpoch() const;

  /// Blocking reclaim pass. Unpins only *try* to reclaim (they never
  /// block on the writer), so a contended release can leave a retiree
  /// behind; drains call this to guarantee quiescent-state cleanup.
  void Reclaim();

  /// Retired-but-unreclaimed snapshots (for tests and metrics).
  size_t RetiredCount() const;
  /// Snapshots freed so far by epoch reclamation (each one also counts
  /// into the global ebi.serve.snapshots_reclaimed counter).
  uint64_t ReclaimedCount() const {
    return reclaimed_.load(std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Slot {
    std::atomic<bool> in_use{false};
    std::atomic<uint64_t> epoch{kQuiescent};
  };

  void ReleaseSlot(size_t slot);
  /// Frees every retiree no in-use slot could still reference.
  void ReclaimLocked() EBI_REQUIRES(retire_mu_);

  std::vector<Slot> slots_
      EBI_UNGUARDED("sized once in the constructor; the elements are "
                    "atomics readers and the writer race by design");
  std::atomic<const DatabaseSnapshot*> current_{nullptr};
  /// Bumped once per publish; readers announce the value they saw.
  std::atomic<uint64_t> global_epoch_{0};
  std::atomic<uint64_t> reclaimed_{0};

  mutable Mutex retire_mu_{lock_rank::kSnapshotRetire,
                           "SnapshotManager::retire_mu_"};
  /// Owner of what current_ points to.
  std::unique_ptr<DatabaseSnapshot> current_owner_ EBI_GUARDED_BY(retire_mu_);
  /// (snapshot, retirement epoch), reclaimed in ReclaimLocked.
  std::vector<std::pair<std::unique_ptr<DatabaseSnapshot>, uint64_t>>
      retired_ EBI_GUARDED_BY(retire_mu_);
};

}  // namespace serve
}  // namespace ebi

#endif  // EBI_SERVE_SNAPSHOT_H_
