#include "serve/snapshot.h"

#include <thread>

#include "obs/metrics.h"

namespace ebi {
namespace serve {
namespace {

// Registry lookups are mutex-guarded; cache the stable pointer.
obs::Counter* ReclaimedCounter() {
  static obs::Counter* counter = obs::MetricsRegistry::Global().GetCounter(
      obs::kMetricServeSnapshotsReclaimed);
  return counter;
}

}  // namespace

// ---------------------------------------------------------------------------
// DatabaseSnapshot
// ---------------------------------------------------------------------------

Result<std::unique_ptr<DatabaseSnapshot>> DatabaseSnapshot::Create(
    std::unique_ptr<Table> table, std::vector<IndexSpec> specs,
    uint64_t epoch) {
  if (table == nullptr) {
    return Status::InvalidArgument("snapshot needs a table");
  }
  for (size_t i = 0; i < specs.size(); ++i) {
    for (size_t j = i + 1; j < specs.size(); ++j) {
      if (specs[i].column == specs[j].column) {
        return Status::InvalidArgument(
            "duplicate serving index on column " + specs[i].column +
            "; the executor answers each column through one index");
      }
    }
  }

  auto snapshot = std::make_unique<DatabaseSnapshot>(Passkey());
  snapshot->epoch_ = epoch;
  snapshot->specs_ = std::move(specs);
  snapshot->io_ = std::make_unique<IoAccountant>();
  snapshot->table_ = std::move(table);

  for (const IndexSpec& spec : snapshot->specs_) {
    Entry entry;
    entry.spec = spec;
    EBI_ASSIGN_OR_RETURN(entry.index, snapshot->BuildIndex(spec));
    snapshot->entries_.push_back(std::move(entry));
  }
  return snapshot;
}

Result<std::unique_ptr<SecondaryIndex>> DatabaseSnapshot::BuildIndex(
    const IndexSpec& spec) const {
  const Table& table = *table_;
  EBI_ASSIGN_OR_RETURN(const Column* column, table.FindColumn(spec.column));
  std::unique_ptr<SecondaryIndex> index =
      MakeSecondaryIndex(spec.kind, column, &table.existence(), io_.get());
  if (index == nullptr) {
    return Status::Internal("unknown index kind in serving spec");
  }
  EBI_RETURN_IF_ERROR(index->Build());
  return index;
}

Result<std::unique_ptr<DatabaseSnapshot>> DatabaseSnapshot::CloneWithRows(
    const std::vector<std::vector<Value>>& rows, uint64_t epoch) const {
  auto table = std::make_unique<Table>(table_->Clone());

  auto snapshot = std::make_unique<DatabaseSnapshot>(Passkey());
  snapshot->epoch_ = epoch;
  snapshot->specs_ = specs_;
  snapshot->io_ = std::make_unique<IoAccountant>(io_->page_size());
  snapshot->table_ = std::move(table);

  // Clone the indexes before the table grows: a clone must cover exactly
  // the rows its source indexed, and the batched append then extends it —
  // so domain expansion coalesces into one rewrite per column.
  for (const Entry& entry : entries_) {
    EBI_ASSIGN_OR_RETURN(const Column* column,
                         static_cast<const Table&>(*snapshot->table_)
                             .FindColumn(entry.spec.column));
    Result<std::unique_ptr<SecondaryIndex>> cloned = entry.index->CloneRebound(
        column, &snapshot->table_->existence(), snapshot->io_.get());
    if (!cloned.ok() && cloned.status().code() != StatusCode::kUnimplemented) {
      return cloned.status();
    }
    Entry copy;
    copy.spec = entry.spec;
    copy.index = cloned.ok() ? std::move(*cloned) : nullptr;
    snapshot->entries_.push_back(std::move(copy));
  }

  Table& grown = *snapshot->table_;
  const size_t first_row = grown.NumRows();
  for (const std::vector<Value>& values : rows) {
    EBI_RETURN_IF_ERROR(grown.AppendRow(values));
  }
  // Families without a clone, and clones that cannot take the batch (a
  // bit-sliced index given a value below its bias), are rebuilt from
  // scratch over the grown table.
  for (Entry& entry : snapshot->entries_) {
    if (entry.index != nullptr) {
      const Status appended = entry.index->AppendBatch(first_row, rows.size());
      if (appended.code() != StatusCode::kUnimplemented) {
        EBI_RETURN_IF_ERROR(appended);
        continue;
      }
    }
    EBI_ASSIGN_OR_RETURN(entry.index, snapshot->BuildIndex(entry.spec));
  }
  return snapshot;
}

SecondaryIndex* DatabaseSnapshot::index(const std::string& column) const {
  for (const Entry& entry : entries_) {
    if (entry.spec.column == column) {
      return entry.index.get();
    }
  }
  return nullptr;
}

SelectionExecutor DatabaseSnapshot::MakeExecutor() const {
  SelectionExecutor executor(table_.get(), io_.get());
  for (const Entry& entry : entries_) {
    executor.RegisterIndex(entry.spec.column, entry.index.get());
  }
  return executor;
}

// ---------------------------------------------------------------------------
// SnapshotManager
// ---------------------------------------------------------------------------

SnapshotManager::SnapshotManager() : slots_(kReaderSlots) {}

SnapshotManager::~SnapshotManager() = default;

SnapshotManager::Pin& SnapshotManager::Pin::operator=(Pin&& other) noexcept {
  if (this != &other) {
    Release();
    manager_ = other.manager_;
    slot_ = other.slot_;
    snapshot_ = other.snapshot_;
    other.manager_ = nullptr;
    other.snapshot_ = nullptr;
  }
  return *this;
}

void SnapshotManager::Pin::Release() {
  if (manager_ != nullptr) {
    manager_->ReleaseSlot(slot_);
    manager_ = nullptr;
    snapshot_ = nullptr;
  }
}

void SnapshotManager::Publish(std::unique_ptr<DatabaseSnapshot> snapshot) {
  const MutexLock lock(retire_mu_);
  const DatabaseSnapshot* next = snapshot.get();
  std::unique_ptr<DatabaseSnapshot> old = std::move(current_owner_);
  current_owner_ = std::move(snapshot);
  current_.store(next, std::memory_order_seq_cst);
  // Order matters: the pointer swap precedes the epoch bump, so a reader
  // announcing an epoch below the retirement epoch read the global value
  // before this publish — exactly the readers that may still load `old`.
  const uint64_t retire_epoch =
      global_epoch_.fetch_add(1, std::memory_order_seq_cst) + 1;
  if (old != nullptr) {
    retired_.emplace_back(std::move(old), retire_epoch);
  }
  ReclaimLocked();
}

SnapshotManager::Pin SnapshotManager::Acquire() {
  const size_t n = slots_.size();
  size_t slot = 0;
  for (size_t attempt = 0;; ++attempt) {
    const size_t i = attempt % n;
    bool expected = false;
    if (slots_[i].in_use.compare_exchange_strong(
            expected, true, std::memory_order_seq_cst)) {
      slot = i;
      break;
    }
    if (i == n - 1) {
      std::this_thread::yield();
    }
  }
  // Announce before loading the pointer. seq_cst gives one total order
  // over {this store, this load, the writer's swap, the writer's slot
  // scan}: if the writer's scan missed this announcement, the scan (and
  // hence the swap before it) precedes it, so the load below is ordered
  // after the swap and returns the *new* snapshot — never the retiree.
  slots_[slot].epoch.store(global_epoch_.load(std::memory_order_seq_cst),
                           std::memory_order_seq_cst);
  const DatabaseSnapshot* snapshot =
      current_.load(std::memory_order_seq_cst);
  if (snapshot == nullptr) {
    ReleaseSlot(slot);
    return Pin();
  }
  return Pin(this, slot, snapshot);
}

void SnapshotManager::Reclaim() {
  const MutexLock lock(retire_mu_);
  ReclaimLocked();
}

uint64_t SnapshotManager::CurrentEpoch() const {
  const MutexLock lock(retire_mu_);
  return current_owner_ == nullptr ? 0 : current_owner_->epoch();
}

size_t SnapshotManager::RetiredCount() const {
  const MutexLock lock(retire_mu_);
  return retired_.size();
}

void SnapshotManager::ReleaseSlot(size_t slot) {
  slots_[slot].epoch.store(kQuiescent, std::memory_order_seq_cst);
  slots_[slot].in_use.store(false, std::memory_order_seq_cst);
  // Opportunistically reclaim so a pin that outlived several publishes
  // frees its snapshot now rather than at the next publish. TryLock
  // keeps the unpin path from ever blocking on the writer.
  if (retire_mu_.TryLock()) {
    ReclaimLocked();
    retire_mu_.Unlock();
  }
}

void SnapshotManager::ReclaimLocked() {
  if (retired_.empty()) {
    return;
  }
  uint64_t min_active = kQuiescent;
  for (const Slot& slot : slots_) {
    if (!slot.in_use.load(std::memory_order_seq_cst)) {
      continue;
    }
    const uint64_t epoch = slot.epoch.load(std::memory_order_seq_cst);
    if (epoch < min_active) {
      min_active = epoch;
    }
  }
  // A retiree is unreachable once every in-use slot announced an epoch at
  // or past its retirement epoch: any reader that could still hold it
  // announced a smaller one before the retiring publish. A slot still at
  // kQuiescent never blocks — its pointer load is ordered after our swap.
  size_t kept = 0;
  for (auto& entry : retired_) {
    if (entry.second <= min_active) {
      entry.first.reset();
      reclaimed_.fetch_add(1, std::memory_order_relaxed);
      ReclaimedCounter()->Increment();
    } else {
      retired_[kept++] = std::move(entry);
    }
  }
  retired_.resize(kept);
}

}  // namespace serve
}  // namespace ebi
