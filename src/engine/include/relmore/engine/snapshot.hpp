#pragma once

/// \file snapshot.hpp
/// Epoch-stamped snapshot sharing between one writer and many readers —
/// the concurrency primitive the timing-as-a-service daemon inherits.
///
/// A timing daemon (on the ROADMAP) wants one thread editing a tree
/// through a `TimingEngine` while other threads analyze a *consistent*
/// view of it; the concurrency tests exercise exactly that today.
/// `circuit::FlatTree` is already immutable after construction, so the
/// only coordination problem is handing a fresh snapshot from the writer
/// to the readers without tearing or leaking. `SharedSnapshot` is that
/// hand-off point: the writer publishes (FlatTree, epoch) records, readers
/// acquire a `shared_ptr` to the latest record and analyze it lock-free
/// for as long as they hold the pointer.
///
/// ## The happens-before story (the contract TSan checks)
///
/// 1. A record is built *entirely* on the writer thread: the FlatTree
///    constructor runs, the epoch is stamped, and only then is the record
///    linked in under the mutex. After `publish` returns, nothing ever
///    writes to the record again — records are immutable, retired only by
///    the last `shared_ptr` dropping.
/// 2. `publish` releases the mutex; `acquire` takes it. Everything the
///    writer did before `publish` — including writes to side tables the
///    reader consults per epoch — is therefore visible to any reader that
///    obtained that record (mutex release/acquire ordering).
/// 3. Readers never block each other: `acquire` is one mutex-protected
///    shared_ptr copy; analysis runs entirely outside the lock on
///    immutable data. A reader holding an old record is unaffected by
///    later publishes (no reclamation until its pointer drops).
/// 4. Epochs are strictly increasing; `publish` rejects regressions. A
///    reader can thus use the epoch to index side state (caches keyed by
///    (epoch, h, method) in the daemon) without re-validating the tree.
///
/// This is deliberately a mutex, not a lock-free scheme: the critical
/// section is a pointer copy (~ns) while each analyze is µs-to-ms, so
/// contention is negligible and the memory-ordering argument stays
/// one-paragraph simple. The daemon can swap in
/// `std::atomic<std::shared_ptr>` later without changing the contract.

#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "relmore/circuit/flat_tree.hpp"

namespace relmore::engine {

/// One published (topology, epoch) pair. Immutable after publish; readers
/// hold it via shared_ptr for as long as they need it.
struct SnapshotRecord {
  circuit::FlatTree tree;
  std::uint64_t epoch = 0;

  SnapshotRecord(circuit::FlatTree t, std::uint64_t e) : tree(std::move(t)), epoch(e) {}
};

/// Single-writer / many-reader publication point for epoch-stamped
/// FlatTree snapshots. Thread-safe: `publish` from one thread at a time,
/// `acquire`/`epoch` from any number of threads concurrently.
class SharedSnapshot {
 public:
  SharedSnapshot() = default;

  /// Publishes a new snapshot. `epoch` must be strictly greater than the
  /// last published epoch (throws std::invalid_argument otherwise — a
  /// regression means two writers, which this primitive does not
  /// support). The FlatTree is moved into an immutable record before the
  /// lock is taken, so the critical section is one pointer swap.
  void publish(circuit::FlatTree tree, std::uint64_t epoch) {
    auto record = std::make_shared<const SnapshotRecord>(std::move(tree), epoch);
    std::lock_guard<std::mutex> lock(mutex_);
    if (current_ && epoch <= current_->epoch) {
      throw std::invalid_argument("SharedSnapshot::publish: epoch must increase");
    }
    current_ = std::move(record);
  }

  /// Latest published record, or nullptr before the first publish. The
  /// returned record is immutable and stays valid for as long as the
  /// pointer is held, regardless of later publishes.
  [[nodiscard]] std::shared_ptr<const SnapshotRecord> acquire() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return current_;
  }

  /// Epoch of the latest published record; 0 before the first publish.
  [[nodiscard]] std::uint64_t epoch() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return current_ ? current_->epoch : 0;
  }

 private:
  mutable std::mutex mutex_;
  std::shared_ptr<const SnapshotRecord> current_;
};

}  // namespace relmore::engine
