#ifndef MOPE_ENGINE_BTREE_H_
#define MOPE_ENGINE_BTREE_H_

/// \file btree.h
/// In-memory B+-tree from uint64 keys to uint64 row ids.
///
/// This is the secondary index the database server builds over the MOPE
/// ciphertext column — exactly the structure the paper points at when it
/// argues OPE/MOPE needs no DBMS modifications ("the database system can
/// still build index structures, like B+-trees, on the encrypted
/// attributes"). Duplicate keys are supported — deterministic encryption
/// maps equal plaintexts to equal ciphertexts, so e.g. thousands of TPC-H
/// rows share each date's ciphertext. Entries are compared as (key, row_id)
/// pairs; a given pair must be inserted at most once (a row is indexed once
/// per index — the Table layer guarantees this). Deletion rebalances via
/// borrow/merge so the occupancy invariant holds under mixed workloads.

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/status.h"

namespace mope::engine {

class BPlusTree {
 public:
  /// Maximum number of keys per node (fan-out - 1 for internals).
  static constexpr int kMaxKeys = 64;
  static constexpr int kMinKeys = kMaxKeys / 2;

  BPlusTree();
  ~BPlusTree();

  BPlusTree(const BPlusTree&) = delete;
  BPlusTree& operator=(const BPlusTree&) = delete;
  BPlusTree(BPlusTree&&) noexcept;
  BPlusTree& operator=(BPlusTree&&) noexcept;

  /// Inserts an entry. Precondition: the (key, row_id) pair is not already
  /// present (duplicate *keys* with distinct row ids are fine).
  void Insert(uint64_t key, uint64_t row_id);

  /// Removes one entry matching (key, row_id); false when absent.
  bool Erase(uint64_t key, uint64_t row_id);

  /// Number of entries.
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Tree height (1 for a single leaf).
  int height() const { return height_; }

  /// Per-sweep cost accounting, filled by the instrumented ScanRange
  /// overload. Nodes are what a disk-backed DBMS would pay I/O for, so this
  /// is the number the server-side cost model (and stats endpoint) reports.
  struct ScanStats {
    size_t nodes_visited = 0;  ///< Leaf nodes touched (descent excluded).
  };

  /// Calls fn(key, row_id) for every entry with lo <= key <= hi, in
  /// ascending (key, row_id) order. Returns the number of entries visited.
  size_t ScanRange(uint64_t lo, uint64_t hi,
                   const std::function<void(uint64_t, uint64_t)>& fn) const;

  /// As above, additionally accumulating (not resetting) node-visit counts
  /// into `*stats`.
  size_t ScanRange(uint64_t lo, uint64_t hi,
                   const std::function<void(uint64_t, uint64_t)>& fn,
                   ScanStats* stats) const;

  /// Appends the row id of every entry with lo <= key <= hi to `*row_ids`,
  /// in ScanRange's order, and returns how many it appended: the same walk
  /// along the leaf chain, copying each leaf's run of qualifying ids with
  /// no call per entry. Node visits accumulate into `*stats` as ScanRange's
  /// do.
  size_t CollectRange(uint64_t lo, uint64_t hi, std::vector<uint64_t>* row_ids,
                      ScanStats* stats = nullptr) const;

  /// Counts entries in [lo, hi] leaf by leaf, without visiting them one by
  /// one; node visits accumulate into `*stats` as ScanRange's do.
  size_t CountRange(uint64_t lo, uint64_t hi,
                    ScanStats* stats = nullptr) const;

  /// Verifies structural invariants (ordering, occupancy, linked leaves);
  /// used by property tests. Returns Internal on violation.
  Status CheckInvariants() const;

 private:
  struct Node;
  struct InsertResult;

  Node* FindLeaf(uint64_t key) const;
  /// The one range walk: calls `run(first, last)` on each leaf's run of
  /// entries with lo <= key <= hi, in order, and returns their number.
  template <typename Run>
  size_t WalkRange(uint64_t lo, uint64_t hi, ScanStats* stats,
                   const Run& run) const;
  InsertResult InsertRec(Node* node, uint64_t key, uint64_t row_id);
  bool EraseRec(Node* node, uint64_t key, uint64_t row_id);
  void RebalanceChild(Node* parent, int child_idx);
  void FreeTree(Node* node);
  Status CheckNode(const Node* node, int depth, uint64_t lo_bound,
                   bool has_lo, uint64_t hi_bound, bool has_hi,
                   const Node** leftmost_leaf) const;

  Node* root_;
  size_t size_ = 0;
  int height_ = 1;
};

}  // namespace mope::engine

#endif  // MOPE_ENGINE_BTREE_H_
