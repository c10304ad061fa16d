#include "engine/btree.h"

#include <algorithm>
#include <compare>

namespace mope::engine {

namespace {

/// Index entries are (key, row_id) pairs compared lexicographically. Making
/// the row id part of the comparison key keeps every entry unique even when
/// many rows share a ciphertext (deterministic encryption of repeated values
/// — e.g. thousands of TPC-H rows per date), which keeps separator routing
/// simple and exact.
struct Entry {
  uint64_t key;
  uint64_t rid;

  auto operator<=>(const Entry&) const = default;
};

}  // namespace

struct BPlusTree::Node {
  bool is_leaf = true;
  std::vector<Entry> entries;      // leaf payload, sorted
  std::vector<Entry> seps;         // internal separators, sorted
  std::vector<Node*> children;     // internal: seps.size() + 1 children
  Node* next = nullptr;            // leaf chain

  int key_count() const {
    return static_cast<int>(is_leaf ? entries.size() : seps.size());
  }
};

struct BPlusTree::InsertResult {
  Node* new_right = nullptr;  // non-null when the child split
  Entry split_sep{};          // smallest entry of new_right
};

BPlusTree::BPlusTree() : root_(new Node()) {}

BPlusTree::~BPlusTree() { FreeTree(root_); }

BPlusTree::BPlusTree(BPlusTree&& other) noexcept
    : root_(other.root_), size_(other.size_), height_(other.height_) {
  other.root_ = new Node();
  other.size_ = 0;
  other.height_ = 1;
}

BPlusTree& BPlusTree::operator=(BPlusTree&& other) noexcept {
  if (this != &other) {
    FreeTree(root_);
    root_ = other.root_;
    size_ = other.size_;
    height_ = other.height_;
    other.root_ = new Node();
    other.size_ = 0;
    other.height_ = 1;
  }
  return *this;
}

void BPlusTree::FreeTree(Node* node) {
  if (node == nullptr) return;
  if (!node->is_leaf) {
    for (Node* child : node->children) FreeTree(child);
  }
  delete node;
}

// Routing invariant: for an internal node with separators s_0 < s_1 < ...,
// the subtree children[i] holds exactly the entries e with
// s_{i-1} <= e < s_i (s_{-1} = -inf, s_last = +inf). An entry routes to
// child upper_bound(seps, e): the first separator strictly greater than e.

BPlusTree::Node* BPlusTree::FindLeaf(uint64_t key) const {
  // Leaf where (key, 0) would be inserted; the first entry >= (key, 0) is in
  // this leaf or reachable through the leaf chain.
  const Entry probe{key, 0};
  Node* node = root_;
  while (!node->is_leaf) {
    const auto it = std::upper_bound(node->seps.begin(), node->seps.end(), probe);
    node = node->children[static_cast<size_t>(it - node->seps.begin())];
  }
  return node;
}

BPlusTree::InsertResult BPlusTree::InsertRec(Node* node, uint64_t key,
                                             uint64_t row_id) {
  const Entry entry{key, row_id};
  if (node->is_leaf) {
    const auto it =
        std::upper_bound(node->entries.begin(), node->entries.end(), entry);
    node->entries.insert(it, entry);
    if (node->key_count() <= kMaxKeys) return {};
    // Split the leaf in half; the pair keys are unique so any cut is valid.
    const size_t mid = node->entries.size() / 2;
    Node* right = new Node();
    right->is_leaf = true;
    right->entries.assign(node->entries.begin() + static_cast<long>(mid),
                          node->entries.end());
    node->entries.resize(mid);
    right->next = node->next;
    node->next = right;
    return {right, right->entries.front()};
  }

  const auto it = std::upper_bound(node->seps.begin(), node->seps.end(), entry);
  const size_t idx = static_cast<size_t>(it - node->seps.begin());
  InsertResult child_split = InsertRec(node->children[idx], key, row_id);
  if (child_split.new_right == nullptr) return {};

  node->seps.insert(node->seps.begin() + static_cast<long>(idx),
                    child_split.split_sep);
  node->children.insert(node->children.begin() + static_cast<long>(idx) + 1,
                        child_split.new_right);
  if (node->key_count() <= kMaxKeys) return {};

  // Split the internal node: middle separator moves up.
  const size_t mid = node->seps.size() / 2;
  Node* right = new Node();
  right->is_leaf = false;
  const Entry up = node->seps[mid];
  right->seps.assign(node->seps.begin() + static_cast<long>(mid) + 1,
                     node->seps.end());
  right->children.assign(node->children.begin() + static_cast<long>(mid) + 1,
                         node->children.end());
  node->seps.resize(mid);
  node->children.resize(mid + 1);
  return {right, up};
}

void BPlusTree::Insert(uint64_t key, uint64_t row_id) {
  InsertResult split = InsertRec(root_, key, row_id);
  if (split.new_right != nullptr) {
    Node* new_root = new Node();
    new_root->is_leaf = false;
    new_root->seps.push_back(split.split_sep);
    new_root->children.push_back(root_);
    new_root->children.push_back(split.new_right);
    root_ = new_root;
    ++height_;
  }
  ++size_;
}

void BPlusTree::RebalanceChild(Node* parent, int child_idx) {
  Node* child = parent->children[static_cast<size_t>(child_idx)];
  Node* left = child_idx > 0
                   ? parent->children[static_cast<size_t>(child_idx) - 1]
                   : nullptr;
  Node* right = child_idx + 1 < static_cast<int>(parent->children.size())
                    ? parent->children[static_cast<size_t>(child_idx) + 1]
                    : nullptr;

  if (child->is_leaf) {
    if (left != nullptr && left->key_count() > kMinKeys) {
      // Borrow the largest entry from the left sibling.
      child->entries.insert(child->entries.begin(), left->entries.back());
      left->entries.pop_back();
      parent->seps[static_cast<size_t>(child_idx) - 1] = child->entries.front();
      return;
    }
    if (right != nullptr && right->key_count() > kMinKeys) {
      // Borrow the smallest entry from the right sibling.
      child->entries.push_back(right->entries.front());
      right->entries.erase(right->entries.begin());
      parent->seps[static_cast<size_t>(child_idx)] = right->entries.front();
      return;
    }
    // Merge with a sibling (prefer left so the chain pointer fix is local).
    if (left != nullptr) {
      left->entries.insert(left->entries.end(), child->entries.begin(),
                           child->entries.end());
      left->next = child->next;
      parent->seps.erase(parent->seps.begin() + child_idx - 1);
      parent->children.erase(parent->children.begin() + child_idx);
      delete child;
    } else {
      child->entries.insert(child->entries.end(), right->entries.begin(),
                            right->entries.end());
      child->next = right->next;
      parent->seps.erase(parent->seps.begin() + child_idx);
      parent->children.erase(parent->children.begin() + child_idx + 1);
      delete right;
    }
    return;
  }

  // Internal child: rotate through the parent separator.
  if (left != nullptr && left->key_count() > kMinKeys) {
    child->seps.insert(child->seps.begin(),
                       parent->seps[static_cast<size_t>(child_idx) - 1]);
    parent->seps[static_cast<size_t>(child_idx) - 1] = left->seps.back();
    left->seps.pop_back();
    child->children.insert(child->children.begin(), left->children.back());
    left->children.pop_back();
    return;
  }
  if (right != nullptr && right->key_count() > kMinKeys) {
    child->seps.push_back(parent->seps[static_cast<size_t>(child_idx)]);
    parent->seps[static_cast<size_t>(child_idx)] = right->seps.front();
    right->seps.erase(right->seps.begin());
    child->children.push_back(right->children.front());
    right->children.erase(right->children.begin());
    return;
  }
  if (left != nullptr) {
    left->seps.push_back(parent->seps[static_cast<size_t>(child_idx) - 1]);
    left->seps.insert(left->seps.end(), child->seps.begin(), child->seps.end());
    left->children.insert(left->children.end(), child->children.begin(),
                          child->children.end());
    parent->seps.erase(parent->seps.begin() + child_idx - 1);
    parent->children.erase(parent->children.begin() + child_idx);
    delete child;
  } else {
    child->seps.push_back(parent->seps[static_cast<size_t>(child_idx)]);
    child->seps.insert(child->seps.end(), right->seps.begin(),
                       right->seps.end());
    child->children.insert(child->children.end(), right->children.begin(),
                           right->children.end());
    parent->seps.erase(parent->seps.begin() + child_idx);
    parent->children.erase(parent->children.begin() + child_idx + 1);
    delete right;
  }
}

bool BPlusTree::EraseRec(Node* node, uint64_t key, uint64_t row_id) {
  const Entry entry{key, row_id};
  if (node->is_leaf) {
    const auto it =
        std::lower_bound(node->entries.begin(), node->entries.end(), entry);
    if (it == node->entries.end() || *it != entry) return false;
    node->entries.erase(it);
    return true;
  }
  const auto it = std::upper_bound(node->seps.begin(), node->seps.end(), entry);
  const int idx = static_cast<int>(it - node->seps.begin());
  if (!EraseRec(node->children[static_cast<size_t>(idx)], key, row_id)) {
    return false;
  }
  if (node->children[static_cast<size_t>(idx)]->key_count() < kMinKeys) {
    RebalanceChild(node, idx);
  }
  return true;
}

bool BPlusTree::Erase(uint64_t key, uint64_t row_id) {
  if (!EraseRec(root_, key, row_id)) return false;
  --size_;
  if (!root_->is_leaf && root_->key_count() == 0) {
    Node* old_root = root_;
    root_ = root_->children[0];
    old_root->children.clear();
    delete old_root;
    --height_;
  }
  return true;
}

size_t BPlusTree::ScanRange(
    uint64_t lo, uint64_t hi,
    const std::function<void(uint64_t, uint64_t)>& fn) const {
  return ScanRange(lo, hi, fn, nullptr);
}

template <typename Run>
size_t BPlusTree::WalkRange(uint64_t lo, uint64_t hi, ScanStats* stats,
                            const Run& run) const {
  if (lo > hi) return 0;
  const Node* leaf = FindLeaf(lo);
  size_t visited = 0;
  size_t nodes = 1;
  const Entry* it =
      leaf->entries.data() +
      (std::lower_bound(leaf->entries.begin(), leaf->entries.end(),
                        Entry{lo, 0}) -
       leaf->entries.begin());
  while (true) {
    const Entry* const end = leaf->entries.data() + leaf->entries.size();
    // The leaf's run ends at its first key above hi; a leaf whose last key
    // is in range runs to its end and the walk goes on to the next leaf.
    const Entry* const stop =
        (it == end || end[-1].key <= hi)
            ? end
            : std::partition_point(
                  it, end, [hi](const Entry& e) { return e.key <= hi; });
    run(it, stop);
    visited += static_cast<size_t>(stop - it);
    if (stop != end || leaf->next == nullptr) break;
    leaf = leaf->next;
    it = leaf->entries.data();
    ++nodes;
  }
  if (stats != nullptr) stats->nodes_visited += nodes;
  return visited;
}

size_t BPlusTree::ScanRange(
    uint64_t lo, uint64_t hi,
    const std::function<void(uint64_t, uint64_t)>& fn,
    ScanStats* stats) const {
  return WalkRange(lo, hi, stats, [&fn](const Entry* it, const Entry* stop) {
    for (; it != stop; ++it) fn(it->key, it->rid);
  });
}

size_t BPlusTree::CollectRange(uint64_t lo, uint64_t hi,
                               std::vector<uint64_t>* row_ids,
                               ScanStats* stats) const {
  return WalkRange(lo, hi, stats,
                   [row_ids](const Entry* it, const Entry* stop) {
                     const size_t at = row_ids->size();
                     row_ids->resize(at + static_cast<size_t>(stop - it));
                     uint64_t* out = row_ids->data() + at;
                     for (; it != stop; ++it) *out++ = it->rid;
                   });
}

size_t BPlusTree::CountRange(uint64_t lo, uint64_t hi,
                             ScanStats* stats) const {
  return WalkRange(lo, hi, stats, [](const Entry*, const Entry*) {});
}

Status BPlusTree::CheckNode(const Node* node, int depth, uint64_t lo_bound,
                            bool has_lo, uint64_t hi_bound, bool has_hi,
                            const Node** leftmost_leaf) const {
  const bool is_root = (node == root_);
  if (node->is_leaf) {
    if (depth != height_) return Status::Internal("leaf at wrong depth");
    if (!is_root && node->key_count() < kMinKeys) {
      return Status::Internal("leaf underflow");
    }
    if (node->key_count() > kMaxKeys) return Status::Internal("leaf overflow");
    if (!std::is_sorted(node->entries.begin(), node->entries.end())) {
      return Status::Internal("leaf entries unsorted");
    }
    for (const Entry& e : node->entries) {
      if (has_lo && e < Entry{lo_bound, 0}) {
        return Status::Internal("leaf entry below subtree bound");
      }
      if (has_hi && !(e.key < hi_bound ||
                      (e.key == hi_bound && e < Entry{hi_bound, ~uint64_t{0}}))) {
        // Strict upper bound is on the pair; a coarse key check suffices here.
        if (e.key > hi_bound) return Status::Internal("leaf entry above bound");
      }
    }
    if (*leftmost_leaf == nullptr) *leftmost_leaf = node;
    return Status::OK();
  }

  if (!is_root && node->key_count() < kMinKeys) {
    return Status::Internal("internal underflow");
  }
  if (node->key_count() > kMaxKeys) return Status::Internal("internal overflow");
  if (node->children.size() != node->seps.size() + 1) {
    return Status::Internal("internal child count mismatch");
  }
  if (!std::is_sorted(node->seps.begin(), node->seps.end())) {
    return Status::Internal("separators unsorted");
  }
  for (size_t i = 0; i < node->children.size(); ++i) {
    const bool child_has_lo = (i > 0) || has_lo;
    const uint64_t child_lo = (i > 0) ? node->seps[i - 1].key : lo_bound;
    const bool child_has_hi = (i < node->seps.size()) || has_hi;
    const uint64_t child_hi = (i < node->seps.size()) ? node->seps[i].key : hi_bound;
    MOPE_RETURN_NOT_OK(CheckNode(node->children[i], depth + 1, child_lo,
                                 child_has_lo, child_hi, child_has_hi,
                                 leftmost_leaf));
  }
  return Status::OK();
}

Status BPlusTree::CheckInvariants() const {
  const Node* leftmost = nullptr;
  MOPE_RETURN_NOT_OK(CheckNode(root_, 1, 0, false, 0, false, &leftmost));
  // Leaf chain must enumerate exactly size_ entries in sorted order.
  size_t n = 0;
  bool first = true;
  Entry prev{0, 0};
  for (const Node* leaf = leftmost; leaf != nullptr; leaf = leaf->next) {
    for (const Entry& e : leaf->entries) {
      if (!first && e < prev) return Status::Internal("leaf chain unsorted");
      prev = e;
      first = false;
      ++n;
    }
  }
  if (leftmost == nullptr && root_->is_leaf) {
    n = root_->entries.size();
  }
  if (n != size_) return Status::Internal("leaf chain size mismatch");
  return Status::OK();
}

}  // namespace mope::engine
