// Non-clustered B+-tree secondary index over INT64 keys (integers and dates;
// every indexed column in the paper's workloads is one of the two).
//
// Leaf entries are (key, Tid) pairs kept in strict (key, Tid) order — the
// ordering the paper notes lets a DBMS avoid the Tuple ID Cache. Leaves are
// chained; a bulk-built tree lays leaves out at consecutive page ids so that
// a leaf-to-leaf traversal is a sequential access pattern, matching the
// #leaves_res * seq_cost term of the paper's Eq. (11).
//
// I/O accounting: each node occupies one logical page of the index file.
// Node *content* is kept in memory (serializing nodes to page bytes would add
// code without changing any measured quantity), while node *accesses* go
// through the buffer pool, so tree descents charge random I/Os until the
// internal nodes become resident — the paper's assumption that internal nodes
// (~1% of the data) end up cached.

#ifndef SMOOTHSCAN_INDEX_BPLUS_TREE_H_
#define SMOOTHSCAN_INDEX_BPLUS_TREE_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "storage/engine.h"
#include "storage/exec_context.h"
#include "storage/heap_file.h"

namespace smoothscan {

/// Structural metadata mirroring the derived values of the paper's Table I.
struct IndexMeta {
  uint32_t fanout = 0;       ///< Max children of an internal node (Eq. 5).
  uint32_t leaf_capacity = 0;///< Max (key, Tid) entries per leaf.
  uint32_t height = 0;       ///< Levels including the leaf level (Eq. 7).
  uint64_t num_leaves = 0;   ///< Leaf count (Eq. 6).
  uint64_t num_entries = 0;  ///< Total (key, Tid) entries.
};

/// Indexed key size in bytes (KS in Table I): keys are INT64 or DATE.
inline constexpr uint32_t kIndexKeySize = 8;

/// Test seams. By default the fanout follows the paper's cost model: derived
/// from the page size with 20% per-key pointer overhead (Eq. 5).
struct BPlusTreeOptions {
  /// When nonzero, overrides the Eq.-5-derived fanout.
  // lint:allow(dead-option) — tests force deep trees with little data.
  uint32_t fanout_override = 0;
  /// When nonzero, overrides the derived leaf capacity.
  // lint:allow(dead-option) — tests force deep trees with little data.
  uint32_t leaf_capacity_override = 0;
};

/// Non-clustered secondary B+-tree index.
class BPlusTree {
 public:
  /// An index over `heap`'s column `key_column` (must be INT64 or DATE).
  /// The tree starts empty; use BulkBuild or Insert to populate it.
  BPlusTree(Engine* engine, std::string name, const HeapFile* heap,
            int key_column, BPlusTreeOptions options = BPlusTreeOptions());

  BPlusTree(const BPlusTree&) = delete;
  BPlusTree& operator=(const BPlusTree&) = delete;

  /// Builds the tree bottom-up from all tuples currently in the heap file.
  /// Build-time operation: not I/O-accounted. Replaces any existing content.
  void BulkBuild();

  /// Inserts one entry (standard top-down insert with node splits).
  /// Build-time operation: not I/O-accounted.
  void Insert(int64_t key, Tid tid);

  /// Removes the entry (key, tid); returns false when absent. Like
  /// PostgreSQL, leaves are never merged or rebalanced on delete — a leaf may
  /// go underfull or empty (iterators skip empty leaves), and the space is
  /// reclaimed by later inserts into the leaf. Maintenance operation: not
  /// I/O-accounted (applied at snapshot publish; see write/table_version.h).
  bool Remove(int64_t key, Tid tid);

  /// Forward iterator over leaf entries; query-time accesses are charged to
  /// the engine's buffer pool / CPU meter — or, when the iterator was
  /// obtained with an ExecContext, to that context's stream instead.
  class Iterator {
   public:
    bool Valid() const { return leaf_ != kInvalidPageId; }
    int64_t key() const;
    Tid tid() const;
    /// Advances to the next entry in (key, Tid) order.
    void Next();

   private:
    friend class BPlusTree;
    Iterator(const BPlusTree* tree, PageId leaf, uint32_t pos,
             const ExecContext* ctx)
        : tree_(tree), leaf_(leaf), pos_(pos), ctx_(ctx) {}

    BufferPool& pool() const;
    CpuMeter& cpu() const;

    const BPlusTree* tree_;
    PageId leaf_;
    uint32_t pos_;
    /// Borrowed accounting context; null = the tree's engine. Must outlive
    /// the iterator (morsel contexts outlive their morsel's scan).
    const ExecContext* ctx_;
  };

  /// First entry with key >= `lo`, charging the tree descent (height random
  /// I/Os on a cold buffer pool). Invalid iterator when no such entry exists.
  /// `ctx` redirects the descent and all iteration charges (null = engine).
  Iterator Seek(int64_t lo, const ExecContext* ctx = nullptr) const;

  /// First entry of the index (also charges a descent).
  Iterator Begin() const;

  /// Splits the qualifying key range [lo, hi) into up to `max_parts`
  /// contiguous sub-ranges covering roughly equal numbers of index entries,
  /// using the leaf level as an exact histogram. Returns ascending bounds
  /// {lo, b1, ..., hi}; part i is [bounds[i], bounds[i+1]). Planning helper:
  /// walks the in-memory nodes free of charge, like the optimizer's
  /// statistics would be consulted.
  std::vector<int64_t> PartitionKeyRange(int64_t lo, int64_t hi,
                                         uint32_t max_parts) const;

  /// Key separators stored in the root node. The paper uses these as the
  /// key-range partition boundaries of the Result Cache ("the root page is a
  /// good indicator of the key value distributions").
  std::vector<int64_t> RootSeparators() const;

  IndexMeta meta() const;
  const std::string& name() const { return name_; }
  int key_column() const { return key_column_; }
  const HeapFile* heap() const { return heap_; }
  FileId file_id() const { return file_id_; }

  /// Smallest / largest key present (undefined when empty).
  int64_t MinKey() const;
  int64_t MaxKey() const;
  uint64_t num_entries() const { return num_entries_; }

  /// Verifies structural invariants (sorted keys, balanced depth, fanout
  /// bounds, leaf chain completeness). Test support; aborts on violation.
  void CheckInvariants() const;

 private:
  struct Node {
    bool is_leaf = true;
    std::vector<int64_t> keys;      // Leaf: entry keys. Internal: separators.
    std::vector<Tid> tids;          // Leaf only, parallel to keys.
    std::vector<PageId> children;   // Internal only, keys.size() + 1 entries.
    PageId next_leaf = kInvalidPageId;
  };

  PageId NewNode(bool is_leaf);
  Node& node(PageId id) { return *nodes_[id]; }
  const Node& node(PageId id) const { return *nodes_[id]; }

  /// Descends from the root to the leaf that may contain `key`, charging one
  /// buffer-pool fetch per visited node to `pool`. Returns the leaf page id.
  PageId DescendAccounted(int64_t key, BufferPool* pool) const;

  /// Recursive insert; returns the (separator, new right sibling) on split.
  struct SplitResult {
    bool split = false;
    int64_t separator = 0;
    PageId right = kInvalidPageId;
  };
  SplitResult InsertRec(PageId node_id, int64_t key, Tid tid);

  void CheckRec(PageId node_id, uint32_t depth, uint32_t leaf_depth,
                int64_t lo, int64_t hi, uint64_t* entries_seen) const;

  Engine* engine_;
  std::string name_;
  const HeapFile* heap_;
  int key_column_;
  BPlusTreeOptions options_;
  uint32_t fanout_;
  uint32_t leaf_capacity_;

  FileId file_id_;
  std::vector<std::unique_ptr<Node>> nodes_;
  PageId root_ = kInvalidPageId;
  PageId first_leaf_ = kInvalidPageId;
  uint64_t num_entries_ = 0;
  uint32_t height_ = 0;
};

}  // namespace smoothscan

#endif  // SMOOTHSCAN_INDEX_BPLUS_TREE_H_
