#include "access/sort_scan.h"

#include <algorithm>

namespace smoothscan {

std::vector<Tid> CollectSortedTids(const BPlusTree* index,
                                   const ScanPredicate& predicate,
                                   const ExecContext& ctx) {
  std::vector<Tid> tids;
  for (BPlusTree::Iterator it = index->Seek(predicate.lo, &ctx);
       it.Valid() && it.key() < predicate.hi; it.Next()) {
    tids.push_back(it.tid());
  }
  ctx.cpu->ChargeSort(tids.size());
  std::sort(tids.begin(), tids.end());
  return tids;
}

uint64_t FetchSortedTids(const HeapFile* heap, const ScanPredicate& predicate,
                         const std::vector<Tid>& tids, size_t begin,
                         size_t end, const ExecContext& ctx,
                         AccessPathStats* stats, const SortedTidSink& sink) {
  uint64_t inspected = 0;
  uint64_t produced = 0;
  size_t i = begin;
  while (i < end) {
    // Entries targeting the same or the next page share one extent request
    // ("easily detected by disk prefetchers"), capped at kSortScanChunkPages.
    const PageId first_page = tids[i].page_id;
    PageId last_page = first_page;
    size_t j = i;
    while (j + 1 < end && tids[j + 1].page_id <= last_page + 1 &&
           tids[j + 1].page_id - first_page < kSortScanChunkPages) {
      last_page = tids[++j].page_id;
    }
    const uint32_t num_pages = last_page - first_page + 1;
    ctx.pool->FetchExtent(heap->file_id(), first_page, num_pages);
    stats->heap_pages_probed += num_pages;
    for (size_t k = i; k <= j; ++k) {
      Tuple tuple = heap->Read(tids[k], ctx);  // Resident: buffer-pool hit.
      ++inspected;
      if (predicate.residual && !predicate.residual(tuple)) continue;
      ++produced;
      sink(tids[k], std::move(tuple));
    }
    i = j + 1;
  }
  stats->tuples_inspected += inspected;
  ctx.cpu->ChargeInspect(inspected);
  ctx.cpu->ChargeProduce(produced);
  return produced;
}

SortScan::SortScan(const BPlusTree* index, ScanPredicate predicate,
                   SortScanOptions options)
    : index_(index), predicate_(std::move(predicate)), options_(options) {
  SMOOTHSCAN_CHECK(predicate_.column == index_->key_column());
}

ExecContext SortScan::DefaultContext() const {
  return EngineContext(index_->heap()->engine());
}

Status SortScan::OpenImpl() {
  const HeapFile* heap = index_->heap();
  const ExecContext& ctx = this->ctx();
  results_.clear();
  next_result_ = 0;
  pages_fetched_ = 0;

  // Phases 1-2: index leaves, then the blocking TID sort.
  const std::vector<Tid> tids = CollectSortedTids(index_, predicate_, ctx);

  // Phase 3: fetch the result pages in heap order.
  struct KeyedTuple {
    int64_t key;
    Tid tid;
    Tuple tuple;
  };
  std::vector<KeyedTuple> keyed;
  FetchSortedTids(heap, predicate_, tids, 0, tids.size(), ctx, &stats_,
                  [&](Tid tid, Tuple&& tuple) {
                    const int64_t key = tuple[predicate_.column].AsInt64();
                    keyed.push_back({key, tid, std::move(tuple)});
                  });
  pages_fetched_ = stats_.heap_pages_probed;

  // Phase 4 (optional): posterior sort restoring the interesting order.
  if (options_.preserve_order) {
    ctx.cpu->ChargeSort(keyed.size());
    std::stable_sort(keyed.begin(), keyed.end(),
                     [](const KeyedTuple& a, const KeyedTuple& b) {
                       return a.key != b.key ? a.key < b.key : a.tid < b.tid;
                     });
  }
  results_.reserve(keyed.size());
  for (KeyedTuple& kt : keyed) results_.push_back(std::move(kt.tuple));
  return Status::OK();
}

bool SortScan::NextBatchImpl(TupleBatch* out) {
  while (next_result_ < results_.size() && !out->full()) {
    out->Append(std::move(results_[next_result_++]));
    ++stats_.tuples_produced;
  }
  return !out->empty();
}

}  // namespace smoothscan
