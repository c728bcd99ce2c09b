#include "access/switch_scan.h"

#include <algorithm>

namespace smoothscan {

SwitchScan::SwitchScan(const BPlusTree* index, ScanPredicate predicate,
                       SwitchScanOptions options)
    : index_(index), predicate_(std::move(predicate)), options_(options) {
  SMOOTHSCAN_CHECK(predicate_.column == index_->key_column());
}

SwitchScan::SwitchScan(const BPlusTree* index, ScanPredicate predicate,
                       SwitchScanOptions options, PageId page_begin,
                       PageId page_end, const TupleIdCache* frozen)
    : SwitchScan(index, std::move(predicate), options) {
  page_begin_ = page_begin;
  page_end_ = page_end;
  frozen_ = frozen;
}

ExecContext SwitchScan::DefaultContext() const {
  return EngineContext(index_->heap()->engine());
}

Status SwitchScan::OpenImpl() {
  produced_.Clear();
  // A morsel resumes after the prolog's switch: no index phase, no descent.
  switched_ = frozen_ != nullptr;
  if (!switched_) it_ = index_->Seek(predicate_.lo, &ctx());
  cur_page_ = page_begin_;
  cur_slot_ = 0;
  window_end_ = page_begin_;
  num_pages_ = std::min(page_end_,
                        static_cast<PageId>(index_->heap()->num_pages()));
  return Status::OK();
}

void SwitchScan::CloseImpl() {
  it_.reset();
  produced_.Clear();
}

void SwitchScan::IndexPhase(TupleBatch* out) {
  const HeapFile* heap = index_->heap();
  const ExecContext& ctx = this->ctx();
  uint64_t inspected = 0;
  uint64_t produced = 0;
  uint64_t cache_ops = 0;
  while (!out->full() && it_->Valid() && it_->key() < predicate_.hi) {
    const Tid tid = it_->tid();
    Tuple tuple = heap->Read(tid, ctx);
    ++stats_.heap_pages_probed;
    ++inspected;
    if (predicate_.residual && !predicate_.residual(tuple)) {
      it_->Next();
      continue;
    }
    // A qualifying tuple. If producing it would exceed the estimate, the
    // estimate is wrong: switch *before producing the next result tuple*
    // (Section VI-F). The tuple is not produced here — the full scan will
    // re-discover it, since its TID was never recorded.
    if (stats_.tuples_produced + produced >= options_.estimated_cardinality) {
      switched_ = true;
      break;
    }
    it_->Next();
    produced_.Insert(tid);
    ++cache_ops;
    ++produced;
    out->Append(std::move(tuple));
  }
  stats_.tuples_inspected += inspected;
  stats_.tuples_produced += produced;
  ctx.cpu->ChargeInspect(inspected);
  ctx.cpu->ChargeCacheOp(cache_ops);
  ctx.cpu->ChargeProduce(produced);
}

void SwitchScan::FullScanPhase(TupleBatch* out) {
  const HeapFile* heap = index_->heap();
  const ExecContext& ctx = this->ctx();
  const Schema& schema = heap->schema();
  const TupleIdCache& produced_before =
      frozen_ != nullptr ? *frozen_ : produced_;
  uint64_t inspected = 0;
  uint64_t produced = 0;
  uint64_t cache_ops = 0;
  while (!out->full() && cur_page_ < num_pages_) {
    if (cur_page_ >= window_end_) {
      const uint32_t window =
          std::min<uint32_t>(kReadAheadPages, num_pages_ - window_end_);
      ctx.pool->FetchExtent(heap->file_id(), window_end_, window);
      window_end_ += window;
    }
    const PageGuard guard = ctx.pool->Pin(heap->file_id(), cur_page_);
    const Page& page = *guard;
    if (cur_slot_ == 0) ++stats_.heap_pages_probed;
    const uint16_t num_slots = page.num_slots();
    while (cur_slot_ < num_slots && !out->full()) {
      const SlotId s = cur_slot_++;
      uint32_t size = 0;
      const uint8_t* data = page.GetTuple(s, &size);
      if (data == nullptr) continue;  // Tombstoned slot.
      ++inspected;
      const int64_t key =
          schema.ReadInt64Column(data, size, predicate_.column);
      if (!predicate_.MatchesKey(key)) continue;
      Tuple* slot = out->AppendSlot();
      schema.DeserializeInto(data, size, slot);
      if (predicate_.residual && !predicate_.residual(*slot)) {
        out->PopLast();
        continue;
      }
      // Suppress tuples already produced by the index phase.
      ++cache_ops;
      if (produced_before.Contains(Tid{cur_page_, s})) {
        out->PopLast();
        continue;
      }
      ++produced;
    }
    if (cur_slot_ >= num_slots) {
      ++cur_page_;
      cur_slot_ = 0;
    }
  }
  stats_.tuples_inspected += inspected;
  stats_.tuples_produced += produced;
  ctx.cpu->ChargeInspect(inspected);
  ctx.cpu->ChargeCacheOp(cache_ops);
  ctx.cpu->ChargeProduce(produced);
}

bool SwitchScan::NextBatchImpl(TupleBatch* out) {
  if (!switched_) {
    IndexPhase(out);
    // Keep the batch from the index phase even if the switch just fired; the
    // full scan continues in the next call.
    if (!out->empty()) return true;
    if (!switched_) return false;  // Index phase finished without violation.
  }
  FullScanPhase(out);
  return !out->empty();
}

}  // namespace smoothscan
