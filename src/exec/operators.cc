#include "exec/operators.h"

#include <algorithm>

namespace smoothscan {

bool FilterOp::NextBatchImpl(TupleBatch* out) {
  // Pull child batches until one survives the filter. Survivors are marked
  // in the selection vector; nothing is copied.
  while (child_->NextBatch(out)) {
    engine_->cpu().ChargeInspect(out->size());
    out->Filter(predicate_);
    if (!out->empty()) return true;
  }
  return false;
}

Status SortOp::OpenImpl() {
  SMOOTHSCAN_RETURN_IF_ERROR(child_->Open());
  rows_.clear();
  next_ = 0;
  TupleBatch batch;
  while (child_->NextBatch(&batch)) {
    for (size_t i = 0; i < batch.size(); ++i) rows_.push_back(batch.Take(i));
  }
  engine_->cpu().ChargeSort(rows_.size());
  std::stable_sort(rows_.begin(), rows_.end(), less_);
  return Status::OK();
}

bool SortOp::NextBatchImpl(TupleBatch* out) {
  while (next_ < rows_.size() && !out->full()) {
    out->Append(std::move(rows_[next_++]));
  }
  return !out->empty();
}

void SortOp::CloseImpl() {
  rows_.clear();
  rows_.shrink_to_fit();
  next_ = 0;
  child_->Close();
}

Status HashJoinOp::OpenImpl() {
  SMOOTHSCAN_RETURN_IF_ERROR(left_->Open());
  SMOOTHSCAN_RETURN_IF_ERROR(right_->Open());
  table_.clear();
  matches_ = nullptr;
  match_idx_ = 0;
  probe_.Reset();
  TupleBatch batch;
  while (right_->NextBatch(&batch)) {
    engine_->cpu().ChargeHashOp(batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      Tuple t = batch.Take(i);
      table_[t[right_key_col_].AsInt64()].push_back(std::move(t));
    }
  }
  return Status::OK();
}

bool HashJoinOp::NextBatchImpl(TupleBatch* out) {
  uint64_t hash_ops = 0;
  while (!out->full()) {
    if (matches_ != nullptr && match_idx_ < matches_->size()) {
      Tuple joined = probe_.row();
      const Tuple& right = (*matches_)[match_idx_++];
      joined.insert(joined.end(), right.begin(), right.end());
      out->Append(std::move(joined));
      continue;
    }
    matches_ = nullptr;
    if (!probe_.Advance(left_.get())) break;
    ++hash_ops;
    auto it = table_.find(probe_.row()[left_key_col_].AsInt64());
    if (it == table_.end()) continue;
    matches_ = &it->second;
    match_idx_ = 0;
  }
  engine_->cpu().ChargeHashOp(hash_ops);
  return !out->empty();
}

bool IndexNestedLoopJoinOp::NextBatchImpl(TupleBatch* out) {
  const HeapFile* inner_heap = inner_index_->heap();
  Engine* engine = inner_heap->engine();
  uint64_t inspected = 0;
  while (!out->full()) {
    if (pending_idx_ < pending_.size()) {
      out->Append(std::move(pending_[pending_idx_++]));
      continue;
    }
    pending_.clear();
    pending_idx_ = 0;
    if (!outer_.Advance(outer_op_.get())) break;
    const Tuple& outer = outer_.row();
    const int64_t key = outer[outer_key_col_].AsInt64();
    // Probe the inner index; each match costs one heap look-up.
    for (BPlusTree::Iterator it = inner_index_->Seek(key);
         it.Valid() && it.key() == key; it.Next()) {
      Tuple inner = inner_heap->Read(it.tid());
      ++inspected;
      Tuple joined = outer;
      joined.insert(joined.end(), inner.begin(), inner.end());
      pending_.push_back(std::move(joined));
    }
  }
  engine->cpu().ChargeInspect(inspected);
  return !out->empty();
}

void HashAggregateOp::Accumulate(
    const Tuple& t, std::unordered_map<std::string, size_t>* index) {
  std::string key;
  for (const int c : group_by_) {
    key += t[c].ToString();
    key += '\x1f';
  }
  auto [it, inserted] = index->emplace(key, groups_.size());
  if (inserted) {
    GroupState gs;
    for (const int c : group_by_) gs.key_values.push_back(t[c]);
    gs.acc.resize(aggs_.size(), 0.0);
    gs.counts.resize(aggs_.size(), 0);
    for (size_t a = 0; a < aggs_.size(); ++a) {
      if (aggs_[a].fn == AggFn::kMin) gs.acc[a] = 1e300;
      if (aggs_[a].fn == AggFn::kMax) gs.acc[a] = -1e300;
    }
    groups_.push_back(std::move(gs));
  }
  GroupState& gs = groups_[it->second];
  for (size_t a = 0; a < aggs_.size(); ++a) {
    const AggSpec& spec = aggs_[a];
    ++gs.counts[a];
    switch (spec.fn) {
      case AggFn::kCount:
        break;
      case AggFn::kSum:
      case AggFn::kAvg:
        gs.acc[a] += spec.expr(t);
        break;
      case AggFn::kMin:
        gs.acc[a] = std::min(gs.acc[a], spec.expr(t));
        break;
      case AggFn::kMax:
        gs.acc[a] = std::max(gs.acc[a], spec.expr(t));
        break;
    }
  }
}

Status HashAggregateOp::OpenImpl() {
  SMOOTHSCAN_RETURN_IF_ERROR(child_->Open());
  groups_.clear();
  next_ = 0;

  std::unordered_map<std::string, size_t> index;
  TupleBatch batch;
  while (child_->NextBatch(&batch)) {
    engine_->cpu().ChargeHashOp(batch.size());
    for (size_t i = 0; i < batch.size(); ++i) Accumulate(batch.row(i), &index);
  }
  // A global aggregate over empty input still produces one all-zero row.
  if (group_by_.empty() && groups_.empty()) {
    GroupState gs;
    gs.acc.resize(aggs_.size(), 0.0);
    gs.counts.resize(aggs_.size(), 0);
    groups_.push_back(std::move(gs));
  }
  return Status::OK();
}

bool HashAggregateOp::NextBatchImpl(TupleBatch* out) {
  while (next_ < groups_.size() && !out->full()) {
    const GroupState& gs = groups_[next_++];
    Tuple row = gs.key_values;
    for (size_t a = 0; a < aggs_.size(); ++a) {
      double v = 0.0;
      switch (aggs_[a].fn) {
        case AggFn::kCount:
          v = static_cast<double>(gs.counts[a]);
          break;
        case AggFn::kSum:
          v = gs.acc[a];
          break;
        case AggFn::kAvg:
          v = gs.counts[a] == 0
                  ? 0.0
                  : gs.acc[a] / static_cast<double>(gs.counts[a]);
          break;
        case AggFn::kMin:
        case AggFn::kMax:
          v = gs.acc[a];
          break;
      }
      row.push_back(Value::Double(v));
    }
    out->Append(std::move(row));
  }
  return !out->empty();
}

void HashAggregateOp::CloseImpl() {
  groups_.clear();
  groups_.shrink_to_fit();
  next_ = 0;
  child_->Close();
}

}  // namespace smoothscan
