#include "sharing/scan_sharing.h"

#include <algorithm>

namespace smoothscan {

SharedScanGroup::SharedScanGroup(Engine* engine, FileId file,
                                 PageId num_pages, SharedScanOptions options)
    : engine_(engine),
      file_(file),
      num_pages_(num_pages),
      options_(options),
      num_chunks_((num_pages + options.chunk_pages - 1) /
                  options.chunk_pages) {
  SMOOTHSCAN_CHECK(options_.chunk_pages >= 1);
  SMOOTHSCAN_CHECK(options_.drift_chunks >= 1);
}

SharedScanGroupStats SharedScanGroup::stats() const {
  latch::LatchGuard lock(mu_);
  return stats_;
}

void SharedScanGroup::Attach(SharedScanConsumer* out) {
  latch::LatchGuard lock(mu_);
  uint32_t id;
  if (!free_ids_.empty()) {
    id = free_ids_.back();
    free_ids_.pop_back();
  } else {
    id = static_cast<uint32_t>(consumers_.size());
    consumers_.emplace_back();
  }
  ConsumerState state;
  // A late arrival joins at the scan's current chunk — the oldest one still
  // in the window — claiming every produced-but-unreleased chunk so it rides
  // the pinned window from behind instead of starting drift-blocked at the
  // production head. Its lap wraps around from there.
  state.next_seq = window_base_;
  state.end_seq = window_base_ + num_chunks_;
  state.active = true;
  for (const std::shared_ptr<SharedChunk>& chunk : window_) {
    // Tiny tables can have a window longer than a lap; claim only what this
    // consumer will actually consume.
    if (chunk->seq < state.end_seq) ++chunk->readers;
  }
  consumers_[id] = state;
  ++active_consumers_;
  ++stats_.consumers_attached;
  stats_.chunk_claims += num_chunks_;
  stats_.active_consumers = active_consumers_;
  out->group_ = shared_from_this();
  out->id_ = id;
  out->start_seq_ = state.next_seq;
  out->lap_chunks_ = num_chunks_;
  PumpLocked();
}

bool SharedScanGroup::CanProduceLocked() {
  if (active_consumers_ == 0) return false;
  uint64_t min_next = UINT64_MAX;
  uint64_t max_end = 0;
  for (const ConsumerState& c : consumers_) {
    if (!c.active) continue;
    min_next = std::min(min_next, c.next_seq);
    max_end = std::max(max_end, c.end_seq);
  }
  if (head_seq_ >= max_end) return false;  // No one needs another chunk.
  // Never drift more than the bound ahead of the slowest consumer (bounds
  // the pinned window).
  return head_seq_ < min_next + options_.drift_chunks;
}

void SharedScanGroup::ProduceOneLocked() {
  const uint64_t seq = head_seq_;
  const PageId first =
      static_cast<PageId>((seq % num_chunks_) * options_.chunk_pages);
  const uint32_t count =
      std::min<uint32_t>(options_.chunk_pages, num_pages_ - first);

  auto chunk = std::make_shared<SharedChunk>();
  chunk->seq = seq;
  chunk->first_page = first;
  chunk->num_pages = count;
  // The one communal fetch: charged to the engine's shared stream, pinned so
  // every attached consumer can read the pages latch-free.
  BufferPool& pool = engine_->pool();
  pool.FetchExtent(file_, first, count);
  chunk->guards.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    chunk->guards.push_back(pool.Pin(file_, first + i));
  }
  for (const ConsumerState& c : consumers_) {
    if (c.active && c.end_seq > seq) ++chunk->readers;
  }
  SMOOTHSCAN_CHECK(chunk->readers > 0);  // CanProduceLocked guarantees need.
  window_.push_back(std::move(chunk));
  ++head_seq_;
  ++stats_.chunks_produced;
  stats_.pages_fetched += count;
}

void SharedScanGroup::PumpLocked() {
  // The thread that uncovered the capacity produces.
  if (!CanProduceLocked()) return;
  do {
    ProduceOneLocked();
  } while (CanProduceLocked());
  cv_.notify_all();
}

void SharedScanGroup::PopFreeChunksLocked() {
  while (!window_.empty() && window_.front()->readers == 0) {
    window_.pop_front();  // Drops the guards: the pages become evictable.
    ++window_base_;
  }
}

void SharedScanGroup::ReleaseHeldLocked(ConsumerState* c) {
  SMOOTHSCAN_CHECK(c->holding);
  SMOOTHSCAN_CHECK(c->next_seq >= window_base_ && c->next_seq < head_seq_);
  SharedChunk* chunk = window_[c->next_seq - window_base_].get();
  SMOOTHSCAN_CHECK(chunk->readers > 0);
  --chunk->readers;
  c->holding = false;
  ++c->next_seq;
  PopFreeChunksLocked();
  // This consumer may have been the slowest: its advance can open drift
  // capacity for everyone else.
  PumpLocked();
}

void SharedScanGroup::DropClaimsLocked(uint64_t from_seq, uint64_t end_seq) {
  const uint64_t lo = std::max(from_seq, window_base_);
  const uint64_t hi = std::min(end_seq, head_seq_);
  for (uint64_t seq = lo; seq < hi; ++seq) {
    SharedChunk* chunk = window_[seq - window_base_].get();
    SMOOTHSCAN_CHECK(chunk->readers > 0);
    --chunk->readers;
  }
  PopFreeChunksLocked();
}

const SharedChunk* SharedScanGroup::NextChunk(uint32_t id) {
  latch::UniqueLatch lock(mu_);
  ConsumerState& c = consumers_[id];
  SMOOTHSCAN_CHECK(c.active);
  if (c.holding) ReleaseHeldLocked(&c);
  if (c.next_seq >= c.end_seq) {
    // Full lap: every chunk seen exactly once — detach.
    c.active = false;
    --active_consumers_;
    stats_.active_consumers = active_consumers_;
    free_ids_.push_back(id);  // The handle drops the group before any reuse.
    PumpLocked();
    cv_.notify_all();
    return nullptr;
  }
  while (c.next_seq >= head_seq_) {
    PumpLocked();
    if (c.next_seq < head_seq_) break;
    // This consumer has hit the drift bound: wait for the slowest consumer
    // to advance.
    cv_.wait(lock);
  }
  c.holding = true;
  return window_[c.next_seq - window_base_].get();
}

void SharedScanGroup::Detach(uint32_t id) {
  latch::LatchGuard lock(mu_);
  ConsumerState& c = consumers_[id];
  if (!c.active) return;
  if (c.holding) {
    // Cancelled mid-chunk: the held chunk's claim goes with the rest below.
    c.holding = false;
  }
  c.active = false;
  --active_consumers_;
  stats_.active_consumers = active_consumers_;
  free_ids_.push_back(id);
  DropClaimsLocked(c.next_seq, std::min(c.end_seq, head_seq_));
  // The cancelled consumer may have been the drift bound; wake everyone.
  PumpLocked();
  cv_.notify_all();
}

const SharedChunk* SharedScanConsumer::NextChunk() {
  if (group_ == nullptr) return nullptr;
  const SharedChunk* chunk = group_->NextChunk(id_);
  if (chunk == nullptr) group_.reset();  // Lap done; the group detached us.
  return chunk;
}

void SharedScanConsumer::Detach() {
  if (group_ == nullptr) return;
  group_->Detach(id_);
  group_.reset();
}

ScanSharingCoordinator::ScanSharingCoordinator(Engine* engine,
                                               SharedScanOptions options)
    : engine_(engine), options_(options) {}

ScanSharingCoordinator::~ScanSharingCoordinator() {
  latch::LatchGuard lock(mu_);
  for (const auto& [file, group] : groups_) {
    // Destroying the coordinator with live consumers would dangle their
    // handles; the engine drains queries first.
    SMOOTHSCAN_CHECK(group->stats().active_consumers == 0);
  }
}

SharedScanConsumer ScanSharingCoordinator::Attach(const HeapFile* heap) {
  return AttachExtent(heap->file_id(),
                      static_cast<PageId>(heap->num_pages()));
}

SharedScanConsumer ScanSharingCoordinator::AttachExtent(FileId file,
                                                        PageId num_pages) {
  std::shared_ptr<SharedScanGroup> group;
  {
    latch::LatchGuard lock(mu_);
    std::shared_ptr<SharedScanGroup>& slot = groups_[file];
    if (slot == nullptr) {
      slot = std::make_shared<SharedScanGroup>(engine_, file, num_pages,
                                               options_);
    }
    group = slot;
  }
  SharedScanConsumer consumer;
  group->Attach(&consumer);
  return consumer;
}

std::shared_ptr<SharedSmoothGroup> ScanSharingCoordinator::SmoothSharingFor(
    const HeapFile* heap) {
  latch::LatchGuard lock(mu_);
  std::shared_ptr<SharedSmoothGroup>& slot = smooth_groups_[heap->file_id()];
  if (slot == nullptr) {
    slot = std::make_shared<SharedSmoothGroup>(heap->num_pages(),
                                               &engine_->pool(),
                                               heap->file_id());
  }
  return slot;
}

std::shared_ptr<const SharedScanGroup> ScanSharingCoordinator::GroupFor(
    const HeapFile* heap) const {
  latch::LatchGuard lock(mu_);
  auto it = groups_.find(heap->file_id());
  return it == groups_.end() ? nullptr : it->second;
}

void ScanSharingCoordinator::InvalidateFile(FileId file) {
  std::shared_ptr<SharedScanGroup> retired;  // Destroyed outside the latch.
  latch::LatchGuard lock(mu_);
  auto it = groups_.find(file);
  if (it != groups_.end()) {
    // Publish runs at table quiescence, so the group must be parked; its
    // window pins drop with it.
    SMOOTHSCAN_CHECK(it->second->stats().active_consumers == 0);
    retired = std::move(it->second);
    groups_.erase(it);
  }
  // Live SmoothScans keep their shared_ptr; only future queries re-group.
  smooth_groups_.erase(file);
}

ScanSharingStats ScanSharingCoordinator::stats() const {
  latch::LatchGuard lock(mu_);
  ScanSharingStats total;
  total.groups = groups_.size();
  for (const auto& [file, group] : groups_) {
    const SharedScanGroupStats s = group->stats();
    total.consumers_attached += s.consumers_attached;
    total.active_consumers += s.active_consumers;
    total.chunks_produced += s.chunks_produced;
    total.pages_fetched += s.pages_fetched;
    total.chunk_claims += s.chunk_claims;
  }
  return total;
}

}  // namespace smoothscan
