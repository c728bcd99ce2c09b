#include "compress/compressed_extent_map.h"

#include <utility>

namespace smoothscan {

namespace {
/// Bytes reserved for the slotted-page header and the blob's slot entry, plus
/// margin; the builder flushes before a block could outgrow the page.
constexpr uint32_t kPageOverheadReserve = 64;
}  // namespace

CompressedExtentRef CompressedExtentMap::Enable(const HeapFile* heap,
                                               int key_column,
                                               bool auto_rebuild) {
  if (!heap->schema().IsFixedWidth()) return nullptr;
  if (key_column < 0 ||
      static_cast<size_t>(key_column) >= heap->schema().num_columns()) {
    return nullptr;
  }
  const ValueType key_type = heap->schema().column(key_column).type;
  if (key_type != ValueType::kInt64 && key_type != ValueType::kDate) {
    return nullptr;
  }

  latch::LatchGuard lock(mu_);
  auto [it, inserted] = tables_.try_emplace(heap->file_id());
  TableEntry& entry = it->second;
  if (inserted) {
    entry.heap = heap;
    entry.key_column = key_column;
    entry.auto_rebuild = auto_rebuild;
    entry.file = engine_->storage().CreateFile(
        engine_->storage().FileName(heap->file_id()) + ".cmp");
  } else {
    entry.key_column = key_column;
    entry.auto_rebuild = auto_rebuild;
    engine_->pool().EvictFile(entry.file);
    engine_->storage().TruncateFile(entry.file);
  }
  // Load-time build: storage walk + page construction, no I/O charged (the
  // same free-by-design footing as HeapFile::Append at load).
  entry.current = BuildLocked(&entry, /*charge_write=*/false);
  return entry.current;
}

CompressedExtentRef CompressedExtentMap::Lookup(FileId table) const {
  latch::LatchGuard lock(mu_);
  auto it = tables_.find(table);
  return it == tables_.end() ? nullptr : it->second.current;
}

void CompressedExtentMap::OnPublish(FileId table) {
  latch::LatchGuard lock(mu_);
  auto it = tables_.find(table);
  if (it == tables_.end()) return;
  TableEntry& entry = it->second;
  entry.current = nullptr;
  if (!entry.auto_rebuild) return;
  engine_->pool().EvictFile(entry.file);
  engine_->storage().TruncateFile(entry.file);
  entry.current = BuildLocked(&entry, /*charge_write=*/true);
  ++rebuilds_;
}

CompressedExtentRef CompressedExtentMap::Rebuild(FileId table) {
  latch::LatchGuard lock(mu_);
  auto it = tables_.find(table);
  if (it == tables_.end()) return nullptr;
  TableEntry& entry = it->second;
  entry.current = nullptr;
  engine_->pool().EvictFile(entry.file);
  engine_->storage().TruncateFile(entry.file);
  entry.current = BuildLocked(&entry, /*charge_write=*/true);
  ++rebuilds_;
  return entry.current;
}

CompressedExtentRef CompressedExtentMap::BuildLocked(TableEntry* entry,
                                                     bool charge_write) {
  StorageManager& storage = engine_->storage();
  const HeapFile* heap = entry->heap;
  const Schema& schema = heap->schema();
  const FileId table = heap->file_id();
  const uint32_t page_size = engine_->options().page_size;
  SMOOTHSCAN_CHECK(page_size > kPageOverheadReserve +
                                   kCompressedBlockHeaderSize);

  auto extent = std::make_shared<CompressedExtent>();
  extent->table = table;
  extent->file = entry->file;
  extent->key_column = entry->key_column;
  extent->schema = &schema;
  extent->version = ++entry->version;
  extent->source_pages = static_cast<PageId>(storage.NumPages(table));

  CompressedBlockBuilder builder(&schema, entry->key_column,
                                 page_size - kPageOverheadReserve);
  std::vector<uint8_t> blob;
  auto flush = [&]() {
    const CompressedBlockInfo info = builder.Finish(&blob);
    const PageId page = storage.AppendPage(entry->file);
    Result<SlotId> slot = storage.GetPageForWrite(entry->file, page)
                              ->Insert(blob.data(),
                                       static_cast<uint32_t>(blob.size()));
    SMOOTHSCAN_CHECK(slot.ok() && slot.value() == 0);
    CompressedBlockMeta meta;
    meta.key_min = info.key_min;
    meta.key_max = info.key_max;
    meta.tuples = info.tuples;
    meta.key_runs = info.key_runs;
    meta.row_begin = extent->num_tuples;
    extent->blocks.push_back(meta);
    extent->num_tuples += info.tuples;
    extent->key_runs += info.key_runs;
    extent->encoded_bytes += info.encoded_bytes;
  };

  // Direct storage walk in heap order (publish quiescence: content is the
  // published snapshot). Dead slots are simply not folded in.
  for (PageId p = 0; p < extent->source_pages; ++p) {
    const Page& page = storage.GetPage(table, p);
    const uint16_t num_slots = page.num_slots();
    for (uint16_t slot = 0; slot < num_slots; ++slot) {
      uint32_t size = 0;
      const uint8_t* data = page.GetTuple(slot, &size);
      if (data == nullptr) continue;
      if (!builder.Add(data, size)) {
        flush();
        SMOOTHSCAN_CHECK(builder.Add(data, size));
      }
    }
  }
  if (!builder.empty()) flush();

  if (charge_write && !extent->blocks.empty()) {
    engine_->disk().WriteExtent(entry->file, 0, extent->num_pages());
  }
  return extent;
}

}  // namespace smoothscan
