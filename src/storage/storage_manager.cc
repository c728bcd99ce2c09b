#include "storage/storage_manager.h"

namespace smoothscan {

FileId StorageManager::CreateFile(std::string name) {
  latch::LatchGuard lock(mu_);
  const size_t id = num_files_.load(std::memory_order_relaxed);
  SMOOTHSCAN_CHECK(static_cast<FileId>(id) == id);  // 27 chunks hold them.
  const size_t k = ChunkOf(id);
  std::unique_ptr<File[]>& chunk = chunks_[k];
  if (chunk == nullptr) chunk = std::make_unique<File[]>(kFirstChunkFiles << k);
  chunk[SlotOf(id, k)].name = std::move(name);
  num_files_.store(id + 1, std::memory_order_release);
  return static_cast<FileId>(id);
}

PageId StorageManager::AppendPage(FileId file) {
  latch::LatchGuard lock(mu_);
  File& f = GetFile(file);
  f.pages.push_back(std::make_unique<Page>(page_size_));
  return static_cast<PageId>(f.pages.size() - 1);
}

void StorageManager::TruncateFile(FileId file) {
  latch::LatchGuard lock(mu_);
  GetFile(file).pages.clear();
}

Page* StorageManager::GetPageForWrite(FileId file, PageId page) {
  File& f = GetFile(file);
  SMOOTHSCAN_CHECK(page < f.pages.size());
  return f.pages[page].get();
}

const Page& StorageManager::GetPage(FileId file, PageId page) const {
  const File& f = GetFile(file);
  SMOOTHSCAN_CHECK(page < f.pages.size());
  return *f.pages[page];
}

size_t StorageManager::NumPages(FileId file) const {
  return GetFile(file).pages.size();
}

const std::string& StorageManager::FileName(FileId file) const {
  return GetFile(file).name;
}

}  // namespace smoothscan
