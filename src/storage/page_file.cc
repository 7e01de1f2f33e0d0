#include "storage/page_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cassert>
#include <cstdio>
#include <cstring>

namespace webevo::storage {

namespace {

constexpr uint16_t kTombstone = 0xFFFF;
constexpr std::size_t kSlotDirEntry = 4;  // u16 off + u16 len
constexpr std::size_t kPageHeader = 2;    // u16 nslots

void WriteU16(char* p, uint16_t v) {
  p[0] = static_cast<char>(v & 0xFF);
  p[1] = static_cast<char>((v >> 8) & 0xFF);
}

}  // namespace

std::string PageFile::UniquePath(const std::string& dir,
                                 const std::string& name) {
  static std::atomic<uint64_t> counter{0};
  const uint64_t id = counter.fetch_add(1, std::memory_order_relaxed);
  const std::string base = dir.empty() ? "." : dir;
  return base + "/" + name + "." + std::to_string(::getpid()) + "." +
         std::to_string(id) + ".pages";
}

std::size_t PageFile::MaxRecordBytes(std::size_t page_bytes) {
  if (page_bytes <= kPageHeader + kSlotDirEntry) return 0;
  return page_bytes - kPageHeader - kSlotDirEntry;
}

PageFile::PageFile(std::string path, std::size_t page_bytes,
                   std::size_t cache_pages)
    : path_(std::move(path)),
      page_bytes_(page_bytes),
      cache_cap_(cache_pages == 0 ? 1 : cache_pages) {
  assert(page_bytes_ >= 64 && page_bytes_ <= 0xFFFF);
  fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  assert(fd_ >= 0 && "PageFile: cannot create backing file");
}

PageFile::~PageFile() {
  if (fd_ >= 0) ::close(fd_);
  std::remove(path_.c_str());
}

std::size_t PageFile::Gap(const PageMeta& meta) const {
  const std::size_t dir_end =
      kPageHeader + kSlotDirEntry * meta.slots.size();
  return meta.cell_floor > dir_end ? meta.cell_floor - dir_end : 0;
}

std::size_t PageFile::FreeBytes(const PageMeta& meta) const {
  // Bytes a new record of length L can use: the page's dead cell bytes
  // plus the gap, minus the directory entry a fresh slot needs (a
  // tombstoned slot is reused for free).
  const std::size_t dir_end =
      kPageHeader + kSlotDirEntry * meta.slots.size();
  const std::size_t cell_area = page_bytes_ - dir_end;
  const std::size_t used = meta.live_bytes;
  std::size_t free = cell_area > used ? cell_area - used : 0;
  const bool has_tombstone = meta.live_slots < meta.slots.size();
  if (!has_tombstone) {
    free = free > kSlotDirEntry ? free - kSlotDirEntry : 0;
  }
  return free;
}

void PageFile::WriteBack(uint64_t page, const std::vector<char>& buf) {
  const off_t off = static_cast<off_t>(page) *
                    static_cast<off_t>(page_bytes_);
  ssize_t n = ::pwrite(fd_, buf.data(), page_bytes_, off);
  (void)n;
  assert(n == static_cast<ssize_t>(page_bytes_));
}

void PageFile::TouchLru(uint64_t page) {
  auto it = cache_.find(page);
  lru_.erase(it->second.lru_it);
  lru_.push_front(page);
  it->second.lru_it = lru_.begin();
}

void PageFile::EvictIfNeeded(uint64_t except_page) {
  while (cache_.size() > cache_cap_) {
    // Evict the least-recently-used page other than the one in use.
    auto victim = lru_.end();
    for (auto it = std::prev(lru_.end());; --it) {
      if (*it != except_page) {
        victim = it;
        break;
      }
      if (it == lru_.begin()) break;
    }
    if (victim == lru_.end()) return;
    auto cit = cache_.find(*victim);
    if (cit->second.dirty) {
      WriteBack(*victim, cit->second.buf);
      ++page_evictions_;
    }
    cache_.erase(cit);
    lru_.erase(victim);
  }
}

std::vector<char>& PageFile::PageBuffer(uint64_t page) {
  auto it = cache_.find(page);
  if (it != cache_.end()) {
    TouchLru(page);
    return it->second.buf;
  }
  CacheEntry entry;
  entry.buf.assign(page_bytes_, 0);
  const off_t off = static_cast<off_t>(page) *
                    static_cast<off_t>(page_bytes_);
  ssize_t n = ::pread(fd_, entry.buf.data(), page_bytes_, off);
  (void)n;  // short read = page never written back yet; zeros are fine
  ++page_reads_;
  lru_.push_front(page);
  entry.lru_it = lru_.begin();
  auto [nit, ok] = cache_.emplace(page, std::move(entry));
  (void)ok;
  EvictIfNeeded(page);
  return nit->second.buf;
}

void PageFile::CompactPage(uint64_t page, PageMeta& meta,
                           std::vector<char>& buf) {
  (void)page;
  std::vector<char> fresh(page_bytes_, 0);
  uint16_t cell_end = static_cast<uint16_t>(page_bytes_);
  for (std::size_t i = 0; i < meta.slots.size(); ++i) {
    Slot& s = meta.slots[i];
    if (s.off == kTombstone) continue;
    cell_end = static_cast<uint16_t>(cell_end - s.len);
    std::memcpy(fresh.data() + cell_end, buf.data() + s.off, s.len);
    s.off = cell_end;
  }
  meta.cell_floor = cell_end;
  buf.swap(fresh);
  WriteU16(buf.data(), static_cast<uint16_t>(meta.slots.size()));
  for (std::size_t i = 0; i < meta.slots.size(); ++i) {
    WriteU16(buf.data() + kPageHeader + kSlotDirEntry * i,
             meta.slots[i].off);
    WriteU16(buf.data() + kPageHeader + kSlotDirEntry * i + 2,
             meta.slots[i].len);
  }
}

PageFile::Loc PageFile::Insert(const std::string& bytes) {
  assert(bytes.size() <= MaxRecordBytes(page_bytes_) &&
         "record exceeds page capacity");
  const std::size_t len = bytes.size();

  // First fit over page numbers.
  uint64_t page = pages_.size();
  for (uint64_t p = 0; p < pages_.size(); ++p) {
    if (FreeBytes(pages_[p]) >= len) {
      page = p;
      break;
    }
  }
  if (page == pages_.size()) {
    pages_.emplace_back();
    pages_.back().cell_floor = static_cast<uint16_t>(page_bytes_);
  }
  PageMeta& meta = pages_[page];
  std::vector<char>& buf = PageBuffer(page);

  // Reuse a tombstoned slot if one exists, else append a directory
  // entry.
  uint16_t slot = kTombstone;
  for (std::size_t i = 0; i < meta.slots.size(); ++i) {
    if (meta.slots[i].off == kTombstone) {
      slot = static_cast<uint16_t>(i);
      break;
    }
  }
  if (slot == kTombstone) {
    slot = static_cast<uint16_t>(meta.slots.size());
    meta.slots.emplace_back();
  }

  if (Gap(meta) < len) CompactPage(page, meta, buf);
  assert(Gap(meta) >= len && "free-space accounting out of sync");

  const uint16_t off = static_cast<uint16_t>(meta.cell_floor - len);
  std::memcpy(buf.data() + off, bytes.data(), len);
  meta.cell_floor = off;
  meta.slots[slot].off = off;
  meta.slots[slot].len = static_cast<uint16_t>(len);
  meta.live_bytes += static_cast<uint32_t>(len);
  ++meta.live_slots;

  WriteU16(buf.data(), static_cast<uint16_t>(meta.slots.size()));
  WriteU16(buf.data() + kPageHeader + kSlotDirEntry * slot, off);
  WriteU16(buf.data() + kPageHeader + kSlotDirEntry * slot + 2,
           static_cast<uint16_t>(len));
  cache_.find(page)->second.dirty = true;
  return Loc{page, slot};
}

std::string PageFile::Read(const Loc& loc) {
  assert(loc.page < pages_.size());
  const PageMeta& meta = pages_[loc.page];
  assert(loc.slot < meta.slots.size());
  const Slot& s = meta.slots[loc.slot];
  assert(s.off != kTombstone && "Read of erased record");
  std::vector<char>& buf = PageBuffer(loc.page);
  return std::string(buf.data() + s.off, s.len);
}

void PageFile::Erase(const Loc& loc) {
  assert(loc.page < pages_.size());
  PageMeta& meta = pages_[loc.page];
  assert(loc.slot < meta.slots.size());
  Slot& s = meta.slots[loc.slot];
  assert(s.off != kTombstone && "Erase of erased record");
  meta.live_bytes -= s.len;
  --meta.live_slots;
  // Keep cell_floor honest when the lowest cell dies; a full recompute
  // happens naturally at the next compaction.
  s.off = kTombstone;
  s.len = 0;
  std::vector<char>& buf = PageBuffer(loc.page);
  WriteU16(buf.data() + kPageHeader + kSlotDirEntry * loc.slot,
           kTombstone);
  WriteU16(buf.data() + kPageHeader + kSlotDirEntry * loc.slot + 2, 0);
  cache_.find(loc.page)->second.dirty = true;
}

void PageFile::Clear() {
  pages_.clear();
  cache_.clear();
  lru_.clear();
  if (fd_ >= 0) {
    int rc = ::ftruncate(fd_, 0);
    (void)rc;
  }
}

PageFile::Stats PageFile::stats() const {
  Stats s;
  s.pages = pages_.size();
  s.cached_pages = cache_.size();
  s.page_evictions = page_evictions_;
  s.page_reads = page_reads_;
  for (const PageMeta& m : pages_) {
    s.live_records += m.live_slots;
    s.live_bytes += m.live_bytes;
  }
  return s;
}

}  // namespace webevo::storage
