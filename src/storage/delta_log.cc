#include "storage/delta_log.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <string_view>

#include "util/hash.h"
#include "util/text_snapshot.h"

namespace webevo::storage {

namespace {

// Appends `bytes` to `path` followed by fsync; `bytes` may be a
// truncated segment when the crash hook fires.
Status AppendAndSync(const std::string& path, const std::string& bytes) {
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) {
    return Status::Internal("delta log: cannot open " + path);
  }
  const char* p = bytes.data();
  std::size_t left = bytes.size();
  while (left > 0) {
    ssize_t n = ::write(fd, p, left);
    if (n <= 0) {
      ::close(fd);
      return Status::Internal("delta log: short write to " + path);
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    return Status::Internal("delta log: fsync failed on " + path);
  }
  ::close(fd);
  return Status::Ok();
}

// Parses the segment starting at `*pos` and advances past it. Sets
// `*torn` instead when the segment ends early or a framing line does
// not parse — the shape a crash between append and seal leaves. Data
// that is fully present but fails a checksum is an error.
Status ParseSegment(std::string_view data, std::size_t* pos,
                    DeltaSegment* segment, bool* torn) {
  std::size_t p = *pos;
  std::string_view line;
  auto next_line = [&] {
    const std::size_t eol = data.find('\n', p);
    if (eol == std::string_view::npos) return false;
    line = data.substr(p, eol - p);
    p = eol + 1;
    return true;
  };
  *torn = true;
  int version = 0;
  std::size_t nsections = 0, payload_bytes = 0;
  if (!next_line()) return Status::Ok();
  RecordCursor head(line, "delta segment header");
  head.Tag(kDeltaMagic).Get(&version, &segment->kind, &segment->batch,
                            &nsections, &payload_bytes);
  if (!head.End().ok()) return Status::Ok();
  if (version != kDeltaFormatVersion) {
    return Status::InvalidArgument("delta log: unsupported version " +
                                   std::to_string(version));
  }
  if (nsections > kMaxDeltaSections) {
    return Status::InvalidArgument(
        "delta log: segment section count out of range");
  }
  std::vector<uint64_t> hashes(nsections);
  std::vector<std::size_t> lengths(nsections);
  segment->sections.resize(nsections);
  for (std::size_t i = 0; i < nsections; ++i) {
    if (!next_line()) return Status::Ok();
    RecordCursor c(line, "delta section table");
    c.Tag("S").Get(&segment->sections[i].name, &lengths[i], &hashes[i]);
    if (!c.End().ok()) return Status::Ok();
  }
  // The `<tag> <fnv64>` line that seals the header or the payload.
  auto read_seal = [&](const char* tag, uint64_t* hash) {
    return next_line() &&
           RecordCursor(line, "delta seal").Tag(tag).Get(hash).End().ok();
  };
  const std::string_view header = data.substr(*pos, p - *pos);
  uint64_t header_hash = 0;
  if (!read_seal("H", &header_hash)) return Status::Ok();
  if (header_hash != Fnv1a64(header)) {
    return Status::InvalidArgument("delta log: header checksum mismatch");
  }
  if (data.size() - p < payload_bytes) return Status::Ok();
  const std::string_view payload = data.substr(p, payload_bytes);
  p += payload_bytes;
  uint64_t payload_hash = 0;
  if (!read_seal("Z", &payload_hash)) return Status::Ok();
  if (payload_hash != Fnv1a64(payload)) {
    return Status::InvalidArgument("delta log: payload checksum mismatch");
  }
  // Summed without overflow: each length must fit in what is left.
  std::size_t left = payload_bytes;
  bool fits = true;
  for (std::size_t length : lengths) {
    fits = fits && length <= left;
    if (fits) left -= length;
  }
  if (!fits || left != 0) {
    return Status::InvalidArgument(
        "delta log: section table disagrees with payload size");
  }
  std::size_t off = 0;
  for (std::size_t i = 0; i < nsections; ++i) {
    DeltaSection& section = segment->sections[i];
    section.bytes.assign(payload.substr(off, lengths[i]));
    if (Fnv1a64(section.bytes) != hashes[i]) {
      return Status::InvalidArgument("delta log: section '" + section.name +
                                     "' checksum mismatch");
    }
    off += lengths[i];
  }
  *torn = false;
  *pos = p;
  return Status::Ok();
}

// 1-based index of the next AppendDeltaSegment call in this process,
// for the crash-injection hook.
std::atomic<uint64_t> g_append_count{0};

}  // namespace

const DeltaSection* DeltaSegment::FindSection(
    const std::string& name) const {
  for (const DeltaSection& s : sections) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::string EncodeDeltaSegment(const DeltaSegment& segment) {
  std::size_t payload_bytes = 0;
  for (const DeltaSection& s : segment.sections) {
    payload_bytes += s.bytes.size();
  }
  std::string out;
  RecordLine line(&out);
  auto put_line = [&](const auto&... fields) {
    line.Restart();
    line.Put(fields...);
    out.push_back('\n');
  };
  put_line(kDeltaMagic, kDeltaFormatVersion, segment.kind, segment.batch,
           segment.sections.size(), payload_bytes);
  for (const DeltaSection& s : segment.sections) {
    put_line("S", s.name, s.bytes.size(), Fnv1a64(s.bytes));
  }
  put_line("H", Fnv1a64(out));
  const std::size_t payload_start = out.size();
  for (const DeltaSection& s : segment.sections) out += s.bytes;
  put_line("Z", Fnv1a64(std::string_view(out).substr(payload_start)));
  return out;
}

Status AppendDeltaSegment(const std::string& path,
                          const DeltaSegment& segment) {
  if (segment.sections.size() > kMaxDeltaSections) {
    return Status::InvalidArgument("delta segment: too many sections");
  }
  std::string bytes = EncodeDeltaSegment(segment);

  const uint64_t nth =
      g_append_count.fetch_add(1, std::memory_order_relaxed) + 1;
  const char* crash_at = std::getenv("WEBEVO_CRASH_AT_DELTA_SEGMENT");
  if (crash_at != nullptr &&
      nth == static_cast<uint64_t>(std::atoll(crash_at))) {
    // Simulate a crash between the WAL append and the seal: the header
    // and part of the payload reach the disk, the `Z` seal never does.
    const std::string::size_type seal =
        bytes.rfind("\nZ ") != std::string::npos
            ? bytes.rfind("\nZ ") + 1
            : bytes.size();
    const std::string::size_type cut = seal - (bytes.size() - seal) / 2 - 1;
    Status torn = AppendAndSync(path, bytes.substr(0, cut));
    (void)torn;
    ::_exit(17);
  }

  return AppendAndSync(path, bytes);
}

StatusOr<DeltaLogContents> ReadDeltaLog(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  DeltaLogContents contents;
  if (!in) return contents;  // no log = empty
  const std::string data((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  std::size_t pos = 0;
  while (pos < data.size()) {
    const std::size_t segment_start = pos;
    DeltaSegment segment;
    bool torn = false;
    Status st = ParseSegment(data, &pos, &segment, &torn);
    if (!st.ok()) return st;
    if (torn) {
      // A crash can tear the log at any byte, but only its last
      // segment: a malformed segment with another one after it is
      // corruption.
      if (data.find(std::string("\n") + kDeltaMagic + " ", segment_start) !=
          std::string::npos) {
        return Status::InvalidArgument("delta log: malformed segment in " +
                                       path);
      }
      pos = segment_start;
      break;
    }
    contents.segments.push_back(std::move(segment));
  }
  contents.torn_tail_bytes = data.size() - pos;
  return contents;
}

Status TruncateDeltaLog(const std::string& path) {
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::Internal("delta log: cannot truncate " + path);
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    return Status::Internal("delta log: fsync failed on " + path);
  }
  ::close(fd);
  return Status::Ok();
}

}  // namespace webevo::storage
