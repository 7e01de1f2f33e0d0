#include "util/text_snapshot.h"

#include <cstdio>
#include <limits>
#include <ostream>

#include "util/hash.h"

#ifdef _WIN32
#include <fstream>
#else
#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#endif

namespace webevo {
namespace {

bool IsSpace(char c) { return c == ' ' || c == '\t' || c == '\r'; }

}  // namespace

void RecordWriter::End() {
  out_->push_back('\n');
  const std::size_t start = line_.start();
  hash_ = Fnv1a64Seeded(
      std::string_view(out_->data() + start, out_->size() - start), hash_);
}

void RecordWriter::Finish() {
  RecordLine(out_).Put(kSnapshotTrailerMagic, hash_);
  out_->push_back('\n');
}

RecordCursor& RecordCursor::Tag(std::string_view tag) {
  const std::string_view token = NextToken();
  if (ok() && token != tag) SetError("wrong tag");
  return *this;
}

RecordCursor& RecordCursor::MaybeInf(double* value) {
  const std::string_view before = rest_;
  if (ok() && NextToken() == "inf") {
    *value = std::numeric_limits<double>::infinity();
    return *this;
  }
  rest_ = before;
  return Get(value);
}

RecordCursor& RecordCursor::Site(uint32_t* site) {
  uint32_t parsed = 0;
  Get(&parsed);
  if (ok() && parsed >= site_limit_) SetError("site out of range");
  if (ok()) *site = parsed;
  return *this;
}

RecordCursor& RecordCursor::Count(std::size_t* n, std::size_t fields_per_item) {
  std::size_t parsed = 0;
  Get(&parsed);
  if (!ok()) return *this;
  std::size_t tokens = 0;
  for (std::size_t i = 0; i < rest_.size(); ++i) {
    if (!IsSpace(rest_[i]) && (i == 0 || IsSpace(rest_[i - 1]))) ++tokens;
  }
  if (parsed > tokens / fields_per_item) {
    SetError("list longer than the line");
  } else {
    *n = parsed;
  }
  return *this;
}

RecordCursor& RecordCursor::Check(bool condition, const char* reason) {
  if (ok() && !condition) SetError(reason);
  return *this;
}

RecordCursor& RecordCursor::Fail(const Status& status) {
  if (ok()) status_ = status;
  return *this;
}

Status RecordCursor::End() {
  SkipSpace();
  if (ok() && !rest_.empty()) SetError("trailing data");
  return status_;
}

void RecordCursor::SkipSpace() {
  std::size_t n = 0;
  while (n < rest_.size() && IsSpace(rest_[n])) ++n;
  rest_.remove_prefix(n);
}

std::string_view RecordCursor::NextToken() {
  SkipSpace();
  std::size_t n = 0;
  while (n < rest_.size() && !IsSpace(rest_[n])) ++n;
  const std::string_view token = rest_.substr(0, n);
  rest_.remove_prefix(n);
  if (token.empty() && ok()) SetError("missing field");
  return token;
}

void RecordCursor::SetError(const char* reason) {
  status_ = Status::InvalidArgument(std::string("malformed ") + what_ +
                                    " record (" + reason + ")");
}

Status RecordReader::NextLine() {
  if (!std::getline(in_, line_)) {
    return Status::InvalidArgument(std::string(what_) +
                                   " truncated (no trailer)");
  }
  at_trailer_ = line_.rfind(kSnapshotTrailerMagic, 0) == 0;
  if (!at_trailer_) {
    hash_ = Fnv1a64Seeded(line_, hash_);
    hash_ = Fnv1a64Seeded("\n", hash_);
  }
  return Status::Ok();
}

Status RecordReader::ReadTrailer() {
  Status st = NextLine();
  if (!st.ok()) return st;
  if (!at_trailer_) {
    return Status::InvalidArgument(std::string("trailing data in ") +
                                   what_);
  }
  RecordCursor c(line_, what_);
  uint64_t stored = 0;
  c.Tag(kSnapshotTrailerMagic).Get(&stored);
  if (!c.End().ok() || stored != hash_) {
    return Status::InvalidArgument(std::string(what_) +
                                   " integrity check failed");
  }
  return Status::Ok();
}

Status RecordReader::Finish() {
  Status st = ReadTrailer();
  if (!st.ok()) return st;
  return ExpectStreamEnd(in_, what_);
}

Status ExpectStreamEnd(std::istream& in, const char* what) {
  char c = 0;
  while (in.get(c)) {
    if (c != ' ' && c != '\t' && c != '\r' && c != '\n') {
      return Status::InvalidArgument(
          std::string("trailing data after ") + what + " trailer");
    }
  }
  return Status::Ok();
}

Status WriteBytes(const std::string& bytes, std::ostream& out) {
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out.good()) return Status::Internal("snapshot write failed");
  return Status::Ok();
}

#ifdef _WIN32

// Portability fallback: plain write + rename (no directory fsync).
Status AtomicWriteFile(const std::string& path, const std::string& bytes) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out.is_open()) {
      return Status::NotFound("cannot open " + tmp + " for writing");
    }
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (!out.good()) return Status::Internal("write failed: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::Internal("rename failed: " + path);
  }
  return Status::Ok();
}

#else

Status AtomicWriteFile(const std::string& path, const std::string& bytes) {
  const std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::NotFound("cannot open " + tmp + " for writing: " +
                            std::strerror(errno));
  }
  std::size_t written = 0;
  while (written < bytes.size()) {
    ssize_t n = ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return Status::Internal("write failed: " + tmp + ": " +
                              std::strerror(errno));
    }
    written += static_cast<std::size_t>(n);
  }
  // Data must be durable before the rename publishes it; otherwise a
  // crash could leave a fully renamed but empty checkpoint.
  if (::fsync(fd) != 0) {
    ::close(fd);
    return Status::Internal("fsync failed: " + tmp);
  }
  if (::close(fd) != 0) {
    return Status::Internal("close failed: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::Internal("rename failed: " + path + ": " +
                            std::strerror(errno));
  }
  // Make the rename itself durable.
  std::string dir = path;
  std::size_t slash = dir.find_last_of('/');
  dir = slash == std::string::npos ? "." : dir.substr(0, slash);
  int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);  // best effort; some filesystems refuse dir fsync
    ::close(dfd);
  }
  return Status::Ok();
}

#endif  // _WIN32

}  // namespace webevo
