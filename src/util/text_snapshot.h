#ifndef WEBEVO_UTIL_TEXT_SNAPSHOT_H_
#define WEBEVO_UTIL_TEXT_SNAPSHOT_H_

#include <array>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>

#include "util/status.h"

namespace webevo {

/// The record codec shared by every durable stream in the library
/// (crawler checkpoint sections and their delta twins, the checkpoint
/// container, the simulated-web state, the delta-log framing and the
/// paged store's records).
///
/// A stream is a header line `<magic> <version> <fields...>`, counted
/// record lines `<tag> <fields...>`, and a `webevo-checksum <fnv64>`
/// trailer hashing every line above it, so truncated or corrupted
/// streams are rejected rather than silently loaded. Fields are
/// separated by one space. Integers are decimal; doubles are written
/// as "%.17g" (exact round trip), and a reader accepts only finite
/// ones except through MaybeInf(). Booleans are 0 or 1.

/// The trailer line's leading token.
inline constexpr const char* kSnapshotTrailerMagic = "webevo-checksum";

/// Appends space-separated fields to one line of a caller-owned buffer.
class RecordLine {
 public:
  /// Starts a line at the current end of `*out`.
  explicit RecordLine(std::string* out) : out_(out), start_(out->size()) {}

  /// Appends each value as one field: bool as 0/1, integers in
  /// decimal, floating point as %.17g, std::array element-wise, and
  /// anything convertible to std::string_view verbatim.
  template <typename... Ts>
  RecordLine& Put(const Ts&... values) {
    (PutOne(values), ...);
    return *this;
  }

  /// Starts the next line at the current end of the buffer.
  void Restart() { start_ = out_->size(); }
  std::size_t start() const { return start_; }

 private:
  void Separate() {
    if (out_->size() > start_) out_->push_back(' ');
  }

  template <typename T>
  void PutOne(const T& value) {
    Separate();
    if constexpr (std::is_same_v<T, bool>) {
      out_->push_back(value ? '1' : '0');
    } else if constexpr (std::is_arithmetic_v<T>) {
      char buf[32];
      std::to_chars_result r;
      if constexpr (std::is_floating_point_v<T>) {
        r = std::to_chars(buf, buf + sizeof(buf), static_cast<double>(value),
                          std::chars_format::general, 17);
      } else {
        r = std::to_chars(buf, buf + sizeof(buf), value);
      }
      out_->append(buf, static_cast<std::size_t>(r.ptr - buf));
    } else {
      out_->append(std::string_view(value));
    }
  }

  template <typename T, std::size_t N>
  void PutOne(const std::array<T, N>& values) {
    for (const T& v : values) PutOne(v);
  }

  std::string* out_;
  std::size_t start_;
};

/// Appends one trailer-framed stream to a caller-owned buffer:
/// Begin() a line with its tag (or the header's magic), Put() fields,
/// End() it; Finish() writes the trailer.
class RecordWriter {
 public:
  explicit RecordWriter(std::string* out) : out_(out), line_(out) {}

  RecordLine& Begin(std::string_view tag) {
    line_.Restart();
    return line_.Put(tag);
  }
  void End();
  void Finish();

 private:
  std::string* out_;
  RecordLine line_;
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Marks a Site() field with no upper bound (the caller has no web).
inline constexpr uint64_t kAnySite = uint64_t{1} << 32;

/// Reads the fields of one record line. The first failure sticks: the
/// later reads do nothing and leave their targets untouched, and End()
/// reports it.
class RecordCursor {
 public:
  /// `what` names the record in errors; every Site() field must be
  /// below `site_limit`.
  RecordCursor(std::string_view line, const char* what,
               uint64_t site_limit = kAnySite)
      : rest_(line), what_(what), site_limit_(site_limit) {}

  /// Requires the next token to be exactly `tag`.
  RecordCursor& Tag(std::string_view tag);

  /// Reads each field by its target's type (the inverse of
  /// RecordLine::Put; std::string reads one token). Rejects a
  /// malformed or out-of-range number, a negative unsigned one, and a
  /// non-finite double.
  template <typename... Ts>
  RecordCursor& Get(Ts*... values) {
    (GetOne(values), ...);
    return *this;
  }

  /// A double that may also be the token "inf" (the web's death
  /// times of immortal pages).
  RecordCursor& MaybeInf(double* value);

  /// A site id, checked against the site limit.
  RecordCursor& Site(uint32_t* site);

  /// The length of a list of `fields_per_item`-field items that ends
  /// the line: rejected when more items are claimed than tokens are
  /// left, so a corrupt count never sizes an allocation.
  RecordCursor& Count(std::size_t* n, std::size_t fields_per_item);

  /// Fails the record (a validation the caller makes on its fields).
  RecordCursor& Check(bool condition, const char* reason);
  /// Fails the record with an error from a nested decoder.
  RecordCursor& Fail(const Status& status);

  bool ok() const { return status_.ok(); }

  /// Ok when every read succeeded and no token is left on the line.
  Status End();

 private:
  void SkipSpace();
  std::string_view NextToken();
  void SetError(const char* reason);

  template <typename T>
  void GetOne(T* value) {
    const std::string_view token = NextToken();
    if (!ok()) return;
    if constexpr (std::is_same_v<T, std::string>) {
      value->assign(token);
    } else if constexpr (std::is_same_v<T, bool>) {
      if (token != "0" && token != "1") return SetError("bad flag");
      *value = token == "1";
    } else {
      T parsed{};
      auto [ptr, ec] =
          std::from_chars(token.data(), token.data() + token.size(), parsed);
      if (ec != std::errc() || ptr != token.data() + token.size()) {
        return SetError("bad number");
      }
      if constexpr (std::is_floating_point_v<T>) {
        if (!std::isfinite(parsed)) return SetError("non-finite number");
      }
      *value = parsed;
    }
  }

  template <typename T, std::size_t N>
  void GetOne(std::array<T, N>* values) {
    for (T& v : *values) GetOne(&v);
  }

  std::string_view rest_;
  const char* what_;
  uint64_t site_limit_;
  Status status_;
};

/// Reads one trailer-framed stream written by RecordWriter.
class RecordReader {
 public:
  /// `what` names the stream in errors; `site_limit` bounds every
  /// Site() field of its records.
  RecordReader(std::istream& in, const char* what,
               uint64_t site_limit = kAnySite)
      : in_(in), what_(what), site_limit_(site_limit) {}

  /// Reads the header line `<magic> <version> <fields...>`: another
  /// magic is "not a <what>", another version "unsupported <what>
  /// version".
  template <typename... Ts>
  Status ReadHeader(std::string_view magic, int version, Ts*... fields) {
    Status st = NextLine();
    if (!st.ok()) return st;
    RecordCursor c(line_, what_, site_limit_);
    std::string found;
    c.Get(&found);
    if (at_trailer_ || found != magic) {
      return Status::InvalidArgument(std::string("not a ") + what_);
    }
    int found_version = 0;
    c.Get(&found_version);
    if (c.ok() && found_version != version) {
      return Status::InvalidArgument(std::string("unsupported ") + what_ +
                                     " version " +
                                     std::to_string(found_version));
    }
    c.Get(fields...);
    return c.End();
  }

  /// Reads `count` records tagged `tag`. `parse` reads each record's
  /// fields from a cursor positioned after the tag; the record must
  /// then end. Reaching the trailer early is a count mismatch.
  template <typename Parse>
  Status ReadRecords(std::size_t count, std::string_view tag, Parse&& parse) {
    for (std::size_t i = 0; i < count; ++i) {
      Status st = NextLine();
      if (!st.ok()) return st;
      if (at_trailer_) {
        return Status::InvalidArgument(std::string(what_) +
                                       " record count mismatch");
      }
      RecordCursor c(line_, what_, site_limit_);
      parse(c.Tag(tag));
      st = c.End();
      if (!st.ok()) return st;
    }
    return Status::Ok();
  }

  /// Consumes and verifies the trailer; a record line in its place
  /// means more records than the header declared. Leaves the stream
  /// just past the trailer line.
  Status ReadTrailer();

  /// ReadTrailer(), then requires the end of the stream: a stream
  /// ends at its trailer.
  Status Finish();

 private:
  // Reads the next line into `line_`: a payload line joins the hash,
  // the trailer line sets `at_trailer_` for the caller to check.
  Status NextLine();

  std::istream& in_;
  const char* what_;
  uint64_t site_limit_;
  std::string line_;
  bool at_trailer_ = false;
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Rejects trailing data after a snapshot's trailer: a well-formed
/// standalone snapshot ends at its trailer, so any non-whitespace
/// bytes that follow mean the file was appended to or mis-framed.
Status ExpectStreamEnd(std::istream& in, const char* what);

/// Writes `bytes` to `out`, mapping a stream failure to Internal.
Status WriteBytes(const std::string& bytes, std::ostream& out);

/// Writes `bytes` to `path` crash-consistently: the content goes to a
/// temporary file in the same directory, is fsync'd, and is renamed
/// over `path` atomically (the directory entry is fsync'd too). A
/// crash at any point leaves either the old file or the new one —
/// never a torn mix.
Status AtomicWriteFile(const std::string& path, const std::string& bytes);

}  // namespace webevo

#endif  // WEBEVO_UTIL_TEXT_SNAPSHOT_H_
