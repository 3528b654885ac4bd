#include "replay/cursor.hpp"

#include <charconv>
#include <cstring>
#include <fstream>
#include <istream>
#include <stdexcept>

namespace now::replay {

namespace {

[[noreturn]] void bad_line(const std::string& what, std::size_t lineno) {
  throw std::runtime_error("trace parse error (" + what + ") at line " +
                           std::to_string(lineno));
}

/// Splits on runs of spaces/tabs; returns the field count (capped at max).
std::size_t split(std::string_view line, std::string_view* out,
                  std::size_t max) {
  std::size_t n = 0;
  std::size_t i = 0;
  while (i < line.size() && n < max) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    if (i >= line.size()) break;
    const std::size_t start = i;
    while (i < line.size() && line[i] != ' ' && line[i] != '\t') ++i;
    out[n++] = line.substr(start, i - start);
  }
  // Trailing garbage beyond `max` fields still counts as a field so the
  // caller can reject it.
  while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
  if (i < line.size() && n == max) ++n;
  return n;
}

bool parse_f64(std::string_view s, double* out) {
  const auto r = std::from_chars(s.data(), s.data() + s.size(), *out);
  return r.ec == std::errc{} && r.ptr == s.data() + s.size();
}

template <typename T>
bool parse_uint(std::string_view s, T* out) {
  const auto r = std::from_chars(s.data(), s.data() + s.size(), *out);
  return r.ec == std::errc{} && r.ptr == s.data() + s.size();
}

}  // namespace

// --- LineCursor ----------------------------------------------------------

LineCursor::LineCursor(std::istream& in, std::size_t window_bytes)
    : in_(in), buf_(window_bytes > 0 ? window_bytes : 1) {}

void LineCursor::fill() {
  if (begin_ > 0) {
    std::memmove(buf_.data(), buf_.data() + begin_, end_ - begin_);
    end_ -= begin_;
    begin_ = 0;
  }
  if (end_ == buf_.size()) {
    throw std::runtime_error(
        "trace parse error (line exceeds the " + std::to_string(buf_.size()) +
        "-byte window) at line " + std::to_string(lineno_ + 1));
  }
  in_.read(buf_.data() + end_, static_cast<std::streamsize>(buf_.size() - end_));
  const std::size_t got = static_cast<std::size_t>(in_.gcount());
  end_ += got;
  bytes_read_ += got;
  if (got == 0) eof_ = true;
}

std::optional<std::string_view> LineCursor::next() {
  for (;;) {
    const char* base = buf_.data();
    const void* nl =
        std::memchr(base + begin_, '\n', end_ - begin_);
    if (nl == nullptr && !eof_) {
      fill();
      continue;
    }
    std::size_t line_end;
    bool had_newline;
    if (nl != nullptr) {
      line_end = static_cast<std::size_t>(static_cast<const char*>(nl) - base);
      had_newline = true;
    } else {
      if (begin_ == end_) return std::nullopt;  // fully drained
      line_end = end_;  // final line without a trailing newline
      had_newline = false;
    }
    ++lineno_;
    std::string_view line(base + begin_, line_end - begin_);
    begin_ = had_newline ? line_end + 1 : line_end;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    const std::size_t first = line.find_first_not_of(" \t");
    if (first == std::string_view::npos) continue;  // blank
    if (line[first] == '#') continue;               // comment
    return line;
  }
}

// --- FsTraceCursor -------------------------------------------------------

FsTraceCursor::FsTraceCursor(std::istream& in, CursorOptions opt)
    : lines_(in, opt.window_bytes) {}

std::optional<trace::FsAccess> FsTraceCursor::next() {
  const auto line = lines_.next();
  if (!line) return std::nullopt;
  std::string_view f[5];
  if (split(*line, f, 4) != 4) bad_line("fs access", lines_.line_number());
  double time_us = 0;
  trace::FsAccess a;
  if (!parse_f64(f[0], &time_us) || !parse_uint(f[1], &a.client) ||
      !parse_uint(f[2], &a.block) || f[3].size() != 1 ||
      (f[3][0] != 'r' && f[3][0] != 'w')) {
    bad_line("fs access", lines_.line_number());
  }
  a.at = sim::from_us(time_us);
  a.is_write = f[3][0] == 'w';
  if (records_ > 0 && a.at < last_) {
    bad_line("out-of-order timestamp", lines_.line_number());
  }
  last_ = a.at;
  ++records_;
  return a;
}

// --- NFS -----------------------------------------------------------------

namespace {
struct NfsOpName {
  const char* name;
  NfsOp op;
};
constexpr NfsOpName kNfsOps[] = {
    {"read", NfsOp::kRead},         {"write", NfsOp::kWrite},
    {"commit", NfsOp::kCommit},     {"getattr", NfsOp::kGetattr},
    {"setattr", NfsOp::kSetattr},   {"lookup", NfsOp::kLookup},
    {"access", NfsOp::kAccess},     {"readdir", NfsOp::kReaddir},
    {"readlink", NfsOp::kReadlink}, {"fsstat", NfsOp::kFsstat},
    {"create", NfsOp::kCreate},     {"remove", NfsOp::kRemove},
    {"rename", NfsOp::kRename},     {"mkdir", NfsOp::kMkdir},
    {"rmdir", NfsOp::kRmdir},       {"link", NfsOp::kLink},
    {"symlink", NfsOp::kSymlink},
};
}  // namespace

const char* to_string(NfsOp op) {
  for (const auto& e : kNfsOps) {
    if (e.op == op) return e.name;
  }
  return "?";
}

bool nfs_op_is_write(NfsOp op) {
  switch (op) {
    case NfsOp::kWrite:
    case NfsOp::kCommit:
    case NfsOp::kSetattr:
    case NfsOp::kCreate:
    case NfsOp::kRemove:
    case NfsOp::kRename:
    case NfsOp::kMkdir:
    case NfsOp::kRmdir:
    case NfsOp::kLink:
    case NfsOp::kSymlink:
      return true;
    default:
      return false;
  }
}

bool nfs_op_is_data(NfsOp op) {
  return op == NfsOp::kRead || op == NfsOp::kWrite || op == NfsOp::kCommit;
}

NfsTraceCursor::NfsTraceCursor(std::istream& in, CursorOptions opt)
    : lines_(in, opt.window_bytes) {}

std::optional<NfsRecord> NfsTraceCursor::next() {
  const auto line = lines_.next();
  if (!line) return std::nullopt;
  std::string_view f[7];
  if (split(*line, f, 6) != 6) bad_line("nfs record", lines_.line_number());
  double time_sec = 0;
  NfsRecord r;
  std::uint64_t bytes = 0;
  if (!parse_f64(f[0], &time_sec) || !parse_uint(f[4], &r.offset) ||
      !parse_uint(f[5], &bytes)) {
    bad_line("nfs record", lines_.line_number());
  }
  r.bytes = bytes > 0xffffffffull ? 0xffffffffu
                                  : static_cast<std::uint32_t>(bytes);
  r.at = sim::from_sec(time_sec);
  bool known = false;
  for (const auto& e : kNfsOps) {
    if (f[2] == e.name) {
      r.op = e.op;
      known = true;
      break;
    }
  }
  if (!known) {
    bad_line("unknown NFS op '" + std::string(f[2]) + "'",
             lines_.line_number());
  }
  // Dense ids in first-appearance order: deterministic for a given file.
  const auto client =
      clients_.emplace(std::string(f[1]),
                       static_cast<std::uint32_t>(clients_.size()));
  r.client = client.first->second;
  const auto fh = fhs_.emplace(std::string(f[3]), fhs_.size());
  r.fh = fh.first->second;
  if (records_ > 0 && r.at < last_) {
    bad_line("out-of-order timestamp", lines_.line_number());
  }
  last_ = r.at;
  ++records_;
  return r;
}

NfsFsCursor::NfsFsCursor(std::istream& in, CursorOptions opt, NfsMapParams map)
    : nfs_(in, opt), map_(map) {}

std::optional<trace::FsAccess> NfsFsCursor::next() {
  const auto r = nfs_.next();
  if (!r) return std::nullopt;
  trace::FsAccess a;
  a.at = r->at;
  a.client = r->client;
  a.is_write = nfs_op_is_write(r->op);
  std::uint64_t block_in_file = 0;  // metadata ops hit the "inode" block
  if (nfs_op_is_data(r->op)) {
    block_in_file = r->offset / map_.block_bytes;
    if (block_in_file >= map_.blocks_per_file) {
      block_in_file = map_.blocks_per_file - 1;
    }
  }
  a.block = r->fh * map_.blocks_per_file + block_in_file;
  return a;
}

// --- File-level helpers --------------------------------------------------

const char* to_string(TraceFormat f) {
  return f == TraceFormat::kFs ? "fs" : "nfs";
}

TraceFormat detect_format(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot open trace file: " + path);
  }
  LineCursor lines(in, 4096);
  const auto line = lines.next();
  if (!line) {
    throw std::runtime_error("trace file has no records: " + path);
  }
  std::string_view f[7];
  const std::size_t n = split(*line, f, 6);
  if (n == 4 && f[3].size() == 1 && (f[3][0] == 'r' || f[3][0] == 'w')) {
    return TraceFormat::kFs;
  }
  if (n == 6) return TraceFormat::kNfs;
  throw std::runtime_error(
      "unrecognized trace format (want 4-field fs or 6-field nfs lines): " +
      path);
}

namespace {
/// TraceCursor that owns its ifstream alongside the format parser.
class FileCursor : public TraceCursor {
 public:
  FileCursor(const std::string& path, TraceFormat format, CursorOptions opt,
             NfsMapParams map)
      : in_(path) {
    if (!in_) {
      throw std::runtime_error("cannot open trace file: " + path);
    }
    if (format == TraceFormat::kFs) {
      fs_ = std::make_unique<FsTraceCursor>(in_, opt);
    } else {
      nfs_ = std::make_unique<NfsFsCursor>(in_, opt, map);
    }
  }

  std::optional<trace::FsAccess> next() override {
    return fs_ != nullptr ? fs_->next() : nfs_->next();
  }

 private:
  std::ifstream in_;
  std::unique_ptr<FsTraceCursor> fs_;
  std::unique_ptr<NfsFsCursor> nfs_;
};
}  // namespace

std::unique_ptr<TraceCursor> open_trace(const std::string& path,
                                        CursorOptions opt, NfsMapParams map) {
  return std::make_unique<FileCursor>(path, detect_format(path), opt, map);
}

ClientStrideCursor::ClientStrideCursor(std::unique_ptr<TraceCursor> inner,
                                       std::uint32_t modulo,
                                       std::uint32_t residue)
    : inner_(std::move(inner)), modulo_(modulo > 0 ? modulo : 1),
      residue_(residue) {}

std::optional<trace::FsAccess> ClientStrideCursor::next() {
  while (auto a = inner_->next()) {
    if (a->client % modulo_ == residue_) {
      a->client = residue_;
      return a;
    }
  }
  return std::nullopt;
}

TraceSummary summarize(const std::string& path, CursorOptions opt,
                       NfsMapParams map) {
  TraceSummary s;
  s.format = detect_format(path);
  auto cur = open_trace(path, opt, map);
  while (const auto a = cur->next()) {
    if (s.records == 0) s.first_at = a->at;
    s.last_at = a->at;
    if (a->client + 1 > s.clients) s.clients = a->client + 1;
    ++s.records;
  }
  return s;
}

}  // namespace now::replay
