#include "trace/trace_io.hpp"

#include <array>
#include <charconv>
#include <ostream>
#include <string_view>

namespace now::trace {

namespace {

// Formats records with std::to_chars into a block buffer and writes it to
// the stream in large chunks; flush() writes what is left.  Doubles print
// as printf's %.17g would, 17 significant digits, which round-trips every
// value exactly.
class RecordWriter {
 public:
  explicit RecordWriter(std::ostream& out) : out_(out) {}

  void flush() {
    out_.write(buf_.data(), pos_ - buf_.data());
    pos_ = buf_.data();
  }

  RecordWriter& operator<<(std::string_view s) {
    for (const char c : s) {
      if (pos_ == buf_.end()) flush();
      *pos_++ = c;
    }
    return *this;
  }
  RecordWriter& operator<<(char c) {
    *pos_++ = c;
    if (c == '\n' && buf_.end() - pos_ < kMaxLine) flush();
    return *this;
  }
  RecordWriter& operator<<(double v) {
    pos_ = std::to_chars(pos_, buf_.end(), v, std::chars_format::general, 17)
               .ptr;
    return *this;
  }
  RecordWriter& operator<<(std::uint64_t v) {
    pos_ = std::to_chars(pos_, buf_.end(), v).ptr;
    return *this;
  }

 private:
  // Longer than any record line: two or three numbers of at most 24
  // characters each, separators and a newline.
  static constexpr std::ptrdiff_t kMaxLine = 128;

  std::ostream& out_;
  std::array<char, 1 << 16> buf_;
  char* pos_ = buf_.data();
};

}  // namespace

void write_fs_trace(std::ostream& out, const std::vector<FsAccess>& trace) {
  RecordWriter w(out);
  w << "# fs trace: <time_us> <client> <block> <r|w>\n";
  for (const FsAccess& a : trace) {
    w << sim::to_us(a.at) << ' ' << std::uint64_t{a.client} << ' ' << a.block
      << ' ' << (a.is_write ? 'w' : 'r') << '\n';
  }
  w.flush();
}

void write_usage_trace(std::ostream& out, const UsageTrace& trace) {
  RecordWriter w(out);
  w << "# usage trace: <node> <begin_us> <end_us>\n";
  for (std::uint32_t n = 0; n < trace.workstations(); ++n) {
    for (const BusyInterval& b : trace.intervals(n)) {
      w << std::uint64_t{n} << ' ' << sim::to_us(b.begin) << ' '
        << sim::to_us(b.end) << '\n';
    }
  }
  w.flush();
}

void write_parallel_jobs(std::ostream& out,
                         const std::vector<ParallelJob>& jobs) {
  RecordWriter w(out);
  w << "# parallel jobs: <arrival_us> <width> <work_us> <p|d>\n";
  for (const ParallelJob& j : jobs) {
    w << sim::to_us(j.arrival) << ' ' << std::uint64_t{j.width} << ' '
      << sim::to_us(j.work) << ' ' << (j.development ? 'd' : 'p') << '\n';
  }
  w.flush();
}

}  // namespace now::trace
