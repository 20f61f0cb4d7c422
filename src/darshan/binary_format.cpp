#include "darshan/binary_format.hpp"

#include <bit>
#include <cstring>

#include "util/fs.hpp"

namespace mosaic::darshan {

using trace::FileRecord;
using trace::Trace;
using util::Error;
using util::ErrorCode;
using util::Expected;
using util::Status;

namespace {

constexpr char kMagic[4] = {'M', 'B', 'T', '1'};

/// Append-only little-endian encoder.
class Writer {
 public:
  explicit Writer(std::vector<std::byte>& out) : out_(out) {}

  void u32(std::uint32_t value) { raw(&value, sizeof value); }
  void u64(std::uint64_t value) { raw(&value, sizeof value); }
  void i32(std::int32_t value) { raw(&value, sizeof value); }
  void f64(double value) { raw(&value, sizeof value); }
  void str(const std::string& text) {
    u32(static_cast<std::uint32_t>(text.size()));
    raw(text.data(), text.size());
  }

 private:
  void raw(const void* data, std::size_t size) {
    static_assert(std::endian::native == std::endian::little,
                  "MBT writer assumes a little-endian host");
    const auto* bytes = static_cast<const std::byte*>(data);
    out_.insert(out_.end(), bytes, bytes + size);
  }

  std::vector<std::byte>& out_;
};

/// Bounds-checked little-endian decoder.
class Reader {
 public:
  explicit Reader(std::span<const std::byte> bytes) : bytes_(bytes) {}

  [[nodiscard]] bool ok() const noexcept { return ok_; }
  [[nodiscard]] std::size_t position() const noexcept { return pos_; }

  std::uint32_t u32() { return read<std::uint32_t>(); }
  std::uint64_t u64() { return read<std::uint64_t>(); }
  std::int32_t i32() { return read<std::int32_t>(); }
  double f64() { return read<double>(); }

  std::string str() {
    const std::uint32_t size = u32();
    if (!ok_ || pos_ + size > bytes_.size()) {
      ok_ = false;
      return {};
    }
    std::string text(reinterpret_cast<const char*>(bytes_.data() + pos_), size);
    pos_ += size;
    return text;
  }

 private:
  template <typename T>
  T read() {
    static_assert(std::endian::native == std::endian::little,
                  "MBT reader assumes a little-endian host");
    if (!ok_ || pos_ + sizeof(T) > bytes_.size()) {
      ok_ = false;
      return T{};
    }
    T value;
    std::memcpy(&value, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }

  std::span<const std::byte> bytes_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace

std::uint64_t fnv1a(std::span<const std::byte> bytes) noexcept {
  std::uint64_t hash = 0xCBF29CE484222325ull;
  for (std::byte b : bytes) {
    hash ^= static_cast<std::uint64_t>(b);
    hash *= 0x100000001B3ull;
  }
  return hash;
}

std::uint64_t fnv1a(std::string_view text) noexcept {
  return fnv1a(std::as_bytes(std::span{text.data(), text.size()}));
}

std::vector<std::byte> to_mbt(const Trace& trace) {
  std::vector<std::byte> out;
  out.reserve(64 + trace.files.size() * 128);
  Writer w(out);

  out.insert(out.end(), reinterpret_cast<const std::byte*>(kMagic),
             reinterpret_cast<const std::byte*>(kMagic) + sizeof kMagic);
  w.u32(kMbtVersion);

  w.u64(trace.meta.job_id);
  w.u32(trace.meta.nprocs);
  w.f64(trace.meta.start_time);
  w.f64(trace.meta.run_time);
  w.str(trace.meta.app_name);
  w.str(trace.meta.user);

  w.u32(static_cast<std::uint32_t>(trace.files.size()));
  for (const auto& file : trace.files) {
    w.u64(file.file_id);
    w.i32(file.rank);
    w.u64(file.bytes_read);
    w.u64(file.bytes_written);
    w.u64(file.reads);
    w.u64(file.writes);
    w.u64(file.opens);
    w.u64(file.closes);
    w.u64(file.seeks);
    w.f64(file.open_ts);
    w.f64(file.close_ts);
    w.f64(file.first_read_ts);
    w.f64(file.last_read_ts);
    w.f64(file.first_write_ts);
    w.f64(file.last_write_ts);
    w.str(file.file_name);
  }

  const std::uint64_t checksum = fnv1a(out);
  w.u64(checksum);
  return out;
}

Expected<Trace> parse_mbt(std::span<const std::byte> bytes) {
  const auto corrupt = [](std::string why) {
    return Error{ErrorCode::kCorruptTrace, "mbt: " + std::move(why)};
  };

  if (bytes.size() < sizeof kMagic + sizeof(std::uint32_t) + sizeof(std::uint64_t)) {
    return corrupt("truncated header");
  }
  if (std::memcmp(bytes.data(), kMagic, sizeof kMagic) != 0) {
    return corrupt("bad magic");
  }

  // Verify the trailer checksum before decoding anything else.
  const std::size_t body_size = bytes.size() - sizeof(std::uint64_t);
  std::uint64_t stored_checksum = 0;
  std::memcpy(&stored_checksum, bytes.data() + body_size, sizeof stored_checksum);
  if (fnv1a(bytes.subspan(0, body_size)) != stored_checksum) {
    return corrupt("checksum mismatch");
  }

  Reader r(bytes.subspan(sizeof kMagic, body_size - sizeof kMagic));
  const std::uint32_t version = r.u32();
  if (version != kMbtVersion) {
    return corrupt("unsupported version " + std::to_string(version));
  }

  Trace trace;
  trace.meta.job_id = r.u64();
  trace.meta.nprocs = r.u32();
  trace.meta.start_time = r.f64();
  trace.meta.run_time = r.f64();
  trace.meta.app_name = r.str();
  trace.meta.user = r.str();

  const std::uint32_t nfiles = r.u32();
  if (!r.ok()) return corrupt("truncated job metadata");
  trace.files.reserve(nfiles);
  for (std::uint32_t i = 0; i < nfiles; ++i) {
    FileRecord file;
    file.file_id = r.u64();
    file.rank = r.i32();
    file.bytes_read = r.u64();
    file.bytes_written = r.u64();
    file.reads = r.u64();
    file.writes = r.u64();
    file.opens = r.u64();
    file.closes = r.u64();
    file.seeks = r.u64();
    file.open_ts = r.f64();
    file.close_ts = r.f64();
    file.first_read_ts = r.f64();
    file.last_read_ts = r.f64();
    file.first_write_ts = r.f64();
    file.last_write_ts = r.f64();
    file.file_name = r.str();
    if (!r.ok()) return corrupt("truncated file record " + std::to_string(i));
    trace.files.push_back(std::move(file));
  }
  return trace;
}

Status write_mbt_file(const Trace& trace, const std::string& path) {
  // Staged + renamed: a killed `mosaic generate` must not leave a torn MBT
  // file whose truncated prefix would later be evicted as corrupt.
  const auto bytes = to_mbt(trace);
  return util::write_file_atomic(
      path, std::string_view(reinterpret_cast<const char*>(bytes.data()),
                             bytes.size()));
}

}  // namespace mosaic::darshan
