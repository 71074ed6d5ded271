// Minimal binary serialization helpers behind the checkpoint readers and
// writers (rram/crossbar, nn/weight_store, nn/network_io, core/engine).
// Little-endian, host-format PODs with explicit sizes; every reader checks
// the stream and fails loudly, and length prefixes are treated as
// untrusted input.
#pragma once

#include <algorithm>
#include <cstdint>
#include <istream>
#include <limits>
#include <ostream>
#include <string>
#include <type_traits>
#include <vector>

#include "common/check.hpp"

namespace refit::ser {

template <typename T>
void write_pod(std::ostream& os, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  os.write(reinterpret_cast<const char*>(&v), sizeof(T));
  REFIT_CHECK_MSG(os.good(), "serialization write failed");
}

template <typename T>
T read_pod(std::istream& is) {
  static_assert(std::is_trivially_copyable_v<T>);
  T v{};
  is.read(reinterpret_cast<char*>(&v), sizeof(T));
  REFIT_CHECK_MSG(is.good(), "serialization read failed");
  return v;
}

template <typename T>
void write_vec(std::ostream& os, const std::vector<T>& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  write_pod<std::uint64_t>(os, v.size());
  if (!v.empty()) {
    os.write(reinterpret_cast<const char*>(v.data()),
             static_cast<std::streamsize>(v.size() * sizeof(T)));
    REFIT_CHECK_MSG(os.good(), "serialization write failed");
  }
}

/// Reads a length-prefixed vector. A count whose byte size overflows is
/// rejected, and the payload is read in bounded chunks, so a corrupt
/// prefix fails the read check instead of allocating ahead of the bytes
/// actually present.
template <typename T>
std::vector<T> read_vec(std::istream& is) {
  static_assert(std::is_trivially_copyable_v<T>);
  const auto n = read_pod<std::uint64_t>(is);
  REFIT_CHECK_MSG(
      n <= static_cast<std::uint64_t>(
               std::numeric_limits<std::streamsize>::max()) / sizeof(T),
      "serialization length prefix " << n << " overflows");
  constexpr std::uint64_t kChunk = (std::uint64_t{1} << 20) / sizeof(T) + 1;
  std::vector<T> v;
  for (std::uint64_t done = 0; done < n;) {
    const std::uint64_t take = std::min(n - done, kChunk);
    v.resize(static_cast<std::size_t>(done + take));
    is.read(reinterpret_cast<char*>(v.data() + done),
            static_cast<std::streamsize>(take * sizeof(T)));
    REFIT_CHECK_MSG(is.good(), "serialization read failed");
    done += take;
  }
  return v;
}

/// Write/check a 8-byte section tag — catches format drift early.
inline void write_tag(std::ostream& os, std::uint64_t tag) {
  write_pod(os, tag);
}
inline void expect_tag(std::istream& is, std::uint64_t tag) {
  const auto got = read_pod<std::uint64_t>(is);
  REFIT_CHECK_MSG(got == tag, "serialization tag mismatch: expected "
                                  << tag << ", got " << got);
}

}  // namespace refit::ser
