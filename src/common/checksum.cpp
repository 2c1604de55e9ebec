#include "common/checksum.hpp"

#include <array>

namespace ioguard {

namespace {

constexpr std::array<std::uint32_t, 256> make_crc32_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit)
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    table[i] = c;
  }
  return table;
}

constexpr std::array<std::uint32_t, 256> kCrc32Table = make_crc32_table();

}  // namespace

std::uint32_t crc32_update(std::uint32_t state, std::string_view data) {
  for (const char ch : data) {
    const auto byte = static_cast<std::uint8_t>(ch);
    state = kCrc32Table[(state ^ byte) & 0xFFu] ^ (state >> 8);
  }
  return state;
}

std::uint32_t crc32(std::string_view data) {
  return crc32_final(crc32_update(crc32_init(), data));
}

std::uint64_t fnv1a64(std::string_view data) {
  return fnv1a64_update(fnv1a64_init(), data);
}

}  // namespace ioguard
