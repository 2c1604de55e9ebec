// Checksums for on-disk artifacts: CRC-32 (IEEE 802.3, reflected) guards
// checkpoint journal records against torn or bit-flipped payloads, and
// FNV-1a/64 fingerprints canonical configuration strings so a resumed run
// can refuse a journal written under different experiment parameters.
#pragma once

#include <cstdint>
#include <string_view>

namespace ioguard {

/// CRC-32 (polynomial 0xEDB88320) of `data`. Standard check value:
/// crc32("123456789") == 0xCBF43926.
[[nodiscard]] std::uint32_t crc32(std::string_view data);

/// Incremental form: feed `crc32_update(crc32_init(), chunk)` per chunk and
/// finish with crc32_final. crc32(s) == crc32_final(crc32_update(init, s)).
[[nodiscard]] constexpr std::uint32_t crc32_init() { return 0xFFFFFFFFu; }
[[nodiscard]] std::uint32_t crc32_update(std::uint32_t state,
                                         std::string_view data);
[[nodiscard]] constexpr std::uint32_t crc32_final(std::uint32_t state) {
  return state ^ 0xFFFFFFFFu;
}

/// FNV-1a 64-bit hash of `data`; stable across platforms and runs, used to
/// fingerprint canonical config strings (not a cryptographic hash).
[[nodiscard]] std::uint64_t fnv1a64(std::string_view data);

/// Incremental form: chaining `fnv1a64_update` over the pieces of a string,
/// starting from fnv1a64_init(), gives fnv1a64 of the whole string, so a
/// fingerprint can be taken without building the string.
[[nodiscard]] constexpr std::uint64_t fnv1a64_init() {
  return 0xCBF29CE484222325ull;
}
[[nodiscard]] constexpr std::uint64_t fnv1a64_update(std::uint64_t state,
                                                     std::string_view data) {
  for (const char ch : data) {
    state ^= static_cast<std::uint8_t>(ch);
    state *= 0x100000001B3ull;
  }
  return state;
}

}  // namespace ioguard
