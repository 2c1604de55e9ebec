#include "noc/packet.hpp"

#include "common/check.hpp"

namespace ioguard::noc {

std::size_t flits_for(std::uint32_t payload_bytes, std::uint32_t flit_bytes) {
  IOGUARD_CHECK(flit_bytes > 0);
  return 1 + (payload_bytes + flit_bytes - 1) / flit_bytes;
}

}  // namespace ioguard::noc
