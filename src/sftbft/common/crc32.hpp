// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320).
//
// One implementation shared by every integrity frame in the system: the
// storage WAL's record framing and the network transport's Envelope framing
// both checksum with this function, so a frame written by one layer is
// checkable with the same primitive everywhere.
//
// Portable slice-by-8 (eight table lookups per eight input bytes, no CPU
// extensions); init and xorout 0xFFFFFFFF, so crc32("123456789") is
// 0xCBF43926 and the checksum of every frame matches the byte-wise
// definition.
#pragma once

#include <cstdint>

#include "sftbft/common/bytes.hpp"

namespace sftbft {

[[nodiscard]] std::uint32_t crc32(BytesView data);

}  // namespace sftbft
