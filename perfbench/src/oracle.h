// Reference models the benchmark computes on its own, apart from the serving
// path: the CE encoder (paper Eqn. 1) as a plain loop, and the wire format's
// int16 per-frame-scale quantization, bit-plane truncation and CSI-2 packet
// layout.
#pragma once

#include <cstdint>

#include "ce/pattern.h"
#include "tensor/tensor.h"

namespace perfbench {

/// (T, H, W) clip -> exposure-normalized coded image (H, W): the sum over
/// slots of the exposed pixels, divided by each pixel's exposure count
/// (0 where a pixel is never exposed).
snappix::Tensor plain_ce_encode(const snappix::Tensor& clip, const snappix::ce::CePattern& pattern);

/// What a receiver reconstructs from a coded image sent over an entropy-coded
/// link carrying the top `planes` bit-planes (0 = all): q = round(x / s) with
/// s = max|x| / 32767, the low magnitude bits below the kept planes zeroed,
/// then q * s.
snappix::Tensor wire_view(const snappix::Tensor& coded, int planes);

/// Bytes of one entropy-coded frame on the CSI-2 link: Frame Start and Frame
/// End short packets (4 B each), a stream-header long packet, and one long
/// packet per transmitted plane (plane index + chunk), each long packet
/// being a 4 B header + payload + 2 B CRC.
std::uint64_t csi2_codec_wire_bytes(const snappix::Tensor& coded, int planes);

/// Bytes of the same frame sent raw: FS + FE + one float32 row packet per row.
std::uint64_t csi2_raw_wire_bytes(std::int64_t height, std::int64_t width);

}  // namespace perfbench
