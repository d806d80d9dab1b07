// Lossless codec tests: LZSS (Bitcomp stand-in), bitshuffle, zero-RLE.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <vector>

#include "core/bytes.hh"
#include "datagen/rng.hh"
#include "device/arena.hh"
#include "lossless/bitshuffle.hh"
#include "lossless/lzss.hh"
#include "lossless/rle.hh"

namespace {

using szi::lossless::lzss_compress;
using szi::lossless::lzss_decompress;

std::vector<std::byte> bytes_of(const std::vector<std::uint8_t>& v) {
  std::vector<std::byte> out(v.size());
  if (!v.empty()) std::memcpy(out.data(), v.data(), v.size());
  return out;
}

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  szi::datagen::Rng rng(seed);
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng.next_u64());
  return v;
}

TEST(Lzss, RoundTripRandom) {
  const auto data = bytes_of(random_bytes(300000, 1));
  EXPECT_EQ(lzss_decompress(lzss_compress(data)), data);
}

TEST(Lzss, RoundTripEmpty) {
  const std::vector<std::byte> data;
  EXPECT_EQ(lzss_decompress(lzss_compress(data)), data);
}

TEST(Lzss, RoundTripSingleByte) {
  const std::vector<std::byte> data{std::byte{0x42}};
  EXPECT_EQ(lzss_decompress(lzss_compress(data)), data);
}

TEST(Lzss, ZeroRunsCrush) {
  // The §VI-B scenario: Huffman output with long 0x00 runs.
  std::vector<std::byte> data(1 << 20, std::byte{0});
  const auto enc = lzss_compress(data);
  EXPECT_EQ(lzss_decompress(enc), data);
  EXPECT_LT(enc.size(), data.size() / 100);
}

TEST(Lzss, RepeatedPatternCompresses) {
  std::vector<std::byte> data;
  const char* pattern = "scientific-lossy-compression-";
  for (int i = 0; i < 5000; ++i)
    for (const char* p = pattern; *p; ++p) data.push_back(std::byte(*p));
  const auto enc = lzss_compress(data);
  EXPECT_EQ(lzss_decompress(enc), data);
  EXPECT_LT(enc.size(), data.size() / 20);
}

TEST(Lzss, IncompressibleFallsBackNearRaw) {
  const auto data = bytes_of(random_bytes(256 * 1024, 2));
  const auto enc = lzss_compress(data);
  EXPECT_EQ(lzss_decompress(enc), data);
  // Raw-mode fallback: bounded overhead (headers + offsets + mode bytes).
  EXPECT_LT(enc.size(), data.size() + 1024);
}

TEST(Lzss, BlockBoundariesExact) {
  for (const std::size_t n :
       {szi::lossless::kLzssBlock - 1, szi::lossless::kLzssBlock,
        szi::lossless::kLzssBlock + 1, 3 * szi::lossless::kLzssBlock + 17}) {
    std::vector<std::byte> data(n);
    for (std::size_t i = 0; i < n; ++i)
      data[i] = std::byte(static_cast<std::uint8_t>(i * 7 % 251));
    EXPECT_EQ(lzss_decompress(lzss_compress(data)), data) << "n=" << n;
  }
}

TEST(Lzss, OverlappingMatchRuns) {
  // "abcabcabc..." forces dist < len copies.
  std::vector<std::byte> data;
  for (int i = 0; i < 10000; ++i) data.push_back(std::byte('a' + i % 3));
  EXPECT_EQ(lzss_decompress(lzss_compress(data)), data);
}

// --- Lazy matcher ---------------------------------------------------------
// The encoder's default mode defers a match by one position when the next
// position holds a strictly longer one (plus skip-ahead over incompressible
// runs and capped chain insertion). The format is unchanged, so every lazy
// archive must decode with the untouched decoder, and the ratio must stay
// within 1% of the greedy matcher on the streams we care about.

using szi::lossless::LzssMode;

/// Quant-code-shaped corpus: u16 codes concentrated on one bin (the
/// G-Interp regime), reinterpreted as the byte stream LZSS actually sees.
std::vector<std::byte> concentrated_code_bytes(std::size_t n, double p,
                                               std::uint64_t seed) {
  szi::datagen::Rng rng(seed);
  std::vector<std::byte> out(n * 2);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint16_t c =
        rng.uniform() < p
            ? 512
            : static_cast<std::uint16_t>(512 +
                                         static_cast<int>(rng.gaussian() * 40));
    std::memcpy(out.data() + 2 * i, &c, 2);
  }
  return out;
}

void check_lazy_round_trip_and_ratio(const std::vector<std::byte>& data,
                                     const char* what) {
  SCOPED_TRACE(what);
  const auto lazy =
      lzss_compress(data, szi::lossless::kLzssBlock, LzssMode::Lazy);
  const auto greedy =
      lzss_compress(data, szi::lossless::kLzssBlock, LzssMode::Greedy);
  EXPECT_EQ(lzss_decompress(lazy), data);
  EXPECT_EQ(lzss_decompress(greedy), data);
  // Lazy must never lose more than 1% vs greedy (it usually wins).
  EXPECT_LE(lazy.size(),
            greedy.size() + std::max<std::size_t>(greedy.size() / 100, 16))
      << "lazy " << lazy.size() << " greedy " << greedy.size();
}

TEST(LzssLazy, ConcentratedQuantCodes) {
  check_lazy_round_trip_and_ratio(concentrated_code_bytes(1 << 19, 0.95, 11),
                                  "p=0.95");
  check_lazy_round_trip_and_ratio(concentrated_code_bytes(1 << 19, 0.99, 12),
                                  "p=0.99");
}

TEST(LzssLazy, AllZero) {
  check_lazy_round_trip_and_ratio(std::vector<std::byte>(1 << 20, std::byte{0}),
                                  "all-zero");
}

TEST(LzssLazy, IncompressibleRandom) {
  check_lazy_round_trip_and_ratio(bytes_of(random_bytes(256 * 1024, 13)),
                                  "random");
}

TEST(LzssLazy, ShortPeriodRepeats) {
  for (int period = 1; period <= 3; ++period) {
    std::vector<std::byte> data;
    data.reserve(200000);
    for (int i = 0; i < 200000; ++i)
      data.push_back(std::byte('a' + i % period));
    check_lazy_round_trip_and_ratio(data, "short period");
  }
}

TEST(LzssLazy, MixedRunsAndNoise) {
  // Alternating compressible runs and incompressible noise exercises both
  // the skip-ahead heuristic and the recovery when matches reappear.
  szi::datagen::Rng rng(14);
  std::vector<std::byte> data;
  for (int seg = 0; seg < 64; ++seg) {
    if (seg % 2 == 0) {
      data.insert(data.end(), 4096, std::byte{0x20});
    } else {
      for (int i = 0; i < 4096; ++i)
        data.push_back(std::byte(static_cast<std::uint8_t>(rng.next_u64())));
    }
  }
  check_lazy_round_trip_and_ratio(data, "mixed");
}

TEST(LzssLazy, ModesAgreeAcrossBlockBoundaries) {
  for (const std::size_t n :
       {szi::lossless::kLzssBlock - 1, szi::lossless::kLzssBlock,
        szi::lossless::kLzssBlock + 1}) {
    std::vector<std::byte> data(n);
    for (std::size_t i = 0; i < n; ++i)
      data[i] = std::byte(static_cast<std::uint8_t>(i * 31 % 17));
    check_lazy_round_trip_and_ratio(data, "block boundary");
  }
}

TEST(Lzss, ThrowsOnCorruptHeader) {
  std::vector<std::byte> junk(4, std::byte{0xFF});
  EXPECT_THROW((void)lzss_decompress(junk), std::runtime_error);
}

TEST(Lzss, ThrowsOnTruncatedPayload) {
  std::vector<std::byte> data(200000, std::byte{7});
  auto enc = lzss_compress(data);
  enc.resize(enc.size() - enc.size() / 4);
  EXPECT_THROW((void)lzss_decompress(enc), std::runtime_error);
}

TEST(Bitshuffle, RoundTripExactBlocks) {
  szi::datagen::Rng rng(4);
  std::vector<std::uint16_t> in(4 * szi::lossless::kShuffleBlock);
  for (auto& v : in) v = static_cast<std::uint16_t>(rng.next_u64());
  std::vector<std::uint8_t> shuf(szi::lossless::bitshuffle16_size(in.size()));
  szi::lossless::bitshuffle16(in, shuf);
  std::vector<std::uint16_t> out(in.size());
  szi::lossless::bitunshuffle16(shuf, out);
  EXPECT_EQ(in, out);
}

TEST(Bitshuffle, RoundTripTailBlock) {
  for (const std::size_t n : {1u, 7u, 8u, 9u, 1023u, 1025u, 2047u}) {
    szi::datagen::Rng rng(5 + n);
    std::vector<std::uint16_t> in(n);
    for (auto& v : in) v = static_cast<std::uint16_t>(rng.next_u64());
    std::vector<std::uint8_t> shuf(szi::lossless::bitshuffle16_size(n));
    szi::lossless::bitshuffle16(in, shuf);
    std::vector<std::uint16_t> out(n);
    szi::lossless::bitunshuffle16(shuf, out);
    EXPECT_EQ(in, out) << "n=" << n;
  }
}

TEST(Bitshuffle, ConstantCodesYieldMostlyZeroPlanes) {
  std::vector<std::uint16_t> in(2048, 512);  // one bit set per value
  std::vector<std::uint8_t> shuf(szi::lossless::bitshuffle16_size(in.size()));
  szi::lossless::bitshuffle16(in, shuf);
  std::size_t nonzero = 0;
  for (const auto b : shuf)
    if (b) ++nonzero;
  // Exactly one plane per block is non-zero: 2 blocks * 128 bytes.
  EXPECT_EQ(nonzero, 2u * szi::lossless::kShuffleBlock / 8);
}

TEST(ZeroRle, RoundTripMixed) {
  std::vector<std::byte> data(100000, std::byte{0});
  for (std::size_t i = 0; i < data.size(); i += 997)
    data[i] = std::byte{0xAB};
  const auto enc = szi::lossless::zero_rle_compress(data);
  EXPECT_EQ(szi::lossless::zero_rle_decompress(enc), data);
  EXPECT_LT(enc.size(), data.size());
}

TEST(ZeroRle, RoundTripAllZero) {
  std::vector<std::byte> data(1 << 16, std::byte{0});
  const auto enc = szi::lossless::zero_rle_compress(data);
  EXPECT_EQ(szi::lossless::zero_rle_decompress(enc), data);
  EXPECT_LT(enc.size(), data.size() / 100);
}

TEST(ZeroRle, RoundTripNoZeros) {
  const auto data = bytes_of(random_bytes(33333, 6));
  const auto enc = szi::lossless::zero_rle_compress(data);
  EXPECT_EQ(szi::lossless::zero_rle_decompress(enc), data);
}

TEST(ZeroRle, RoundTripEmptyAndTiny) {
  for (const std::size_t n : {0u, 1u, 31u, 32u, 33u}) {
    std::vector<std::byte> data(n, std::byte{3});
    EXPECT_EQ(szi::lossless::zero_rle_decompress(
                  szi::lossless::zero_rle_compress(data)),
              data)
        << "n=" << n;
  }
}

TEST(ZeroRle, ThrowsOnTruncation) {
  std::vector<std::byte> data(10000, std::byte{1});
  auto enc = szi::lossless::zero_rle_compress(data);
  enc.resize(enc.size() / 2);
  EXPECT_THROW((void)szi::lossless::zero_rle_decompress(enc),
               std::runtime_error);
}

// Growing a prefix of a real stream to what lzss_frame_header_bytes asks
// for reaches exactly the header lzss_parse_frame_header parses, in at most
// two steps (the fixed fields, the offset table), and no prefix ever asks
// for a block byte.
TEST(Lzss, FrameHeaderBytesReachesTheHeader) {
  using szi::lossless::kLzssBlock;
  using szi::lossless::lzss_frame_header_bytes;
  szi::dev::Arena arena;
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, kLzssBlock,
                              3 * kLzssBlock + 17}) {
    const auto stream = lzss_compress(
        n == 0 ? std::vector<std::byte>{} : bytes_of(random_bytes(n, 40 + n)));
    const std::span<const std::byte> s(stream);
    const std::size_t header =
        16 + (n + kLzssBlock - 1) / kLzssBlock * sizeof(std::uint64_t);
    for (std::size_t len = 0; len <= header; ++len)
      EXPECT_LE(lzss_frame_header_bytes(s.first(len), s.size()), header)
          << "n=" << n << " prefix " << len;

    std::size_t have = 0;
    int steps = 0;
    for (std::size_t need;
         (need = lzss_frame_header_bytes(s.first(have), s.size())) > have;
         have = need)
      ++steps;
    EXPECT_EQ(have, header) << "n=" << n;
    EXPECT_LE(steps, 2) << "n=" << n;
    szi::dev::Workspace ws(arena);
    EXPECT_EQ(
        szi::lossless::lzss_parse_frame_header(s.first(have), s.size(), ws)
            .raw_size,
        n);
    EXPECT_THROW((void)szi::lossless::lzss_parse_frame_header(
                     s.first(have - 1), s.size(), ws),
                 szi::core::CorruptArchive)
        << "n=" << n;
  }
}

// A prefix declaring 2^32 - 1 blocks asks for at most the whole stream,
// and for the full table when the stream is that large.
TEST(Lzss, FrameHeaderBytesClampsHugeCounts) {
  std::vector<std::byte> fixed(16);
  const std::uint32_t nblocks = 0xFFFFFFFFu;
  std::memcpy(fixed.data() + 12, &nblocks, sizeof(nblocks));
  EXPECT_EQ(szi::lossless::lzss_frame_header_bytes(fixed, 1000), 1000u);
  EXPECT_EQ(szi::lossless::lzss_frame_header_bytes(
                fixed, std::numeric_limits<std::size_t>::max()),
            16 + std::size_t{nblocks} * sizeof(std::uint64_t));
  EXPECT_EQ(szi::lossless::lzss_frame_header_bytes(
                std::span(fixed).first(15), 1000),
            16u);
}

}  // namespace
