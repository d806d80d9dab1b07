// Robustness fuzzing: corrupted or truncated archives must never crash or
// read out of bounds — every decompressor either throws a std::exception or
// returns (possibly wrong) data. Run under the default sanitizer-free build
// this asserts control-flow robustness; the byte readers bound every access.
#include <gtest/gtest.h>

#include <cstring>
#include <tuple>
#include <vector>

#include "baselines/registry.hh"
#include "core/bytes.hh"
#include "core/compressor_iface.hh"
#include "core/cuszi.hh"
#include "datagen/datasets.hh"
#include "datagen/rng.hh"
#include "device/arena.hh"
#include "lossless/orchestrate.hh"

namespace {

using szi::baselines::make_compressor;

const szi::Field& test_field() {
  static const auto fields =
      szi::datagen::make_dataset("miranda", szi::datagen::Size::Small);
  return fields.front();
}

class CorruptionFuzz : public ::testing::TestWithParam<std::string> {};

TEST_P(CorruptionFuzz, TruncationsNeverCrash) {
  auto c = make_compressor(GetParam());
  const auto p = GetParam() == "cuzfp"
                     ? szi::CompressParams{szi::ErrorMode::FixedRate, 4.0}
                     : szi::CompressParams{szi::ErrorMode::Rel, 1e-3};
  const auto enc = c->compress(test_field(), p);
  for (const double frac : {0.0, 0.1, 0.5, 0.9, 0.999}) {
    auto cut = enc.bytes;
    cut.resize(static_cast<std::size_t>(static_cast<double>(cut.size()) * frac));
    try {
      const auto out = c->decompress(cut);
      (void)out;  // silently-wrong output is acceptable; crashing is not
    } catch (const std::exception&) {
      // expected for most truncations
    }
  }
}

TEST_P(CorruptionFuzz, BitFlipsNeverCrash) {
  auto c = make_compressor(GetParam());
  const auto p = GetParam() == "cuzfp"
                     ? szi::CompressParams{szi::ErrorMode::FixedRate, 4.0}
                     : szi::CompressParams{szi::ErrorMode::Rel, 1e-3};
  const auto enc = c->compress(test_field(), p);
  szi::datagen::Rng rng(0xC0FFEE);
  for (int trial = 0; trial < 24; ++trial) {
    auto bad = enc.bytes;
    // Flip a burst of 1-8 random bits (headers and payload alike).
    const int flips = 1 + static_cast<int>(rng.next_u64() % 8);
    for (int k = 0; k < flips; ++k) {
      const auto pos = static_cast<std::size_t>(rng.next_u64() % bad.size());
      bad[pos] ^= static_cast<std::byte>(1u << (rng.next_u64() % 8));
    }
    try {
      const auto out = c->decompress(bad);
      (void)out;
    } catch (const std::exception&) {
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllCompressors, CorruptionFuzz,
                         ::testing::Values("cusz-i", "cusz", "cuszp", "cuszx",
                                           "fz-gpu", "cuzfp", "sz3", "qoz"));

// Both precisions of the typed cuSZ-i archive, plain and bitcomp-wrapped
// (§VI-B framing): truncations and bit flips must never crash regardless of
// the header's precision byte or the outer de-redundancy layer.
class TypedCorruption
    : public ::testing::TestWithParam<std::tuple<bool /*f64*/,
                                                 bool /*bitcomp*/>> {};

TEST_P(TypedCorruption, TruncationsAndFlipsNeverCrash) {
  const auto [f64, wrapped] = GetParam();
  const auto& field = test_field();
  const szi::CompressParams p{szi::ErrorMode::Rel, 1e-3};
  std::vector<std::byte> archive;
  if (f64) {
    const std::vector<double> data(field.data.begin(), field.data.end());
    archive = szi::cuszi_compress(data, field.dims, p);
  } else {
    archive = szi::cuszi_compress(field.view(), field.dims, p);
  }
  if (wrapped) archive = szi::bitcomp_wrap_archive(archive);

  const auto decode = [&](std::span<const std::byte> bytes) {
    std::vector<std::byte> inner;
    if (wrapped) {
      inner = szi::bitcomp_unwrap_archive(bytes);
      bytes = inner;
    }
    if (f64)
      (void)szi::cuszi_decompress_f64(bytes);
    else
      (void)szi::cuszi_decompress_f32(bytes);
  };

  for (const double frac : {0.0, 0.1, 0.5, 0.9, 0.999}) {
    auto cut = archive;
    cut.resize(
        static_cast<std::size_t>(static_cast<double>(cut.size()) * frac));
    try {
      decode(cut);
    } catch (const std::exception&) {
    }
  }
  szi::datagen::Rng rng(0xBADF64 + (f64 ? 1 : 0) + (wrapped ? 2 : 0));
  for (int trial = 0; trial < 24; ++trial) {
    auto bad = archive;
    const int flips = 1 + static_cast<int>(rng.next_u64() % 8);
    for (int k = 0; k < flips; ++k) {
      const auto pos = static_cast<std::size_t>(rng.next_u64() % bad.size());
      bad[pos] ^= static_cast<std::byte>(1u << (rng.next_u64() % 8));
    }
    try {
      decode(bad);
    } catch (const std::exception&) {
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    PrecisionByWrapper, TypedCorruption,
    ::testing::Combine(::testing::Bool(), ::testing::Bool()),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) ? "f64" : "f32") +
             (std::get<1>(info.param) ? "_bitcomp" : "_plain");
    });

// Structured SZI2 header coverage: each directory invariant the decoder
// validates, violated one at a time, must be rejected with CorruptArchive —
// by the full decoder, the progressive decoder, and the directory parser.
// Directory layout: u32 nseg at byte 53, then 32-byte entries
// (u8 kind | u8 level | u16 rsv0 | u32 rsv1 | u64 count | u64 off | u64 sz).
TEST(CorruptionFuzz, V2HeaderInvariantsRejected) {
  const auto& field = test_field();
  const auto archive = szi::cuszi_compress(field.view(), field.dims,
                                           {szi::ErrorMode::Rel, 1e-3});
  constexpr std::size_t kNsegOff = 53;
  constexpr std::size_t kEntries = kNsegOff + 4;
  constexpr std::size_t kEntry = 32;
  const auto poke = [&](std::size_t at, auto v) {
    auto bad = archive;
    std::memcpy(bad.data() + at, &v, sizeof(v));
    return bad;
  };
  const auto expect_rejected = [&](const std::vector<std::byte>& bad,
                                   const char* what) {
    EXPECT_THROW((void)szi::cuszi_decompress_f32(bad),
                 szi::core::CorruptArchive)
        << what;
    EXPECT_THROW((void)szi::cuszi_decompress_progressive_f32(bad, 2),
                 szi::core::CorruptArchive)
        << what << " (progressive)";
    EXPECT_THROW((void)szi::cuszi_archive_segments(bad),
                 szi::core::CorruptArchive)
        << what << " (segments)";
  };

  std::uint32_t nseg = 0;
  std::memcpy(&nseg, archive.data() + kNsegOff, sizeof(nseg));
  ASSERT_GE(nseg, 5u);  // anchors + outliers + >= 3 levels

  expect_rejected(poke(kNsegOff, std::uint32_t{nseg + 1}), "bad nseg");
  expect_rejected(poke(kNsegOff, std::uint32_t{0}), "zero nseg");
  expect_rejected(poke(kEntries, std::uint8_t{2}), "anchor kind wrong");
  expect_rejected(poke(kEntries + kEntry + 1, std::uint8_t{3}),
                  "outlier level wrong");
  expect_rejected(poke(kEntries + 2 * kEntry + 1, std::uint8_t{1}),
                  "level segments out of order");
  expect_rejected(poke(kEntries + 2, std::uint16_t{1}), "reserved0 set");
  expect_rejected(poke(kEntries + 4, std::uint32_t{7}), "reserved1 set");

  // Count mismatch: a level's symbol count must equal its closed form.
  std::uint64_t count = 0;
  std::memcpy(&count, archive.data() + kEntries + 2 * kEntry + 8,
              sizeof(count));
  expect_rejected(poke(kEntries + 2 * kEntry + 8, count + 1),
                  "level symbol count mismatch");

  // Non-contiguous offsets: nudge the second segment's offset.
  std::uint64_t off = 0;
  std::memcpy(&off, archive.data() + kEntries + kEntry + 16, sizeof(off));
  expect_rejected(poke(kEntries + kEntry + 16, off + 1),
                  "offsets not contiguous");

  // Any magic but 'SZI2' is rejected before the directory is read.
  auto bad_magic = archive;
  bad_magic[3] = std::byte{'9'};
  expect_rejected(bad_magic, "unknown magic version");
}

// Structured BBC2 wrapper coverage: each container invariant, violated one
// at a time, must be rejected with CorruptArchive by the unwrap path, the
// phased wrapped full decode, and the prefix-reading preview. Table
// layout: u32 magic | u32 nseg | 24-byte entries (u8 method | u8 rsv0 |
// u16 rsv1 | u32 rsv2 | u64 raw_size | u64 size), payloads back to back.
TEST(CorruptionFuzz, WrapperTableInvariantsRejected) {
  const auto& field = test_field();
  const auto inner = szi::cuszi_compress(field.view(), field.dims,
                                         {szi::ErrorMode::Rel, 1e-3});
  const auto wrapped = szi::bitcomp_wrap_archive(inner);
  constexpr std::size_t kNsegOff = 4;
  constexpr std::size_t kEntries = 8;
  constexpr std::size_t kEntry = sizeof(szi::WrapSegmentEntry);
  static_assert(kEntry == 24);

  szi::dev::Arena arena;
  szi::dev::Workspace ws(arena);
  const auto poke = [&](std::size_t at, auto v) {
    auto bad = wrapped;
    std::memcpy(bad.data() + at, &v, sizeof(v));
    return bad;
  };
  const auto expect_rejected = [&](const std::vector<std::byte>& bad,
                                   const char* what) {
    EXPECT_THROW((void)szi::bitcomp_unwrap_archive(bad),
                 szi::core::CorruptArchive)
        << what;
    ws.reset();
    EXPECT_THROW((void)szi::cuszi_decompress_bitcomp_f32(bad, ws),
                 szi::core::CorruptArchive)
        << what << " (pipelined)";
    EXPECT_THROW((void)szi::cuszi_decompress_progressive_f32(bad, 2),
                 szi::core::CorruptArchive)
        << what << " (progressive)";
  };

  std::uint32_t nseg = 0;
  std::memcpy(&nseg, wrapped.data() + kNsegOff, sizeof(nseg));
  ASSERT_GE(nseg, 2u);  // header+directory range plus >= 1 inner segment

  expect_rejected(poke(kNsegOff, std::uint32_t{0}), "zero nseg");
  expect_rejected(poke(kNsegOff, std::uint32_t{nseg + 1}), "inflated nseg");
  expect_rejected(poke(kEntries, std::uint8_t{3}), "unknown method id");
  expect_rejected(poke(kEntries + 1, std::uint8_t{1}), "reserved0 set");
  expect_rejected(poke(kEntries + 2, std::uint16_t{1}), "reserved1 set");
  expect_rejected(poke(kEntries + 4, std::uint32_t{7}), "reserved2 set");

  // The parser itself must localize the method rejection to the wrapper
  // stage — before any payload is touched or allocated.
  try {
    (void)szi::bitcomp_parse_container(poke(kEntries, std::uint8_t{0xFF}));
    FAIL() << "unknown method id must not parse";
  } catch (const szi::core::CorruptArchive& e) {
    EXPECT_EQ(e.stage(), "bitcomp-wrapper");
  }

  // Payload-fill accounting: growing or shrinking any payload size breaks
  // the exact-fill invariant; a huge raw_size trips the u64 overflow check
  // or the decode allocation guard before any buffer is sized from it.
  std::uint64_t size0 = 0;
  std::memcpy(&size0, wrapped.data() + kEntries + 16, sizeof(size0));
  expect_rejected(poke(kEntries + 16, size0 + 1), "payload overfill");
  expect_rejected(poke(kEntries + 16, size0 - 1), "payload underfill");
  expect_rejected(poke(kEntries + 8, ~std::uint64_t{0}), "raw_size overflow");

  // Method/size mismatch on a method-0 segment: the LZSS frame inside the
  // payload records the true raw size, so a nudged table raw_size must be
  // caught by the frame/table cross-check (not silently mis-sized).
  std::uint64_t raw0 = 0;
  std::memcpy(&raw0, wrapped.data() + kEntries + 8, sizeof(raw0));
  expect_rejected(poke(kEntries + 8, raw0 + 1), "segment frame size mismatch");

  // Same cross-check for a transformed frame: force Bitshuffle so the
  // payload's closed-form size no longer matches the nudged raw_size.
  const auto shuffled = szi::bitcomp_wrap_archive(
      inner, szi::lossless::LzssMode::Lazy,
      szi::lossless::MethodPolicy::ForceBitshuffle);
  auto bad = shuffled;
  std::uint64_t raw_sh = 0;
  std::memcpy(&raw_sh, bad.data() + kEntries + 8, sizeof(raw_sh));
  // +16 bytes = +8 u16 elements: always grows the closed-form transformed
  // size by a full plane row (smaller nudges can round away inside the
  // 16*ceil(tail/8) tail-block term) while keeping the odd-tail parity.
  const std::uint64_t nudged = raw_sh + 16;
  std::memcpy(bad.data() + kEntries + 8, &nudged, sizeof(nudged));
  expect_rejected(bad, "bitshuffle frame size mismatch");

  // A corrupt LZSS block inside the trailing tile-index segment — bytes the
  // full decode never parses — must still fail the wrapped full decode,
  // because every block decodes before the inner archive is read. Block 0
  // is rewritten to open with a match reaching before the block start.
  ASSERT_EQ(szi::cuszi_archive_segments(inner).back().kind, 3u);
  const auto tidx = szi::bitcomp_parse_container(wrapped).payloads.back();
  std::uint64_t block0 = 0;  // u64 raw_size | u32 bsize | u32 nblocks | offs
  std::memcpy(&block0, tidx.data() + 16, sizeof(block0));
  auto bad_block = wrapped;
  const auto at =
      static_cast<std::size_t>(tidx.data() - wrapped.data() + block0);
  bad_block[at] = std::byte{1};         // mode: LZSS tokens
  bad_block[at + 1] = std::byte{1};     // control: first token is a match
  bad_block[at + 2] = std::byte{0xFF};  // distance 0xFFFF
  bad_block[at + 3] = std::byte{0xFF};
  EXPECT_THROW((void)szi::bitcomp_unwrap_archive(bad_block),
               szi::core::CorruptArchive);
  ws.reset();
  EXPECT_THROW((void)szi::cuszi_decompress_bitcomp_f32(bad_block, ws),
               szi::core::CorruptArchive)
      << "corrupt tile-index block";
}

// Structured tile-index coverage: each TIDX invariant the ROI decoder
// validates, violated one at a time, must be rejected with CorruptArchive
// whose stage and detail localize the fault to the index — while the full
// decoder, which never reads the index payload, keeps decoding the same
// mutated bytes bit-identically. Payload layout: u16 version | u16 reserved
// | u32 slab_z | u32 nlevels | u32 nslabs, then 24-byte entries
// (u64 sym_rank | u64 code_byte | u32 huff_chunk | u32 wrap_block), levels
// descending, slabs ascending.
TEST(CorruptionFuzz, TileIndexInvariantsRejected) {
  const auto& field = test_field();
  const auto archive = szi::cuszi_compress(field.view(), field.dims,
                                           {szi::ErrorMode::Rel, 1e-3});
  const auto segs = szi::cuszi_archive_segments(archive);
  ASSERT_EQ(segs.back().kind, 3u);  // trailing tile index
  const auto off = static_cast<std::size_t>(segs.back().offset);
  const szi::RoiBox box{{10, 20, 30}, {16, 16, 16}};
  const auto ref = szi::cuszi_decompress_f32(archive);

  const auto poke = [&](std::size_t at, auto v) {
    auto bad = archive;
    std::memcpy(bad.data() + at, &v, sizeof(v));
    return bad;
  };
  const auto expect_rejected = [&](const std::vector<std::byte>& bad,
                                   const char* detail, const char* what) {
    try {
      (void)szi::cuszi_decompress_roi_f32(bad, box);
      ADD_FAILURE() << what << ": ROI decode accepted a corrupt tile index";
    } catch (const szi::core::CorruptArchive& e) {
      EXPECT_EQ(e.stage(), "cusz-i") << what;
      EXPECT_NE(std::string(e.what()).find(detail), std::string::npos)
          << what << ": got \"" << e.what() << '"';
    }
    // The index only steers ROI reads; every other surface ignores it.
    EXPECT_EQ(szi::cuszi_decompress_f32(bad), ref) << what;
  };

  expect_rejected(poke(off, std::uint16_t{2}), "tile index header mismatch",
                  "bad version");
  expect_rejected(poke(off + 2, std::uint16_t{1}),
                  "tile index header mismatch", "reserved set");
  expect_rejected(poke(off + 4, std::uint32_t{4}),
                  "tile index header mismatch", "wrong slab_z");
  expect_rejected(poke(off + 8, std::uint32_t{1}),
                  "tile index header mismatch", "wrong nlevels");
  expect_rejected(poke(off + 12, std::uint32_t{1}),
                  "tile index header mismatch", "wrong nslabs");

  // Entry fields are closed forms of (dims, per-level chunk tables): nudge
  // each field of the first entry (coarsest level, slab 0) off by one.
  const std::size_t entry0 = off + 16;
  expect_rejected(poke(entry0, std::uint64_t{1}), "tile index entry mismatch",
                  "sym_rank nudged");
  expect_rejected(poke(entry0 + 8, std::uint64_t{1}),
                  "tile index entry mismatch", "code_byte nudged");
  expect_rejected(poke(entry0 + 16, std::uint32_t{1}),
                  "tile index entry mismatch", "huff_chunk nudged");
  expect_rejected(poke(entry0 + 20, std::uint32_t{7}),
                  "tile index entry mismatch", "wrap_block nudged");

  // An archive cut inside the index payload: the directory still promises
  // the full index, so the short read is localized to the index fetch.
  auto cut = archive;
  cut.resize(off + 8);
  try {
    (void)szi::cuszi_decompress_roi_f32(cut, box);
    ADD_FAILURE() << "ROI decode accepted a truncated tile index";
  } catch (const szi::core::CorruptArchive& e) {
    EXPECT_EQ(e.stage(), "cusz-i");
    EXPECT_NE(std::string(e.what()).find("tile index truncated"),
              std::string::npos)
        << "got \"" << e.what() << '"';
  }
}

TEST(CorruptionFuzz, WrappedArchivesToo) {
  auto c = szi::with_bitcomp(make_compressor("cusz-i"));
  const auto enc =
      c->compress(test_field(), {szi::ErrorMode::Rel, 1e-3});
  szi::datagen::Rng rng(0xF00D);
  for (int trial = 0; trial < 16; ++trial) {
    auto bad = enc.bytes;
    const auto pos = static_cast<std::size_t>(rng.next_u64() % bad.size());
    bad[pos] ^= static_cast<std::byte>(0xFF);
    try {
      (void)c->decompress(bad);
    } catch (const std::exception&) {
    }
  }
}

}  // namespace
