// Corruption-fuzz harness for every archive decoder (labelled `fuzz` in
// ctest). Each codec compresses one small field, then decodes thousands of
// seeded mutants (bit flips, truncations, length-field inflations, span
// fills — see fuzz_mutator.hh). The contract under test:
//
//   every mutant either decodes (silently-wrong output is acceptable) or
//   throws core::CorruptArchive — never any other exception type, never a
//   crash, never a hang, and never an allocation above the decode cap.
//
// The cap is lowered to 256 MiB for the whole binary so an over-allocation
// driven by a corrupt length field surfaces as a hard failure rather than
// an OOM. All RNG seeds derive from the codec name, so a failing trial is
// reproducible from the test name plus its trial index.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <typeinfo>
#include <memory>
#include <string>
#include <vector>

#include "baselines/registry.hh"
#include "core/bytes.hh"
#include "core/compressor_iface.hh"
#include "core/cuszi.hh"
#include "datagen/rng.hh"
#include "device/arena.hh"
#include "fuzz_mutator.hh"
#include "huffman/huffman.hh"
#include "io/bundle.hh"
#include "lossless/lzss.hh"
#include "lossless/orchestrate.hh"
#include "predictor/ginterp.hh"
#include "quant/outlier.hh"

namespace {

using szi::baselines::make_compressor;

constexpr int kTrials = 10'000;
constexpr std::size_t kAllocCap = std::size_t{256} << 20;  // 256 MiB

/// FNV-1a: a stable per-codec seed independent of std::hash.
std::uint64_t seed_of(const std::string& name) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : name) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Small smooth field: big enough to exercise multi-level interpolation and
/// several Huffman chunks, small enough for thousands of decodes.
const szi::Field& tiny_field() {
  static const szi::Field field = [] {
    szi::Field f("fuzz", "synthetic", {33, 17, 9});
    for (std::size_t z = 0; z < f.dims.z; ++z)
      for (std::size_t y = 0; y < f.dims.y; ++y)
        for (std::size_t x = 0; x < f.dims.x; ++x)
          f.at(x, y, z) = static_cast<float>(
              std::sin(0.31 * static_cast<double>(x)) *
                  std::cos(0.17 * static_cast<double>(y)) +
              0.05 * static_cast<double>(z));
    f.data[7] = 0.0f;  // pwrel's zero class must stay covered
    return f;
  }();
  return field;
}

std::unique_ptr<szi::Compressor> build_compressor(const std::string& spec) {
  if (spec == "cusz-i+bitcomp")
    return szi::with_bitcomp(make_compressor("cusz-i"));
  if (spec == "cusz-i+pwrel")
    return szi::with_pointwise_rel(make_compressor("cusz-i"));
  return make_compressor(spec);
}

szi::CompressParams params_for(const std::string& spec) {
  if (spec == "cuzfp") return {szi::ErrorMode::FixedRate, 4.0};
  if (spec == "cusz-i+pwrel") return {szi::ErrorMode::PwRel, 1e-3};
  return {szi::ErrorMode::Rel, 1e-3};
}

/// Decodes one mutant and enforces the contract. Returns false (and records
/// a gtest failure) on any exception other than CorruptArchive.
template <typename DecodeFn>
void run_trials(const std::string& label, std::span<const std::byte> archive,
                DecodeFn&& decode) {
  szi::core::ScopedDecodeAllocCap cap(kAllocCap);
  szi::datagen::Rng rng(seed_of(label));
  for (int trial = 0; trial < kTrials; ++trial) {
    const auto mutant = szi::testing::mutate_archive(archive, rng);
    try {
      decode(mutant);
    } catch (const szi::core::CorruptArchive&) {
      // the structured rejection path — expected for most mutants
    } catch (const std::exception& e) {
      ADD_FAILURE() << label << " trial " << trial << ": decoder threw "
                    << typeid(e).name() << " (" << e.what()
                    << ") instead of CorruptArchive";
      return;
    }
  }
}

class FuzzDecode : public ::testing::TestWithParam<std::string> {};

TEST_P(FuzzDecode, MutantsDecodeOrThrowCorruptArchive) {
  const auto spec = GetParam();
  auto c = build_compressor(spec);
  const auto enc = c->compress(tiny_field(), params_for(spec));
  run_trials(spec, enc.bytes,
             [&](std::span<const std::byte> mutant) { (void)c->decompress(mutant); });
}

INSTANTIATE_TEST_SUITE_P(AllCodecs, FuzzDecode,
                         ::testing::Values("cusz-i", "cusz", "cuszp", "cuszx",
                                           "fz-gpu", "cuzfp", "sz3", "qoz",
                                           "cusz-i+bitcomp", "cusz-i+pwrel"),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (auto& ch : n)
                             if (ch == '-' || ch == '+') ch = '_';
                           return n;
                         });

// Seeded mutants of the raw and the BBC2 archive through the preview and
// ROI entry points, which run the one phased decoder over other fetch sets
// than a full decode (a prefix of segments, or a box's covering anchor
// rows, stream headers and chunks). Every mutant must decode or throw
// CorruptArchive at every preview level and through a fixed box; each entry
// point is tried even when another rejected the mutant.
TEST(FuzzDecode, PreviewAndRoiMutants) {
  const auto& f = tiny_field();
  const auto raw = szi::cuszi_compress(std::span<const float>(f.data), f.dims,
                                       {szi::ErrorMode::Rel, 1e-3});
  const auto wrapped = szi::bitcomp_wrap_archive(raw);
  const int nlevels = szi::predictor::ginterp_level_count(f.dims);
  const szi::RoiBox box{{3, 2, 1}, {12, 9, 6}};
  const auto rejects_or_decodes = [](auto&& decode) {
    try {
      decode();
    } catch (const szi::core::CorruptArchive&) {
    }
  };
  for (const auto& [label, archive] :
       {std::pair{"preview-roi-raw", raw},
        std::pair{"preview-roi-bbc2", wrapped}}) {
    run_trials(label, archive, [&](std::span<const std::byte> mutant) {
      for (int level = 1; level <= nlevels + 1; ++level)
        rejects_or_decodes([&] {
          (void)szi::cuszi_decompress_progressive_f32(mutant, level);
        });
      rejects_or_decodes(
          [&] { (void)szi::cuszi_decompress_roi_f32(mutant, box); });
    });
  }
}

// The lazy-match LZSS encoder path: mutants of its output (a token format
// identical to the greedy encoder's, so the untouched decoder is the unit
// under test) must decode or throw CorruptArchive like every other codec.
TEST(FuzzDecode, LzssLazyEncoderStream) {
  szi::datagen::Rng gen(seed_of("lzss-lazy-corpus"));
  std::vector<std::byte> data(96 * 1024);
  for (std::size_t i = 0; i < data.size(); ++i) {
    // Zero-run-dominated with noise bursts: exercises match, literal,
    // skip-ahead, and raw-fallback token paths in one archive.
    data[i] = gen.uniform() < 0.9
                  ? std::byte{0}
                  : std::byte(static_cast<std::uint8_t>(gen.next_u64()));
  }
  const auto enc = szi::lossless::lzss_compress(
      data, szi::lossless::kLzssBlock, szi::lossless::LzssMode::Lazy);
  run_trials("lzss-lazy", enc, [](std::span<const std::byte> mutant) {
    (void)szi::lossless::lzss_decompress(mutant);
  });
}

TEST(FuzzDecode, CuszIF64Archive) {
  const auto& f = tiny_field();
  std::vector<double> data(f.data.begin(), f.data.end());
  const auto archive =
      szi::cuszi_compress(data, f.dims, {szi::ErrorMode::Rel, 1e-3});
  run_trials("cusz-i-f64", archive, [](std::span<const std::byte> mutant) {
    (void)szi::cuszi_decompress_f64(mutant);
  });
}

TEST(FuzzDecode, BundleToc) {
  auto c = make_compressor("cusz-i");
  const auto enc = c->compress(tiny_field(), {szi::ErrorMode::Rel, 1e-3});
  szi::io::Bundle bundle;
  bundle.add({"pressure", "cusz-i", tiny_field().dims,
              tiny_field().bytes(), enc.bytes});
  bundle.add({"density", "cusz-i", tiny_field().dims, tiny_field().bytes(),
              enc.bytes});
  const auto bytes = bundle.serialize();
  run_trials("bundle", bytes, [](std::span<const std::byte> mutant) {
    (void)szi::io::Bundle::deserialize(mutant);
  });
}

// Every prefix of a wrapped archive, shortest to longest: deterministic
// truncation coverage for the overhauled decode path. Truncations inside the
// Huffman payload land mid-window for the buffered BitReader's 8-byte refill
// (the reader must serve the remaining bits then zeros, and the chunk-extent
// check must catch any overrun); truncations inside the LZSS frame exercise
// the parallel block decode's raw/token bounds checks.
TEST(FuzzDecode, TruncationSweepWrappedArchive) {
  auto c = build_compressor("cusz-i+bitcomp");
  const auto enc = c->compress(tiny_field(), params_for("cusz-i+bitcomp"));
  szi::core::ScopedDecodeAllocCap cap(kAllocCap);
  for (std::size_t len = 0; len <= enc.bytes.size(); ++len) {
    try {
      (void)c->decompress(std::span<const std::byte>(enc.bytes).first(len));
    } catch (const szi::core::CorruptArchive&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << "truncation at " << len << ": decoder threw "
                    << typeid(e).name() << " (" << e.what()
                    << ") instead of CorruptArchive";
      return;
    }
  }
}

// A Kraft-complete codebook with lengths far past the 12-bit LUT window
// (counts 2^i force the canonical chain 1, 2, ..., k, k): every deep symbol
// escapes the pack table into the bit-serial fallback, so mutants of this
// stream stress the LUT-escape path and the corrupt-stream guards inside
// DecodeTable::decode.
TEST(FuzzDecode, HuffmanDeepCodebookMutants) {
  constexpr std::size_t kSyms = 18;
  std::vector<szi::quant::Code> codes;
  for (std::size_t s = 0; s < kSyms; ++s)
    codes.insert(codes.end(), std::size_t{1} << s,
                 static_cast<szi::quant::Code>(s));
  // Interleave deterministically so deep codes appear in every chunk.
  std::vector<szi::quant::Code> shuffled(codes.size());
  std::size_t w = 0;
  for (std::size_t stride = 0; stride < 64; ++stride)
    for (std::size_t i = stride; i < codes.size(); i += 64)
      shuffled[w++] = codes[i];
  const auto stream = szi::huffman::encode(shuffled, kSyms);
  ASSERT_EQ(szi::huffman::decode(stream), shuffled);
  run_trials("huffman-deep-book", stream,
             [](std::span<const std::byte> mutant) {
               (void)szi::huffman::decode(mutant);
             });
}

// Mutants confined to the LZSS frame's block-offset table: the parallel
// block decode trusts lzss_parse_frame's validation (monotone offsets inside
// the stream), so every table corruption must be rejected there or surface
// as a per-block CorruptArchive — never as an out-of-range read in a pool
// worker (ASan-checked in CI).
TEST(FuzzDecode, LzssBlockOffsetTableMutants) {
  szi::datagen::Rng gen(seed_of("lzss-offset-corpus"));
  std::vector<std::byte> data(5 * szi::lossless::kLzssBlock + 333);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = gen.uniform() < 0.8
                  ? std::byte{0x5A}
                  : std::byte(static_cast<std::uint8_t>(gen.next_u64()));
  const auto enc = szi::lossless::lzss_compress(data);
  // Frame header: u64 raw_size | u32 block_size | u32 nblocks | u64 offsets[].
  constexpr std::size_t kTableOff = 16;
  std::uint32_t nblocks = 0;
  std::memcpy(&nblocks, enc.data() + 12, sizeof(nblocks));
  ASSERT_EQ(nblocks, 6u);
  const std::size_t table_bytes = nblocks * sizeof(std::uint64_t);

  szi::core::ScopedDecodeAllocCap cap(kAllocCap);
  szi::datagen::Rng rng(seed_of("lzss-offset-mutants"));
  for (int trial = 0; trial < kTrials; ++trial) {
    auto mutant = enc;
    // 1-3 corruptions inside the table: byte flips or whole-u64 rewrites.
    const int edits = 1 + static_cast<int>(rng.next_u64() % 3);
    for (int e = 0; e < edits; ++e) {
      if (rng.uniform() < 0.5) {
        const std::size_t at = kTableOff + rng.next_u64() % table_bytes;
        mutant[at] ^= std::byte(static_cast<std::uint8_t>(
            1u << (rng.next_u64() % 8)));
      } else {
        const std::size_t slot = rng.next_u64() % nblocks;
        std::uint64_t v = rng.next_u64();
        if (rng.uniform() < 0.5) v %= (enc.size() + 7);  // near-valid range
        std::memcpy(mutant.data() + kTableOff + slot * sizeof(v), &v,
                    sizeof(v));
      }
    }
    try {
      (void)szi::lossless::lzss_decompress(mutant);
    } catch (const szi::core::CorruptArchive&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << "lzss offset mutant trial " << trial
                    << ": decoder threw " << typeid(e).name() << " ("
                    << e.what() << ") instead of CorruptArchive";
      return;
    }
  }
}

// Mutants confined to the SZI2 segment directory (u32 nseg + 32-byte
// entries between the fixed header and the first segment): kinds, levels,
// counts, offsets, and sizes are all validated against their closed forms,
// so every corruption must be rejected by parse_v2_directory or surface as
// a bounds-checked CorruptArchive downstream — both the full decoder and
// the prefix-reading progressive decoder are under contract.
TEST(FuzzDecode, SegmentDirectoryMutants) {
  const auto& f = tiny_field();
  const auto archive = szi::cuszi_compress(std::span<const float>(f.data),
                                           f.dims, {szi::ErrorMode::Rel, 1e-3});
  const auto segs = szi::cuszi_archive_segments(archive);
  ASSERT_FALSE(segs.empty());
  // Fixed header: magic(4) + precision(1) + dims(24) + eb(8) + config(16).
  constexpr std::size_t kDirOff = 53;
  const std::size_t dir_end = static_cast<std::size_t>(segs[0].offset);
  ASSERT_GT(dir_end, kDirOff);
  const std::size_t dir_bytes = dir_end - kDirOff;

  szi::core::ScopedDecodeAllocCap cap(kAllocCap);
  szi::datagen::Rng rng(seed_of("szi2-directory-mutants"));
  for (int trial = 0; trial < kTrials; ++trial) {
    auto mutant = archive;
    const int edits = 1 + static_cast<int>(rng.next_u64() % 3);
    for (int e = 0; e < edits; ++e) {
      if (rng.uniform() < 0.5) {
        const std::size_t at = kDirOff + rng.next_u64() % dir_bytes;
        mutant[at] ^=
            std::byte(static_cast<std::uint8_t>(1u << (rng.next_u64() % 8)));
      } else if (dir_bytes >= sizeof(std::uint64_t)) {
        // Whole-u64 rewrite of a count/offset/size slot, half the time
        // clamped near the valid range to probe off-by-one acceptance.
        const std::size_t at =
            kDirOff + rng.next_u64() % (dir_bytes - sizeof(std::uint64_t) + 1);
        std::uint64_t v = rng.next_u64();
        if (rng.uniform() < 0.5) v %= (archive.size() + 7);
        std::memcpy(mutant.data() + at, &v, sizeof(v));
      }
    }
    try {
      if (trial % 2 == 0)
        (void)szi::cuszi_decompress_f32(mutant);
      else
        (void)szi::cuszi_decompress_progressive_f32(
            mutant, 1 + static_cast<int>(rng.next_u64() % 4));
    } catch (const szi::core::CorruptArchive&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << "directory mutant trial " << trial << ": decoder threw "
                    << typeid(e).name() << " (" << e.what()
                    << ") instead of CorruptArchive";
      return;
    }
  }
}

// Deterministic truncation coverage for the raw SZI2 layout: every prefix,
// with extra attention (full + progressive decode at every level) at each
// segment boundary +/- 1 — the exact cut points a partially transferred
// progressive archive produces.
TEST(FuzzDecode, TruncationSweepRawV2Archive) {
  const auto& f = tiny_field();
  const auto archive = szi::cuszi_compress(std::span<const float>(f.data),
                                           f.dims, {szi::ErrorMode::Rel, 1e-3});
  szi::core::ScopedDecodeAllocCap cap(kAllocCap);
  const auto try_decode = [&](std::size_t len, int level) {
    const auto prefix = std::span<const std::byte>(archive).first(len);
    try {
      if (level == 0)
        (void)szi::cuszi_decompress_f32(prefix);
      else
        (void)szi::cuszi_decompress_progressive_f32(prefix, level);
    } catch (const szi::core::CorruptArchive&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << "truncation at " << len << " (level " << level
                    << "): decoder threw " << typeid(e).name() << " ("
                    << e.what() << ") instead of CorruptArchive";
    }
  };
  for (std::size_t len = 0; len <= archive.size(); ++len) try_decode(len, 0);
  const auto segs = szi::cuszi_archive_segments(archive);
  const int nlevels = static_cast<int>(segs.size()) - 2;
  for (const auto& s : segs) {
    for (const std::size_t at :
         {s.offset, s.offset + 1, s.offset + s.size, s.offset + s.size - 1}) {
      if (at > archive.size()) continue;
      for (int level = 0; level <= nlevels + 1; ++level)
        try_decode(static_cast<std::size_t>(at), level);
    }
  }
}

// The retired layouts are rejected at the magic, whatever follows it: for
// seeded mutants of an 'SZI1'-magic archive and of a 'BBCP' framing (the
// magic restored after each mutation), every decode entry point throws
// CorruptArchive — none decodes, allocates past the cap, or throws
// anything else.
TEST(FuzzDecode, RetiredLayoutMutants) {
  const auto& f = tiny_field();
  const auto v2 = szi::cuszi_compress(std::span<const float>(f.data), f.dims,
                                      {szi::ErrorMode::Rel, 1e-3});
  auto v1 = v2;
  const std::uint32_t szi1 = 0x31495A53;  // 'SZI1'
  std::memcpy(v1.data(), &szi1, sizeof(szi1));
  szi::core::ByteWriter w;
  w.put(std::uint32_t{0x50434242});  // 'BBCP'
  w.put_blob(szi::lossless::lzss_compress(v2, szi::lossless::kLzssBlock,
                                          szi::lossless::LzssMode::Lazy));
  const auto bbcp = w.take();

  szi::core::ScopedDecodeAllocCap cap(kAllocCap);
  szi::dev::Arena arena;
  szi::dev::Workspace ws(arena);
  const szi::RoiBox box{{3, 2, 1}, {8, 8, 4}};
  for (const auto& [label, archive] :
       {std::pair{"szi1", v1}, std::pair{"bbcp", bbcp}}) {
    szi::datagen::Rng rng(seed_of(std::string("retired-") + label));
    for (int trial = 0; trial < kTrials; ++trial) {
      auto mutant = szi::testing::mutate_archive(archive, rng);
      if (mutant.size() < 4) mutant.resize(4);
      std::memcpy(mutant.data(), archive.data(), 4);
      const auto rejects = [&](const char* entry, auto&& decode) {
        try {
          decode();
          ADD_FAILURE() << label << " trial " << trial << ": " << entry
                        << " decoded a retired layout";
        } catch (const szi::core::CorruptArchive&) {
        } catch (const std::exception& e) {
          ADD_FAILURE() << label << " trial " << trial << ": " << entry
                        << " threw " << typeid(e).name() << " (" << e.what()
                        << ") instead of CorruptArchive";
        }
      };
      rejects("decompress_f32", [&] { (void)szi::cuszi_decompress_f32(mutant); });
      rejects("decompress_f64", [&] { (void)szi::cuszi_decompress_f64(mutant); });
      rejects("decompress_bitcomp_f32", [&] {
        (void)szi::cuszi_decompress_bitcomp_f32(mutant, ws);
      });
      ws.reset();
      rejects("progressive", [&] {
        (void)szi::cuszi_decompress_progressive_f32(mutant, 2);
      });
      rejects("roi", [&] { (void)szi::cuszi_decompress_roi_f32(mutant, box); });
      rejects("segments", [&] { (void)szi::cuszi_archive_segments(mutant); });
      if (::testing::Test::HasFailure()) return;
    }
  }
}

// Mutants confined to the BBC2 wrapper table (u32 magic | u32 nseg |
// 24-byte entries of u8 method | 7 reserved bytes | u64 raw_size |
// u64 size): every corruption must be rejected by bitcomp_parse_container's
// structural checks (unknown method, reserved bytes, payload fill, size
// overflow) or surface as CorruptArchive from the per-segment frame
// validators — through the unwrap path, the phased wrapped full decode,
// AND the prefix-reading preview.
TEST(FuzzDecode, WrapperTableMutants) {
  const auto& f = tiny_field();
  const auto inner = szi::cuszi_compress(std::span<const float>(f.data),
                                         f.dims, {szi::ErrorMode::Rel, 1e-3});
  const auto wrapped = szi::bitcomp_wrap_archive(inner);
  std::uint32_t nseg = 0;
  std::memcpy(&nseg, wrapped.data() + 4, sizeof(nseg));
  ASSERT_GE(nseg, 2u);
  const std::size_t table_bytes = 8 + nseg * sizeof(szi::WrapSegmentEntry);

  szi::core::ScopedDecodeAllocCap cap(kAllocCap);
  szi::dev::Arena arena;
  szi::dev::Workspace ws(arena);
  szi::datagen::Rng rng(seed_of("bbc2-table-mutants"));
  for (int trial = 0; trial < kTrials; ++trial) {
    auto mutant = wrapped;
    const int edits = 1 + static_cast<int>(rng.next_u64() % 3);
    for (int e = 0; e < edits; ++e) {
      if (rng.uniform() < 0.5) {
        const std::size_t at = rng.next_u64() % table_bytes;
        mutant[at] ^=
            std::byte(static_cast<std::uint8_t>(1u << (rng.next_u64() % 8)));
      } else {
        // Whole-u64 rewrite of a raw_size/size slot, half the time clamped
        // near the valid range to probe off-by-one acceptance.
        const std::size_t at =
            rng.next_u64() % (table_bytes - sizeof(std::uint64_t) + 1);
        std::uint64_t v = rng.next_u64();
        if (rng.uniform() < 0.5) v %= (wrapped.size() + 7);
        std::memcpy(mutant.data() + at, &v, sizeof(v));
      }
    }
    try {
      switch (trial % 3) {
        case 0:
          (void)szi::bitcomp_unwrap_archive(mutant);
          break;
        case 1:
          ws.reset();
          (void)szi::cuszi_decompress_bitcomp_f32(mutant, ws);
          break;
        default:
          (void)szi::cuszi_decompress_progressive_f32(
              mutant, 1 + static_cast<int>(rng.next_u64() % 3));
          break;
      }
    } catch (const szi::core::CorruptArchive&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << "wrapper table mutant trial " << trial
                    << ": decoder threw " << typeid(e).name() << " ("
                    << e.what() << ") instead of CorruptArchive";
      return;
    }
  }
}

// Directed method-byte corruption. Unknown method ids must be rejected
// structurally by the container parser before any payload is touched;
// swapping one valid id for another (a method/size mismatch — the payload
// was encoded under a different transform) must either be caught by the
// frame-size closed forms / untransform validators or decode to
// silently-wrong bytes, never crash.
TEST(FuzzDecode, WrapperMethodByteMutants) {
  const auto& f = tiny_field();
  const auto inner = szi::cuszi_compress(std::span<const float>(f.data),
                                         f.dims, {szi::ErrorMode::Rel, 1e-3});
  const auto wrapped = szi::bitcomp_wrap_archive(inner);
  const auto view = szi::bitcomp_parse_container(wrapped);

  szi::core::ScopedDecodeAllocCap cap(kAllocCap);
  szi::dev::Arena arena;
  szi::dev::Workspace ws(arena);
  const auto entry_method_off = [](std::size_t seg) {
    return 8 + seg * sizeof(szi::WrapSegmentEntry);
  };
  for (std::size_t seg = 0; seg < view.segments.size(); ++seg) {
    // Unknown ids: the very first invalid value, a mid-range one, and the
    // all-bits pattern must all hard-reject on every decode surface.
    for (const std::uint8_t bad_id : {std::uint8_t{3}, std::uint8_t{0x7F},
                                      std::uint8_t{0xFF}}) {
      auto mutant = wrapped;
      mutant[entry_method_off(seg)] = std::byte{bad_id};
      EXPECT_THROW((void)szi::bitcomp_unwrap_archive(mutant),
                   szi::core::CorruptArchive)
          << "segment " << seg << " id " << int(bad_id);
      ws.reset();
      EXPECT_THROW((void)szi::cuszi_decompress_bitcomp_f32(mutant, ws),
                   szi::core::CorruptArchive)
          << "segment " << seg << " id " << int(bad_id) << " (pipelined)";
      EXPECT_THROW((void)szi::cuszi_decompress_progressive_f32(mutant, 2),
                   szi::core::CorruptArchive)
          << "segment " << seg << " id " << int(bad_id) << " (progressive)";
    }
    // Valid-but-wrong ids: decode-or-CorruptArchive, all three surfaces.
    for (std::uint8_t m = 0; m < szi::lossless::kMethodCount; ++m) {
      if (m == static_cast<std::uint8_t>(view.segments[seg].method)) continue;
      auto mutant = wrapped;
      mutant[entry_method_off(seg)] = std::byte{m};
      const auto tolerant = [&](auto&& decode, const char* label) {
        try {
          decode();
        } catch (const szi::core::CorruptArchive&) {
        } catch (const std::exception& e) {
          ADD_FAILURE() << "segment " << seg << " method swap to " << int(m)
                        << " (" << label << "): decoder threw "
                        << typeid(e).name() << " (" << e.what()
                        << ") instead of CorruptArchive";
        }
      };
      tolerant([&] { (void)szi::bitcomp_unwrap_archive(mutant); }, "unwrap");
      tolerant(
          [&] {
            ws.reset();
            (void)szi::cuszi_decompress_bitcomp_f32(mutant, ws);
          },
          "pipelined");
      tolerant(
          [&] { (void)szi::cuszi_decompress_progressive_f32(mutant, 2); },
          "progressive");
    }
  }
}

// Every-prefix truncation of forced-ZeroRle and forced-Bitshuffle wrapped
// archives: cuts land inside the RLE run stream and inside bit-plane rows
// of the shuffle frame, where a lazily validated decoder would read past
// the end — both the unwrap path and the phased wrapped full decode (which
// must still decode every block of a corrupt tail) are under contract.
TEST(FuzzDecode, TruncationSweepTransformedFrames) {
  const auto& f = tiny_field();
  const auto inner = szi::cuszi_compress(std::span<const float>(f.data),
                                         f.dims, {szi::ErrorMode::Rel, 1e-3});
  szi::core::ScopedDecodeAllocCap cap(kAllocCap);
  szi::dev::Arena arena;
  szi::dev::Workspace ws(arena);
  for (const auto policy : {szi::lossless::MethodPolicy::ForceZeroRle,
                            szi::lossless::MethodPolicy::ForceBitshuffle}) {
    const auto wrapped = szi::bitcomp_wrap_archive(
        inner, szi::lossless::LzssMode::Lazy, policy);
    for (std::size_t len = 0; len <= wrapped.size(); ++len) {
      const auto prefix = std::span<const std::byte>(wrapped).first(len);
      try {
        if (len % 2 == 0) {
          (void)szi::bitcomp_unwrap_archive(prefix);
        } else {
          ws.reset();
          (void)szi::cuszi_decompress_bitcomp_f32(prefix, ws);
        }
      } catch (const szi::core::CorruptArchive&) {
      } catch (const std::exception& e) {
        ADD_FAILURE() << "transformed-frame truncation at " << len
                      << ": decoder threw " << typeid(e).name() << " ("
                      << e.what() << ") instead of CorruptArchive";
        return;
      }
    }
  }
}

// Mutants confined to the trailing TIDX segment (tile-index header + entry
// table): the ROI decoder re-derives every index field from closed forms of
// (dims, per-level chunk tables) and cross-checks all of them before
// steering any read, so every corruption must surface as CorruptArchive
// from the index validators — never any other exception. The full decoder
// never reads the index payload, so the same mutants must keep decoding
// bit-identically there.
TEST(FuzzDecode, TileIndexTableMutants) {
  const auto& f = tiny_field();
  const auto archive = szi::cuszi_compress(std::span<const float>(f.data),
                                           f.dims, {szi::ErrorMode::Rel, 1e-3});
  const auto segs = szi::cuszi_archive_segments(archive);
  ASSERT_FALSE(segs.empty());
  ASSERT_EQ(segs.back().kind, 3u);  // trailing tile index
  const auto tidx_off = static_cast<std::size_t>(segs.back().offset);
  const auto tidx_bytes = static_cast<std::size_t>(segs.back().size);
  ASSERT_GE(tidx_bytes, sizeof(std::uint64_t));
  const auto ref = szi::cuszi_decompress_f32(archive);
  const szi::RoiBox box{{3, 2, 1}, {12, 9, 6}};

  szi::core::ScopedDecodeAllocCap cap(kAllocCap);
  szi::datagen::Rng rng(seed_of("tidx-table-mutants"));
  for (int trial = 0; trial < kTrials; ++trial) {
    auto mutant = archive;
    const int edits = 1 + static_cast<int>(rng.next_u64() % 3);
    for (int e = 0; e < edits; ++e) {
      if (rng.uniform() < 0.5) {
        const std::size_t at = tidx_off + rng.next_u64() % tidx_bytes;
        mutant[at] ^=
            std::byte(static_cast<std::uint8_t>(1u << (rng.next_u64() % 8)));
      } else {
        // Whole-u64 rewrite of a rank/byte/chunk slot, half the time clamped
        // near the valid range to probe off-by-one acceptance.
        const std::size_t at =
            tidx_off +
            rng.next_u64() % (tidx_bytes - sizeof(std::uint64_t) + 1);
        std::uint64_t v = rng.next_u64();
        if (rng.uniform() < 0.5) v %= (archive.size() + 7);
        std::memcpy(mutant.data() + at, &v, sizeof(v));
      }
    }
    try {
      (void)szi::cuszi_decompress_roi_f32(mutant, box);
    } catch (const szi::core::CorruptArchive&) {
      // the structured rejection path — expected for most mutants
    } catch (const std::exception& e) {
      ADD_FAILURE() << "tidx mutant trial " << trial << ": decoder threw "
                    << typeid(e).name() << " (" << e.what()
                    << ") instead of CorruptArchive";
      return;
    }
    if (trial % 100 == 0) {
      EXPECT_EQ(szi::cuszi_decompress_f32(mutant), ref)
          << "full decode must ignore the index payload (trial " << trial
          << ")";
    }
  }
}

// Every-prefix truncation through the ROI decoder: cuts inside the
// directory, anchor rows, outlier blob, Huffman headers/payloads, and the
// trailing tile index must all surface as CorruptArchive, never any other
// exception.
TEST(FuzzDecode, TruncationSweepRoiDecode) {
  const auto& f = tiny_field();
  const auto archive = szi::cuszi_compress(std::span<const float>(f.data),
                                           f.dims, {szi::ErrorMode::Rel, 1e-3});
  const szi::RoiBox box{{3, 2, 1}, {12, 9, 6}};
  szi::core::ScopedDecodeAllocCap cap(kAllocCap);
  for (std::size_t len = 0; len <= archive.size(); ++len) {
    try {
      (void)szi::cuszi_decompress_roi_f32(
          std::span<const std::byte>(archive).first(len), box);
    } catch (const szi::core::CorruptArchive&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << "ROI truncation at " << len << ": decoder threw "
                    << typeid(e).name() << " (" << e.what()
                    << ") instead of CorruptArchive";
      return;
    }
  }
}

// Regression for the original OutlierSet::deserialize overflow: an 8-byte
// header claiming n = 0x2000000000000000 made n * (8 + 4) wrap size_t, so
// the old truncation check passed and the copy ran off the buffer. The
// checked reader must reject it structurally.
TEST(FuzzDecode, CraftedOutlierCountRejected) {
  szi::core::ByteWriter w;
  w.put(std::uint64_t{0x2000000000000000ULL});
  const auto bytes = w.take();
  try {
    (void)szi::quant::OutlierSet::deserialize(bytes, nullptr);
    FAIL() << "crafted outlier count must not deserialize";
  } catch (const szi::core::CorruptArchive& e) {
    EXPECT_EQ(e.stage(), "outlier-set");
  }

  // The same header with trailing garbage: the element count still exceeds
  // any plausible payload and must be rejected before allocation.
  szi::core::ByteWriter w2;
  w2.put(std::uint64_t{0x2000000000000000ULL});
  for (int i = 0; i < 64; ++i) w2.put(std::uint8_t{0xAB});
  EXPECT_THROW((void)szi::quant::OutlierSet::deserialize(w2.take(), nullptr),
               szi::core::CorruptArchive);
}

}  // namespace
