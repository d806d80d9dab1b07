// Per-segment lossless orchestration (§VI-B de-redundancy pass): every
// forced method must round-trip byte-exactly over every dataset in both
// precisions, and the sampled chooser must agree with the forced winner on
// corpora engineered to have one.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "core/bytes.hh"
#include "core/cuszi.hh"
#include "datagen/datasets.hh"
#include "device/arena.hh"
#include "lossless/lzss.hh"
#include "lossless/orchestrate.hh"

namespace {

using szi::CompressParams;
using szi::ErrorMode;
using szi::lossless::Method;
using szi::lossless::MethodPolicy;

constexpr CompressParams kRel{ErrorMode::Rel, 1e-3};

constexpr MethodPolicy kAllPolicies[] = {
    MethodPolicy::Auto, MethodPolicy::ForceLzss, MethodPolicy::ForceZeroRle,
    MethodPolicy::ForceBitshuffle};

const char* policy_name(MethodPolicy p) {
  switch (p) {
    case MethodPolicy::Auto:
      return "auto";
    case MethodPolicy::ForceLzss:
      return "force-lzss";
    case MethodPolicy::ForceZeroRle:
      return "force-zero-rle";
    case MethodPolicy::ForceBitshuffle:
      return "force-bitshuffle";
  }
  return "?";
}

// Every forced method x every dataset x both precisions: wrap the real
// inner archive, unwrap it byte-exactly, and decode the wrapped archive
// through the phased decoder (whose fetch decodes and untransforms the
// transformed segments) to the same values as the plain inner decode.
TEST(Orchestrate, ForcedMethodsRoundTripEveryDatasetBothPrecisions) {
  szi::dev::Arena arena;
  szi::dev::Workspace ws(arena);
  for (const auto& name : szi::datagen::dataset_names()) {
    const auto f =
        szi::datagen::make_dataset(name, szi::datagen::Size::Small).front();
    const std::span<const float> d32(f.data);
    std::vector<double> v64(f.data.begin(), f.data.end());
    const std::span<const double> d64(v64);

    const auto inner32 = szi::cuszi_compress(d32, f.dims, kRel);
    const auto inner64 = szi::cuszi_compress(d64, f.dims, kRel);
    const auto ref32 = szi::cuszi_decompress_f32(inner32);
    const auto ref64 = szi::cuszi_decompress_f64(inner64);

    for (const auto policy : kAllPolicies) {
      SCOPED_TRACE(std::string(name) + " / " + policy_name(policy));
      const auto w32 = szi::bitcomp_wrap_archive(
          inner32, szi::lossless::LzssMode::Lazy, policy);
      ASSERT_EQ(szi::bitcomp_unwrap_archive(w32), inner32);
      ASSERT_EQ(szi::cuszi_decompress_bitcomp_f32(w32, ws), ref32);

      const auto w64 = szi::bitcomp_wrap_archive(
          inner64, szi::lossless::LzssMode::Lazy, policy);
      ASSERT_EQ(szi::bitcomp_unwrap_archive(w64), inner64);
      ASSERT_EQ(szi::cuszi_decompress_bitcomp_f64(w64, ws), ref64);
    }
  }
}

// The workspace form is the one unwrap: its inner archive equals the
// plain overload's for every method and LZSS mode, in both precisions, and
// stays intact in `ws` through later unwraps until the caller resets it.
TEST(Orchestrate, UnwrapWorkspaceFormMatchesPlain) {
  szi::dev::Arena arena;
  szi::dev::Workspace ws(arena);
  const auto f =
      szi::datagen::make_dataset("s3d", szi::datagen::Size::Small).front();
  std::vector<double> v64(f.data.begin(), f.data.end());
  const std::vector<std::vector<std::byte>> inners = {
      szi::cuszi_compress(std::span<const float>(f.data), f.dims, kRel),
      szi::cuszi_compress(std::span<const double>(v64), f.dims, kRel)};

  std::vector<std::vector<std::byte>> wrapped;
  std::vector<std::size_t> inner_of;
  for (const auto mode :
       {szi::lossless::LzssMode::Lazy, szi::lossless::LzssMode::Greedy})
    for (const auto policy : kAllPolicies)
      for (std::size_t k = 0; k < inners.size(); ++k) {
        wrapped.push_back(szi::bitcomp_wrap_archive(inners[k], mode, policy));
        inner_of.push_back(k);
      }

  // Every unwrap lands in the same workspace with no reset in between.
  std::vector<std::span<const std::byte>> views;
  for (const auto& w : wrapped) views.push_back(szi::bitcomp_unwrap_archive(w, ws));
  for (std::size_t i = 0; i < wrapped.size(); ++i) {
    SCOPED_TRACE(i);
    const auto& want = inners[inner_of[i]];
    EXPECT_TRUE(std::ranges::equal(views[i], want));
    EXPECT_EQ(szi::bitcomp_unwrap_archive(wrapped[i]), want);
  }
  ws.reset();
  EXPECT_EQ(arena.stats().outstanding, 0u);

  // A reset workspace serves the next unwrap from its recycled blocks.
  const auto hits = arena.stats().hits;
  EXPECT_TRUE(std::ranges::equal(szi::bitcomp_unwrap_archive(wrapped[0], ws),
                                 inners[inner_of[0]]));
  EXPECT_GT(arena.stats().hits, hits);
}

// The unwrap cross-checks each segment's decoded size against its table
// entry: a raw_size nudged either way is rejected by both overloads,
// whether the segment is plain LZSS or zero-RLE under LZSS.
TEST(Orchestrate, UnwrapRejectsFrameDisagreeingWithTable) {
  szi::dev::Arena arena;
  szi::dev::Workspace ws(arena);
  const auto f =
      szi::datagen::make_dataset("nyx", szi::datagen::Size::Small).front();
  const auto inner =
      szi::cuszi_compress(std::span<const float>(f.data), f.dims, kRel);
  constexpr std::size_t kEntries = 8;  // u32 magic | u32 nseg
  constexpr std::size_t kEntry = sizeof(szi::WrapSegmentEntry);
  constexpr std::size_t kRawSize = 8;  // entry offset of raw_size
  for (const auto policy :
       {MethodPolicy::ForceLzss, MethodPolicy::ForceZeroRle}) {
    const auto wrapped = szi::bitcomp_wrap_archive(
        inner, szi::lossless::LzssMode::Lazy, policy);
    ASSERT_EQ(szi::bitcomp_unwrap_archive(wrapped), inner);
    const std::size_t nseg = szi::bitcomp_parse_container(wrapped).segments.size();
    for (std::size_t i = 0; i < nseg; ++i) {
      const std::size_t at = kEntries + i * kEntry + kRawSize;
      std::uint64_t raw = 0;
      std::memcpy(&raw, wrapped.data() + at, sizeof(raw));
      if (raw == 0) continue;
      for (const std::uint64_t bad : {raw - 1, raw + 1}) {
        SCOPED_TRACE(std::string(policy_name(policy)) + " segment " +
                     std::to_string(i) + " raw_size " + std::to_string(bad));
        auto mutant = wrapped;
        std::memcpy(mutant.data() + at, &bad, sizeof(bad));
        EXPECT_THROW((void)szi::bitcomp_unwrap_archive(mutant),
                     szi::core::CorruptArchive);
        EXPECT_THROW((void)szi::bitcomp_unwrap_archive(mutant, ws),
                     szi::core::CorruptArchive);
        ws.reset();
      }
    }
  }
}

// Non-SZI2 payloads wrap as a single segment; tiny and odd-length buffers
// stress the bitshuffle even-prefix/tail split and the zero-RLE unit
// boundary in every method.
TEST(Orchestrate, ForcedMethodsRoundTripDegenerateSizes) {
  szi::dev::Arena arena;
  szi::dev::Workspace ws(arena);
  std::mt19937 rng(7);
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                              std::size_t{3}, std::size_t{31}, std::size_t{32},
                              std::size_t{2047}, std::size_t{2048},
                              std::size_t{2049}, std::size_t{70000}}) {
    std::vector<std::byte> buf(n);
    for (auto& b : buf) b = static_cast<std::byte>(rng() & 0x7);
    for (const auto policy : kAllPolicies) {
      SCOPED_TRACE(std::to_string(n) + " bytes / " + policy_name(policy));
      const auto wrapped = szi::bitcomp_wrap_archive(
          buf, szi::lossless::LzssMode::Lazy, policy);
      EXPECT_EQ(szi::bitcomp_unwrap_archive(wrapped), buf);
    }
  }
}

// The chooser must pick the clear winner on corpora engineered to have
// one: all-zero -> zero-RLE, incompressible noise -> plain LZSS via the
// entropy shortcut (no candidate compression spent at all).
TEST(Orchestrate, ChooserAgreesWithForcedWinnerOnAdversarialCorpora) {
  szi::dev::Arena arena;
  szi::dev::Workspace ws(arena);
  constexpr std::size_t kN = 1 << 20;

  const std::vector<std::byte> zeros(kN);
  szi::lossless::ChoiceAudit audit;
  EXPECT_EQ(szi::lossless::choose_method(zeros, szi::lossless::LzssMode::Lazy,
                                         ws, &audit),
            Method::ZeroRle);
  EXPECT_FALSE(audit.entropy_shortcut);
  ws.reset();

  std::vector<std::byte> noise(kN);
  std::mt19937_64 rng(42);
  for (std::size_t i = 0; i < kN; i += 8) {
    const std::uint64_t r = rng();
    std::memcpy(noise.data() + i, &r, 8);
  }
  EXPECT_EQ(szi::lossless::choose_method(noise, szi::lossless::LzssMode::Lazy,
                                         ws, &audit),
            Method::Lzss);
  EXPECT_TRUE(audit.entropy_shortcut);
  EXPECT_GT(audit.entropy_bits, szi::lossless::kEntropyShortcutBits);
  ws.reset();

  // An ambiguous corpus (alternating u16 pattern: LZSS, RLE-after-LZSS and
  // bitshuffle all do well) has no engineered winner — the contract is
  // weaker but still strict: auto never loses to forced-LZSS, and whatever
  // was picked round-trips byte-exactly.
  std::vector<std::byte> alt(kN);
  for (std::size_t i = 0; i < kN; ++i)
    alt[i] = static_cast<std::byte>((i & 1) ? 0xF0 : 0x0D);
  for (const auto& corpus : {zeros, noise, alt}) {
    const auto a = szi::bitcomp_wrap_archive(
        corpus, szi::lossless::LzssMode::Lazy, MethodPolicy::Auto);
    const auto l = szi::bitcomp_wrap_archive(
        corpus, szi::lossless::LzssMode::Lazy, MethodPolicy::ForceLzss);
    EXPECT_LE(a.size(), l.size());
    EXPECT_EQ(szi::bitcomp_unwrap_archive(a), corpus);
  }
}

// The chooser's decision, made on a ~1-2% sample, must match the winner of
// compressing the full segment with each method on decisive corpora (the
// acceptance bar for the sampled predictor-of-ratio).
TEST(Orchestrate, SampledChoiceMatchesFullCompressionWinner) {
  szi::dev::Arena arena;
  szi::dev::Workspace ws(arena);
  constexpr std::size_t kN = 1 << 20;

  // Zero-dominated with sparse structure: the kind of level stream RLE wins.
  std::vector<std::byte> sparse(kN);
  for (std::size_t i = 0; i < kN; i += 513)
    sparse[i] = static_cast<std::byte>(i * 31);

  const auto full_cost = [&](std::span<const std::byte> seg, Method m) {
    const auto t = szi::lossless::method_transform(seg, m, ws);
    const auto c = szi::lossless::lzss_compress(t, szi::lossless::kLzssBlock,
                                                szi::lossless::LzssMode::Lazy);
    ws.reset();
    return c.size();
  };
  Method best = Method::Lzss;
  std::size_t best_cost = full_cost(sparse, Method::Lzss);
  for (const Method m : {Method::ZeroRle, Method::Bitshuffle}) {
    const std::size_t c = full_cost(sparse, m);
    if (c < best_cost) {
      best = m;
      best_cost = c;
    }
  }
  const Method chosen = szi::lossless::choose_method(
      sparse, szi::lossless::LzssMode::Lazy, ws);
  // On this corpus RLE wins by a wide margin — sampling must find it.
  EXPECT_EQ(chosen, best);
  EXPECT_EQ(chosen, Method::ZeroRle);
}

// The BBC2 table is the audit trail: parse a fresh fused archive and check
// the directory's methods/sizes reconcile with the payloads and with the
// audits the wrap path reports.
TEST(Orchestrate, ContainerTableMatchesAudits) {
  szi::dev::Arena arena;
  szi::dev::Workspace ws(arena);
  const auto f =
      szi::datagen::make_dataset("nyx", szi::datagen::Size::Small).front();
  const std::span<const float> d(f.data);
  const auto inner = szi::cuszi_compress(d, f.dims, kRel);

  std::vector<szi::lossless::ChoiceAudit> audits;
  const auto wrapped = szi::bitcomp_wrap_archive(
      inner, szi::lossless::LzssMode::Lazy, MethodPolicy::Auto, &audits);
  const auto view = szi::bitcomp_parse_container(wrapped);
  ASSERT_EQ(view.segments.size(), audits.size());
  // One wrapper segment per inner segment plus the header+directory range.
  ASSERT_EQ(view.segments.size(), szi::cuszi_archive_segments(inner).size() + 1);

  std::uint64_t raw_total = 0;
  std::size_t payload_total = 0;
  for (std::size_t i = 0; i < view.segments.size(); ++i) {
    raw_total += view.segments[i].raw_size;
    payload_total += view.payloads[i].size();
    EXPECT_EQ(view.segments[i].size, view.payloads[i].size());
    // Auto decisions either shortcut on entropy or carry all three costs.
    const auto& a = audits[i];
    if (view.segments[i].raw_size > 0 && !a.entropy_shortcut) {
      EXPECT_GT(a.cost[0], 0u) << "segment " << i;
    }
  }
  EXPECT_EQ(raw_total, inner.size());
  EXPECT_EQ(view.table_bytes + payload_total, wrapped.size());

  // The fused pipeline must emit this exact container.
  szi::StageTimings t;
  const auto fused =
      szi::cuszi_compress_bitcomp(d, f.dims, kRel, &t, ws);
  EXPECT_EQ(fused, wrapped);
}

}  // namespace
