// Huffman codec tests: codebook properties, chunked round-trips, histogram
// equivalence (§VI-A).
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <vector>

#include "core/bytes.hh"
#include "datagen/rng.hh"
#include "device/arena.hh"
#include "device/thread_pool.hh"
#include "huffman/codebook.hh"
#include "huffman/histogram.hh"
#include "huffman/huffman.hh"
#include "reference_pipeline.hh"

namespace {

using szi::huffman::Codebook;
using szi::huffman::DecodeTable;
using szi::quant::Code;

std::vector<Code> geometric_codes(std::size_t n, double p, std::size_t nbins,
                                  std::uint64_t seed) {
  // Centered near nbins/2 with geometric tails — the shape of G-Interp
  // quant-code streams.
  szi::datagen::Rng rng(seed);
  std::vector<Code> codes(n);
  for (auto& c : codes) {
    int offset = 0;
    while (rng.uniform() > p && offset < static_cast<int>(nbins / 2) - 1)
      ++offset;
    const int sign = rng.uniform() < 0.5 ? -1 : 1;
    c = static_cast<Code>(static_cast<int>(nbins / 2) + sign * offset);
  }
  return codes;
}

TEST(Codebook, KraftInequalityHolds) {
  const auto codes = geometric_codes(50000, 0.4, 1024, 1);
  const auto hist = szi::huffman::histogram(codes, 1024);
  const auto book = Codebook::build(hist);
  long double kraft = 0;
  for (const auto len : book.lengths)
    if (len > 0) kraft += std::pow(2.0L, -static_cast<int>(len));
  EXPECT_LE(kraft, 1.0L + 1e-12L);
  // A full Huffman tree achieves equality.
  EXPECT_GT(kraft, 0.999L);
}

TEST(Codebook, PrefixFree) {
  const auto codes = geometric_codes(20000, 0.5, 256, 2);
  const auto hist = szi::huffman::histogram(codes, 256);
  const auto book = Codebook::build(hist);
  for (std::size_t a = 0; a < book.nbins(); ++a) {
    if (book.lengths[a] == 0) continue;
    for (std::size_t b = 0; b < book.nbins(); ++b) {
      if (a == b || book.lengths[b] == 0) continue;
      if (book.lengths[a] <= book.lengths[b]) {
        const auto prefix =
            book.codes[b] >> (book.lengths[b] - book.lengths[a]);
        EXPECT_FALSE(prefix == book.codes[a] &&
                     book.lengths[a] < book.lengths[b])
            << "code " << a << " prefixes " << b;
      }
    }
  }
}

TEST(Codebook, SingleSymbolGetsOneBit) {
  std::vector<std::uint32_t> hist(16, 0);
  hist[7] = 1000;
  const auto book = Codebook::build(hist);
  EXPECT_EQ(book.lengths[7], 1);
  for (std::size_t s = 0; s < hist.size(); ++s)
    if (s != 7) {
      EXPECT_EQ(book.lengths[s], 0);
    }
}

TEST(Codebook, SkewedDistributionStaysWithinLengthLimit) {
  // Exponentially exploding counts force deep optimal trees; the builder
  // must flatten to <= 32 bits.
  std::vector<std::uint32_t> hist(64);
  std::uint64_t c = 1;
  for (auto& h : hist) {
    h = static_cast<std::uint32_t>(std::min<std::uint64_t>(c, 0xFFFFFFFFu));
    c = c * 2 + 1;
  }
  const auto book = Codebook::build(hist);
  for (const auto len : book.lengths) EXPECT_LE(len, szi::huffman::kMaxCodeLen);
}

TEST(Codebook, ExpectedBitsNearEntropy) {
  const auto codes = geometric_codes(100000, 0.3, 1024, 3);
  const auto hist = szi::huffman::histogram(codes, 1024);
  const auto book = Codebook::build(hist);
  double entropy = 0;
  const double n = static_cast<double>(codes.size());
  for (const auto h : hist)
    if (h > 0) {
      const double p = h / n;
      entropy -= p * std::log2(p);
    }
  const double avg = book.expected_bits(hist);
  EXPECT_GE(avg + 1e-9, entropy);      // Shannon lower bound
  EXPECT_LE(avg, entropy + 1.0);       // Huffman redundancy bound
}

TEST(Histogram, TopkMatchesBaseline) {
  const auto codes = geometric_codes(123457, 0.35, 1024, 4);
  const auto a = szi::huffman::histogram(codes, 1024);
  const auto b = szi::huffman::histogram_topk(codes, 1024, 512, 16);
  EXPECT_EQ(a, b);
}

TEST(Histogram, TopkDegradesToK1) {
  const auto codes = geometric_codes(4096, 0.9, 1024, 5);
  const auto a = szi::huffman::histogram(codes, 1024);
  const auto b = szi::huffman::histogram_topk(codes, 1024, 512, 1);
  EXPECT_EQ(a, b);
}

TEST(Histogram, TopkClampsOversizedK) {
  const auto codes = geometric_codes(4096, 0.5, 1024, 6);
  const auto a = szi::huffman::histogram(codes, 1024);
  const auto b = szi::huffman::histogram_topk(codes, 1024, 512, 10000);
  EXPECT_EQ(a, b);
}

TEST(Huffman, RoundTripCentered) {
  const auto codes = geometric_codes(200001, 0.4, 1024, 7);
  const auto enc = szi::huffman::encode(codes, 1024);
  const auto dec = szi::huffman::decode(enc);
  EXPECT_EQ(codes, dec);
}

TEST(Huffman, RoundTripUniform) {
  szi::datagen::Rng rng(8);
  std::vector<Code> codes(65536);
  for (auto& c : codes) c = static_cast<Code>(rng.next_u64() % 1024);
  const auto enc = szi::huffman::encode(codes, 1024);
  EXPECT_EQ(szi::huffman::decode(enc), codes);
}

TEST(Huffman, RoundTripConstant) {
  std::vector<Code> codes(10000, 512);
  const auto enc = szi::huffman::encode(codes, 1024);
  EXPECT_EQ(szi::huffman::decode(enc), codes);
  // ~1 bit per symbol plus header.
  EXPECT_LT(enc.size(),
            10000 / 8 + szi::huffman::overhead_bytes(1024, 10000) + 16);
}

TEST(Huffman, RoundTripEmpty) {
  std::vector<Code> codes;
  const auto enc = szi::huffman::encode(codes, 1024);
  EXPECT_TRUE(szi::huffman::decode(enc).empty());
}

TEST(Huffman, RoundTripOddChunkBoundaries) {
  for (const std::size_t n : {1u, 4095u, 4096u, 4097u, 8193u}) {
    const auto codes = geometric_codes(n, 0.5, 256, 9 + n);
    const auto enc = szi::huffman::encode(codes, 256);
    EXPECT_EQ(szi::huffman::decode(enc), codes) << "n=" << n;
  }
}

TEST(Huffman, CompressesCenteredBetterThanUniform) {
  const auto centered = geometric_codes(100000, 0.6, 1024, 10);
  szi::datagen::Rng rng(11);
  std::vector<Code> uniform(100000);
  for (auto& c : uniform) c = static_cast<Code>(rng.next_u64() % 1024);
  EXPECT_LT(szi::huffman::encode(centered, 1024).size(),
            szi::huffman::encode(uniform, 1024).size() / 2);
}

TEST(PrebuiltCodebook, CoversEverySymbolAndRoundTrips) {
  const auto book = Codebook::prebuilt(1024, 512);
  for (const auto len : book.lengths) {
    EXPECT_GT(len, 0u);  // data-independent books must encode any symbol
    EXPECT_LE(len, szi::huffman::kMaxCodeLen);
  }
  // Encode a realistic centered stream with the prebuilt book and decode.
  const auto codes = geometric_codes(50000, 0.5, 1024, 21);
  const auto enc = szi::huffman::encode_with_book(codes, book);
  EXPECT_EQ(szi::huffman::decode(enc), codes);
}

TEST(PrebuiltCodebook, CostsLittleOnCenteredStreams) {
  // The §VI-A future-work tradeoff: skipping the host build costs some
  // ratio; on G-Interp-like concentrated codes it should stay small.
  const auto codes = geometric_codes(200000, 0.5, 1024, 22);
  const auto hist = szi::huffman::histogram(codes, 1024);
  const auto tuned = Codebook::build(hist);
  const auto fixed = Codebook::prebuilt(1024, 512);
  const double tuned_bits = tuned.expected_bits(hist);
  const double fixed_bits = fixed.expected_bits(hist);
  EXPECT_GE(fixed_bits, tuned_bits - 1e-9);
  EXPECT_LT(fixed_bits, tuned_bits * 1.6) << "prior should be in the ballpark";
}

TEST(FastDecode, MatchesBitSerialDecoder) {
  // The LUT path must decode exactly the same symbols as the canonical
  // bit-serial decoder, including long-tail codewords that escape the LUT.
  const auto codes = geometric_codes(100000, 0.2, 1024, 31);  // heavy tails
  const auto hist = szi::huffman::histogram(codes, 1024);
  const auto book = Codebook::build(hist);
  const auto enc = szi::huffman::encode_with_book(codes, book);
  EXPECT_EQ(szi::huffman::decode(enc), codes);

  // Direct comparison of both decoders on one raw bitstream.
  std::vector<std::uint8_t> bits;
  {
    szi::lossless::BitWriter bw(bits);
    for (std::size_t i = 0; i < 5000; ++i)
      bw.put(book.codes[codes[i]], book.lengths[codes[i]]);
    bw.align();
  }
  const auto slow_table = szi::huffman::DecodeTable::from(book);
  const auto fast_table = szi::huffman::FastDecodeTable::from(book);
  szi::lossless::BitReader slow_br(bits), fast_br(bits);
  for (std::size_t i = 0; i < 5000; ++i) {
    ASSERT_EQ(slow_table.decode(slow_br), fast_table.decode(fast_br)) << i;
    ASSERT_EQ(slow_br.position(), fast_br.position()) << i;
  }
}

TEST(Huffman, ThrowsOnTruncatedStream) {
  const auto codes = geometric_codes(10000, 0.4, 1024, 12);
  auto enc = szi::huffman::encode(codes, 1024);
  enc.resize(enc.size() / 2);
  // Either the header or the payload check must fire.
  EXPECT_THROW((void)szi::huffman::decode(enc), std::runtime_error);
}

// Worker-slot indexing under nested-launch degradation: a histogram invoked
// from inside an outer parallel_for sees g_in_launch set, so its internal
// launch runs every worker index inline on the calling thread. The slots
// are indexed by loop index (not thread id), so every private histogram
// must still land in its own slot and the totals must match the top-level
// run exactly.
TEST(Histogram, NestedLaunchMatchesTopLevel) {
  // > kHistogramMinPerWorker elements so multiple worker slots exist.
  const auto codes = geometric_codes(3 << 16, 0.35, 1024, 21);
  const auto reference = szi::huffman::histogram(codes, 1024);

  std::vector<std::vector<std::uint32_t>> nested(4);
  szi::dev::ThreadPool::instance().parallel_for(
      nested.size(),
      [&](std::size_t i) { nested[i] = szi::huffman::histogram(codes, 1024); },
      1);
  for (std::size_t i = 0; i < nested.size(); ++i)
    EXPECT_EQ(nested[i], reference) << "outer launch index " << i;
}

// The serial one-pass emitter behind the SZI2 level segments must produce
// the same bytes as the two-pass encode_with_book for every stream shape —
// including empty streams and sizes around chunk boundaries.
TEST(Huffman, SerialEmitterMatchesEncodeWithBook) {
  szi::dev::Arena arena;
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, std::size_t{1023}, std::size_t{1024},
        std::size_t{1025}, std::size_t{50000}}) {
    const auto codes = geometric_codes(n, 0.4, 1024, 7 + n);
    auto hist = szi::huffman::histogram(codes, 1024);
    if (n == 0) hist.assign(1024, 0);  // empty stream, empty histogram
    const auto book = Codebook::build(hist);

    szi::dev::Workspace ws_a(arena), ws_b(arena);
    const auto two_pass = szi::huffman::encode_with_book(
        codes, book, szi::huffman::kDefaultChunk, ws_a);
    const auto one_pass = szi::huffman::encode_with_book_serial(
        codes, book, szi::huffman::kDefaultChunk, ws_b);
    ASSERT_EQ(one_pass.size(), two_pass.size()) << "n=" << n;
    EXPECT_EQ(0,
              std::memcmp(one_pass.data(), two_pass.data(), two_pass.size()))
        << "n=" << n;

    const std::vector<std::byte> stream(one_pass.begin(), one_pass.end());
    EXPECT_EQ(szi::huffman::decode(stream), codes) << "n=" << n;
  }
}

// build_level_books is just Codebook::build per histogram — including the
// all-zero histogram, whose empty book must still frame a decodable (empty)
// stream.
TEST(Huffman, LevelBooksMatchPerHistogramBuilds) {
  std::vector<std::vector<std::uint32_t>> hists;
  hists.push_back(szi::huffman::histogram(geometric_codes(4096, 0.5, 512, 1),
                                          512));
  hists.push_back(szi::huffman::histogram(geometric_codes(100, 0.2, 512, 2),
                                          512));
  hists.emplace_back(512, 0);  // empty level

  const auto books = szi::huffman::build_level_books(hists);
  ASSERT_EQ(books.size(), hists.size());
  for (std::size_t i = 0; i < hists.size(); ++i) {
    const auto ref = Codebook::build(hists[i]);
    EXPECT_EQ(books[i].codes, ref.codes) << "book " << i;
    EXPECT_EQ(books[i].lengths, ref.lengths) << "book " << i;
  }

  szi::dev::Arena arena;
  szi::dev::Workspace ws(arena);
  const auto empty = szi::huffman::encode_with_book_serial(
      {}, books.back(), szi::huffman::kDefaultChunk, ws);
  const std::vector<std::byte> stream(empty.begin(), empty.end());
  EXPECT_TRUE(szi::huffman::decode(stream).empty());
}

// Growing a prefix of a real stream to what stream_header_bytes asks for
// reaches exactly the header decode_plan_header parses, in at most three
// steps (nbins, the fixed fields, the offset table), and no prefix ever
// asks for a payload byte.
TEST(Huffman, StreamHeaderBytesReachesTheHeader) {
  szi::dev::Arena arena;
  for (const std::size_t n : {std::size_t{0}, std::size_t{1},
                              std::size_t{4096}, std::size_t{50000}}) {
    const auto codes = geometric_codes(n, 0.4, 1024, 31 + n);
    const auto book = Codebook::build(szi::huffman::histogram(codes, 1024));
    const auto stream = szi::huffman::encode_with_book(codes, book);
    const std::span<const std::byte> s(stream);
    const std::size_t header = szi::huffman::overhead_bytes(book.nbins(), n);
    ASSERT_LE(header, s.size()) << "n=" << n;
    for (std::size_t len = 0; len <= header; ++len)
      EXPECT_LE(szi::huffman::stream_header_bytes(s.first(len), s.size()),
                header)
          << "n=" << n << " prefix " << len;

    std::uint64_t have = 0;
    int steps = 0;
    for (std::uint64_t need;
         (need = szi::huffman::stream_header_bytes(s.first(have), s.size())) >
         have;
         have = need)
      ++steps;
    EXPECT_EQ(have, header) << "n=" << n;
    EXPECT_LE(steps, 3) << "n=" << n;
    szi::dev::Workspace ws(arena);
    EXPECT_EQ(szi::huffman::decode_plan_header(s.first(have), s.size(), ws).n,
              n);
    EXPECT_THROW((void)szi::huffman::decode_plan_header(s.first(have - 1),
                                                        s.size(), ws),
                 szi::core::CorruptArchive)
        << "n=" << n;
  }
}

// A prefix declaring a huge codebook, symbol count or chunk count asks for
// at most the whole stream, without overflowing on the way.
TEST(Huffman, StreamHeaderBytesClampsHugeCounts) {
  using szi::huffman::stream_header_bytes;
  constexpr auto kMax = std::numeric_limits<std::uint64_t>::max();
  const auto header = [](std::uint32_t nbins, std::uint64_t n,
                         std::uint32_t chunk) {
    std::vector<std::byte> h(sizeof(nbins) + nbins + sizeof(n) +
                             sizeof(chunk) + sizeof(std::uint64_t));
    std::memcpy(h.data(), &nbins, sizeof(nbins));
    std::memcpy(h.data() + sizeof(nbins) + nbins, &n, sizeof(n));
    std::memcpy(h.data() + sizeof(nbins) + nbins + sizeof(n), &chunk,
                sizeof(chunk));
    return h;
  };
  const std::uint32_t huge_nbins = 0xFFFFFFFFu;
  std::vector<std::byte> nbins_only(sizeof(huge_nbins));
  std::memcpy(nbins_only.data(), &huge_nbins, sizeof(huge_nbins));
  EXPECT_EQ(stream_header_bytes(nbins_only, 1000), 1000u);
  EXPECT_EQ(stream_header_bytes(nbins_only, kMax),
            std::uint64_t{huge_nbins} + 24);

  // 2 + 24 fixed bytes; chunk counts whose offset table overflows u64.
  const auto h = header(2, kMax, 1);
  EXPECT_EQ(stream_header_bytes(h, 5000), 5000u);
  EXPECT_EQ(stream_header_bytes(h, kMax), kMax);
  EXPECT_EQ(stream_header_bytes(header(2, std::uint64_t{1} << 61, 1), kMax),
            kMax);
  // A zero chunk size declares no offset table (the parse rejects it).
  EXPECT_EQ(stream_header_bytes(header(2, kMax, 0), kMax), 26u);
  // The largest table that fits is asked for in full.
  EXPECT_EQ(stream_header_bytes(header(2, 10, 4), 26 + 3 * 8), 26u + 3 * 8);
  EXPECT_EQ(stream_header_bytes(header(2, 10, 4), 26 + 3 * 8 - 1),
            26u + 3 * 8 - 1);
}

}  // namespace
