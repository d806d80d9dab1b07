// with_bitcomp(): decorates any Compressor with the §VI-B de-redundancy pass
// over its whole archive. TABLE III's right half applies this wrapper to
// every compressor for fairness; cuSZ-i gains the most because G-Interp
// leaves the most pattern redundancy in its Huffman stream.
#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "core/bytes.hh"
#include "core/compressor_iface.hh"
#include "core/cuszi.hh"
#include "core/timer.hh"
#include "device/dims.hh"
#include "device/thread_pool.hh"
#include "lossless/bitcomp.hh"
#include "lossless/orchestrate.hh"

namespace szi {

namespace {

/// Wrapper-segment byte ranges of the inner archive: for a valid SZI2
/// archive one range per directory segment plus a leading range for the
/// header + directory; anything else (SZI1, baselines, malformed) wraps as
/// a single segment. Pure function of the inner bytes.
std::vector<std::pair<std::size_t, std::size_t>> wrap_partition(
    std::span<const std::byte> bytes) {
  std::vector<std::pair<std::size_t, std::size_t>> parts;
  std::uint32_t magic = 0;
  if (bytes.size() >= sizeof(magic))
    std::memcpy(&magic, bytes.data(), sizeof(magic));
  if (magic == 0x32495A53) {  // 'SZI2'
    try {
      const auto segs = cuszi_archive_segments(bytes);
      if (!segs.empty()) {
        parts.emplace_back(0, segs.front().offset);
        for (const auto& s : segs) parts.emplace_back(s.offset, s.size);
      }
    } catch (const core::CorruptArchive&) {
      parts.clear();
    }
  }
  if (parts.empty()) parts.emplace_back(0, bytes.size());
  return parts;
}

}  // namespace

std::vector<std::byte> bitcomp_wrap_archive(std::span<const std::byte> bytes) {
  return bitcomp_wrap_archive(bytes, lossless::LzssMode::Lazy);
}

std::vector<std::byte> bitcomp_wrap_archive(
    std::span<const std::byte> bytes, lossless::LzssMode mode,
    lossless::MethodPolicy policy,
    std::vector<lossless::ChoiceAudit>* audits) {
  dev::Workspace ws(dev::Arena::instance());
  return bitcomp_wrap_archive(bytes, mode, policy, audits, ws);
}

std::vector<std::byte> bitcomp_wrap_archive(
    std::span<const std::byte> bytes, lossless::LzssMode mode,
    lossless::MethodPolicy policy, std::vector<lossless::ChoiceAudit>* audits,
    dev::Workspace& ws) {
  const auto parts = wrap_partition(bytes);
  const std::size_t nseg = parts.size();
  if (audits) audits->assign(nseg, {});
  constexpr std::size_t bs = lossless::kLzssBlock;
  constexpr std::size_t stride = bs + lossless::kLzssTokenSlack;

  // Choose and transform every segment first, serially: dev::Workspace is
  // not thread-safe, so the launch below only touches memory handed out
  // here. The chooser is a pure function of (bytes, mode), and each block's
  // encoding depends only on its bytes and the mode, so the container is the
  // same however the blocks are scheduled.
  std::vector<WrapSegmentEntry> entries(nseg);
  std::vector<std::span<const std::byte>> src(nseg);
  std::vector<std::size_t> first_block(nseg + 1, 0);
  for (std::size_t i = 0; i < nseg; ++i) {
    const auto seg = bytes.subspan(parts[i].first, parts[i].second);
    const auto m = lossless::resolve_method(policy, seg, mode, ws,
                                            audits ? &(*audits)[i] : nullptr);
    src[i] = lossless::method_transform(seg, m, ws);
    entries[i].method = static_cast<std::uint8_t>(m);
    entries[i].raw_size = seg.size();
    first_block[i + 1] = first_block[i] + dev::ceil_div(src[i].size(), bs);
  }

  // Every block of every segment LZSS-encodes in one pool-wide launch.
  const std::size_t nblocks = first_block.back();
  auto slices = ws.make<std::byte>(nblocks * stride);
  auto enc = ws.make<std::uint64_t>(nblocks);
  dev::ThreadPool::instance().parallel_for(
      nblocks,
      [&](std::size_t g) {
        // Last segment starting at or before g (empty segments share their
        // successor's start and are skipped by upper_bound).
        const std::size_t i = static_cast<std::size_t>(
            std::upper_bound(first_block.begin(), first_block.end(), g) -
            first_block.begin() - 1);
        const std::size_t begin = (g - first_block[i]) * bs;
        const std::size_t len = std::min(bs, src[i].size() - begin);
        enc[g] = lossless::lzss_compress_block(src[i].subspan(begin, len),
                                               slices.subspan(g * stride, stride),
                                               dev::Arena::instance(), mode);
      },
      1);

  // 'BBC2' magic | u32 nseg | segment table | per-segment LZSS streams.
  std::size_t total =
      2 * sizeof(std::uint32_t) + nseg * sizeof(WrapSegmentEntry);
  for (std::size_t i = 0; i < nseg; ++i) {
    entries[i].size = lossless::lzss_stream_size(
        src[i].size(), bs,
        enc.subspan(first_block[i], first_block[i + 1] - first_block[i]));
    total += static_cast<std::size_t>(entries[i].size);
  }
  std::vector<std::byte> out(total);
  std::byte* op = out.data();
  const auto nseg32 = static_cast<std::uint32_t>(nseg);
  std::memcpy(op, &kBitcompWrapMagicV2, sizeof(kBitcompWrapMagicV2));
  std::memcpy(op + sizeof(kBitcompWrapMagicV2), &nseg32, sizeof(nseg32));
  op += 2 * sizeof(std::uint32_t);
  std::memcpy(op, entries.data(), nseg * sizeof(WrapSegmentEntry));
  op += nseg * sizeof(WrapSegmentEntry);
  for (std::size_t i = 0; i < nseg; ++i) {
    const std::size_t b0 = first_block[i];
    const std::size_t nb = first_block[i + 1] - b0;
    const auto size = static_cast<std::size_t>(entries[i].size);
    lossless::lzss_assemble(src[i], bs, slices.subspan(b0 * stride, nb * stride),
                            stride, enc.subspan(b0, nb), {op, size});
    op += size;
  }
  return out;
}

std::vector<std::byte> bitcomp_unwrap_archive(
    std::span<const std::byte> bytes) {
  const auto view = bitcomp_parse_container(bytes);
  if (view.legacy) return lossless::bitcomp_decompress(view.payloads[0]);

  std::size_t raw_total = 0;
  for (const auto& s : view.segments)
    raw_total += static_cast<std::size_t>(s.raw_size);
  std::vector<std::byte> out(raw_total);
  std::size_t off = 0;
  for (std::size_t i = 0; i < view.segments.size(); ++i) {
    const auto& s = view.segments[i];
    const auto dec = lossless::lzss_decompress(view.payloads[i]);
    lossless::method_untransform(
        dec, s.method,
        {out.data() + off, static_cast<std::size_t>(s.raw_size)});
    off += static_cast<std::size_t>(s.raw_size);
  }
  return out;
}

WrapContainerView bitcomp_parse_container(std::span<const std::byte> bytes,
                                          bool prefix_ok) {
  core::ByteReader rd(bytes, "bitcomp-wrapper");
  const auto magic = rd.read<std::uint32_t>();
  WrapContainerView view;
  if (magic == kBitcompWrapMagic) {
    view.legacy = true;
    const auto stream = rd.read_length_prefixed();
    view.table_bytes = sizeof(std::uint32_t) + sizeof(std::uint64_t);
    view.segments.push_back(
        {lossless::Method::Lzss, 0, static_cast<std::uint64_t>(stream.size())});
    view.payloads.push_back(stream);
    return view;
  }
  if (magic != kBitcompWrapMagicV2) rd.fail("bad magic");

  const auto nseg = rd.read<std::uint32_t>();
  if (nseg == 0) rd.fail("empty segment table");
  const auto entries = rd.read_array<WrapSegmentEntry>(nseg);
  view.table_bytes = rd.offset();

  std::uint64_t payload_total = 0;
  std::uint64_t raw_total = 0;
  for (const auto& e : entries) {
    if (e.method >= lossless::kMethodCount)
      rd.fail("unknown lossless method id");
    if (e.reserved0 != 0 || e.reserved1 != 0 || e.reserved2 != 0)
      rd.fail("reserved wrapper field set");
    if (__builtin_add_overflow(payload_total, e.size, &payload_total) ||
        __builtin_add_overflow(raw_total, e.raw_size, &raw_total))
      rd.fail("segment sizes overflow");
  }
  // Exact fill is the invariant; prefix mode relaxes only the truncated
  // direction (bytes *beyond* the table's total are still garbage).
  if (payload_total != rd.remaining() &&
      (!prefix_ok || payload_total < rd.remaining()))
    rd.fail("segment payloads do not fill container");
  rd.guard_alloc(static_cast<std::size_t>(raw_total));

  view.segments.reserve(nseg);
  view.payloads.reserve(nseg);
  for (const auto& e : entries) {
    view.segments.push_back(
        {static_cast<lossless::Method>(e.method), e.raw_size, e.size});
    const auto want = static_cast<std::size_t>(e.size);
    view.payloads.push_back(
        rd.read_bytes(prefix_ok ? std::min(want, rd.remaining()) : want));
  }
  return view;
}

std::span<const std::byte> bitcomp_wrapped_stream(
    std::span<const std::byte> bytes) {
  core::ByteReader rd(bytes, "bitcomp-wrapper");
  rd.expect_magic(kBitcompWrapMagic);
  return rd.read_length_prefixed();
}

// Default (unfused) implementations of the bitcomp/workspace virtuals:
// compose the plain entry points. Overrides (cuSZ-i) pipeline the stages
// but must keep the bytes identical to these compositions.

std::vector<float> Compressor::decompress(std::span<const std::byte> bytes,
                                          double* decode_seconds,
                                          dev::Workspace& /*ws*/) {
  return decompress(bytes, decode_seconds);
}

std::vector<CheckedCompressResult> Compressor::compress_batch_checked(
    std::span<const Field> fields, const CompressParams& p) {
  std::vector<CheckedCompressResult> out(fields.size());
  for (std::size_t i = 0; i < fields.size(); ++i) {
    try {
      out[i].result = compress(fields[i], p);
    } catch (...) {
      out[i].error = std::current_exception();
    }
  }
  return out;
}

CompressResult Compressor::compress_bitcomp(const Field& field,
                                            const CompressParams& p) {
  CompressResult r = compress(field, p);
  core::Timer t;
  r.bytes = bitcomp_wrap_archive(r.bytes);
  const double extra = t.lap();
  r.timings.encode += extra;
  r.timings.total += extra;
  return r;
}

std::vector<float> Compressor::decompress_bitcomp(
    std::span<const std::byte> bytes, double* decode_seconds) {
  core::Timer t;
  const auto inner_bytes = bitcomp_unwrap_archive(bytes);
  const double unwrap = t.lap();
  double inner_time = 0;
  auto out = decompress(inner_bytes, &inner_time);
  if (decode_seconds) *decode_seconds = unwrap + inner_time;
  return out;
}

std::vector<float> Compressor::decompress_stages(
    std::span<const std::byte> bytes, DecodeTimings& t) {
  core::Timer wall;
  auto out = decompress(bytes, nullptr);
  t.total = wall.lap();
  return out;
}

std::vector<float> Compressor::decompress_bitcomp_stages(
    std::span<const std::byte> bytes, DecodeTimings& t) {
  core::Timer wall;
  const auto inner_bytes = bitcomp_unwrap_archive(bytes);
  t.unwrap = wall.lap();
  auto out = decompress_stages(inner_bytes, t);
  t.total += t.unwrap;
  return out;
}

ProgressiveResult Compressor::decompress_progressive(
    std::span<const std::byte> /*bytes*/, int /*max_level*/) {
  throw std::invalid_argument(name() + ": progressive decode not supported");
}

RoiResult Compressor::decompress_roi(std::span<const std::byte> /*bytes*/,
                                     const RoiBox& /*box*/) {
  throw std::invalid_argument(name() + ": ROI decode not supported");
}

namespace {

class BitcompWrapped final : public Compressor {
 public:
  explicit BitcompWrapped(std::unique_ptr<Compressor> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] std::string name() const override {
    return inner_->name() + " w/ Bitcomp";
  }
  [[nodiscard]] bool supports_error_bound() const override {
    return inner_->supports_error_bound();
  }
  [[nodiscard]] bool supports_fixed_rate() const override {
    return inner_->supports_fixed_rate();
  }

  // Delegates to the inner compressor's (possibly fused/pipelined)
  // bitcomp entry points; the default implementations reproduce the old
  // wrap-after / unwrap-before behaviour byte-for-byte.
  [[nodiscard]] CompressResult compress(const Field& field,
                                        const CompressParams& p) override {
    return inner_->compress_bitcomp(field, p);
  }

  [[nodiscard]] std::vector<float> decompress(std::span<const std::byte> bytes,
                                              double* decode_seconds) override {
    return inner_->decompress_bitcomp(bytes, decode_seconds);
  }

  [[nodiscard]] std::vector<float> decompress_stages(
      std::span<const std::byte> bytes, DecodeTimings& t) override {
    return inner_->decompress_bitcomp_stages(bytes, t);
  }

  // Progressive decode dispatches on the archive magic inside the inner
  // compressor, so the wrapped ('BBCP') bytes forward unchanged.
  [[nodiscard]] ProgressiveResult decompress_progressive(
      std::span<const std::byte> bytes, int max_level) override {
    return inner_->decompress_progressive(bytes, max_level);
  }

  // ROI decode likewise dispatches on the archive magic inside the inner
  // compressor ('BBC2' wrappers are read block-selectively there).
  [[nodiscard]] RoiResult decompress_roi(std::span<const std::byte> bytes,
                                         const RoiBox& box) override {
    return inner_->decompress_roi(bytes, box);
  }

 private:
  std::unique_ptr<Compressor> inner_;
};

}  // namespace

std::unique_ptr<Compressor> with_bitcomp(std::unique_ptr<Compressor> inner) {
  return std::make_unique<BitcompWrapped>(std::move(inner));
}

}  // namespace szi
