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
#include "core/inner_bytes.hh"
#include "core/timer.hh"
#include "device/dims.hh"
#include "device/thread_pool.hh"
#include "io/archive_source.hh"
#include "lossless/orchestrate.hh"

namespace szi {

namespace {

/// Wrapper-segment byte ranges of the inner archive: for a valid SZI2
/// archive one range per directory segment plus a leading range for the
/// header + directory; anything else (baselines, malformed) wraps as a
/// single segment. Pure function of the inner bytes.
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

InnerBytes::InnerBytes(io::ArchiveSource& src, bool wrapped,
                       dev::Workspace& ws)
    : src_(src), ws_(ws), wrapped_(wrapped) {
  if (wrapped) parse_table();
  else size_ = src.size();
}

std::pair<std::size_t, std::size_t> InnerBytes::clamp(Range r) const {
  const std::uint64_t off = std::min(r.off, size_);
  return {static_cast<std::size_t>(off),
          static_cast<std::size_t>(std::min(r.len, size_ - off))};
}

std::vector<std::span<const std::byte>> InnerBytes::fetch(
    std::span<const Range> ranges) {
  std::vector<std::span<const std::byte>> out(ranges.size());
  if (!wrapped_) {
    for (std::size_t i = 0; i < ranges.size(); ++i) {
      const auto [off, len] = clamp(ranges[i]);
      if (len > 0) out[i] = src_.view(off, len, scratch_.emplace_back());
    }
    return out;
  }
  core::Timer t;
  // Every block the ranges need that no earlier fetch decoded: a method-0
  // block straight into its inner range, a transformed segment's blocks
  // into scratch it then untransforms from. Frames parse (and all scratch
  // allocates) here, before the launch: dev::Workspace is not thread-safe.
  struct Task {
    const Seg* seg;
    std::size_t block;
    std::byte* dst;
  };
  std::vector<Task> tasks;
  std::vector<std::pair<const Seg*, std::span<std::byte>>> transformed;
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    const auto [off, len] = clamp(ranges[i]);
    out[i] = {inner_.data() + off, len};
    for (auto& s : segs_) {
      const std::size_t lo = std::max(off, s.raw_off);
      const std::size_t hi = std::min(off + len, s.raw_off + s.raw_len);
      // Empty segments inside the range are validated too.
      if (s.raw_len == 0 ? s.raw_off < off || s.raw_off > off + len
                         : lo >= hi)
        continue;
      frame(s);
      const std::size_t bs = s.frame.block_size;
      if (s.raw_len == 0) continue;
      if (s.method == lossless::Method::Lzss) {
        for (std::size_t b = (lo - s.raw_off) / bs;
             b < dev::ceil_div(hi - s.raw_off, bs); ++b)
          if (!s.have[b]) {
            s.have[b] = 1;
            tasks.push_back({&s, b, inner_.data() + s.raw_off + b * bs});
          }
      } else if (!s.whole) {
        s.whole = true;
        const auto tmp = ws_.make<std::byte>(s.frame.raw_size);
        for (std::size_t b = 0; b < s.frame.nblocks; ++b)
          tasks.push_back({&s, b, tmp.data() + b * bs});
        transformed.emplace_back(&s, tmp);
      }
    }
  }
  dev::ThreadPool::instance().parallel_for(
      tasks.size(),
      [&](std::size_t k) {
        thread_local std::vector<std::byte> scratch;
        const Task& task = tasks[k];
        const auto& fr = task.seg->frame;
        const auto [begin, end] = lossless::lzss_block_extent(fr, task.block);
        const std::size_t len =
            std::min(fr.block_size, fr.raw_size - task.block * fr.block_size);
        lossless::lzss_decompress_block_bytes(
            fr, task.block,
            src_.view(task.seg->file_off + begin, end - begin, scratch),
            {task.dst, len});
      },
      1);
  for (const auto& [s, tmp] : transformed)
    lossless::method_untransform(tmp, s->method,
                                 inner_.subspan(s->raw_off, s->raw_len));
  unwrap_s_ += t.lap();
  return out;
}

/// The 'BBC2' table, validated as bitcomp_parse_container validates it
/// except that (prefix mode) the payload region may be truncated.
void InnerBytes::parse_table() {
  const auto fail = [](std::size_t off, const char* what) {
    throw core::CorruptArchive("bitcomp-wrapper", off, what);
  };
  const std::size_t fsize = src_.size();
  constexpr std::size_t kHead = 2 * sizeof(std::uint32_t);
  if (fsize < kHead) fail(0, "container truncated");
  std::uint32_t head[2];
  std::memcpy(head, src_.view(0, kHead, scratch_.emplace_back()).data(),
              kHead);
  if (head[0] != kBitcompWrapMagicV2) fail(0, "bad magic");
  const std::uint32_t nseg = head[1];
  if (nseg == 0) fail(kHead, "empty segment table");
  if (nseg > (fsize - kHead) / sizeof(WrapSegmentEntry))
    fail(kHead, "segment table exceeds container");
  const auto tbl = src_.view(kHead, nseg * sizeof(WrapSegmentEntry),
                             scratch_.emplace_back());
  std::uint64_t file_off = kHead + nseg * sizeof(WrapSegmentEntry);
  std::uint64_t raw_off = 0;
  segs_.resize(nseg);
  for (std::uint32_t i = 0; i < nseg; ++i) {
    WrapSegmentEntry e;
    std::memcpy(&e, tbl.data() + i * sizeof(e), sizeof(e));
    if (e.method >= lossless::kMethodCount)
      fail(kHead, "unknown lossless method id");
    if (e.reserved0 != 0 || e.reserved1 != 0 || e.reserved2 != 0)
      fail(kHead, "reserved wrapper field set");
    auto& s = segs_[i];
    s.method = static_cast<lossless::Method>(e.method);
    s.file_off = static_cast<std::size_t>(file_off);
    s.file_len = static_cast<std::size_t>(e.size);
    s.raw_off = static_cast<std::size_t>(raw_off);
    s.raw_len = static_cast<std::size_t>(e.raw_size);
    if (__builtin_add_overflow(file_off, e.size, &file_off) ||
        __builtin_add_overflow(raw_off, e.raw_size, &raw_off))
      fail(kHead, "segment sizes overflow");
  }
  // Exact fill, or (prefix mode) a truncated payload region; bytes past the
  // table's total are garbage either way.
  if (file_off < fsize) fail(kHead, "segment payloads do not fill container");
  core::guard_decode_alloc("bitcomp-wrapper", kHead,
                           static_cast<std::size_t>(raw_off));
  size_ = raw_off;
  inner_ = ws_.make<std::byte>(static_cast<std::size_t>(size_));
}

/// Parses a segment's LZSS frame header (fixed fields, then the block
/// offset table) and cross-checks it against its table entry.
void InnerBytes::frame(Seg& s) {
  if (s.framed) return;
  if (s.file_off > src_.size() || s.file_len > src_.size() - s.file_off)
    throw core::CorruptArchive("bitcomp-wrapper", s.file_off,
                               "container truncated inside a segment the "
                               "decode needs");
  constexpr std::size_t kFixed = 16;  // u64 raw | u32 block | u32 nblocks
  const auto fixed = src_.view(s.file_off, std::min(kFixed, s.file_len),
                               scratch_.emplace_back());
  std::vector<std::byte> head(fixed.begin(), fixed.end());
  std::uint32_t nblocks = 0;
  if (head.size() == kFixed)
    std::memcpy(&nblocks, head.data() + 12, sizeof(nblocks));
  const std::size_t table =
      std::min<std::size_t>(std::size_t{nblocks} * sizeof(std::uint64_t),
                            s.file_len - head.size());
  if (table > 0) {
    const auto offs =
        src_.view(s.file_off + kFixed, table, scratch_.emplace_back());
    head.insert(head.end(), offs.begin(), offs.end());
  }
  s.frame = lossless::lzss_parse_frame_header(head, s.file_len, ws_);
  bitcomp_check_frame(s.method, s.raw_len, s.frame, s.file_off);
  s.have.assign(s.frame.nblocks, 0);
  s.framed = true;
}

std::span<const std::byte> bitcomp_unwrap_archive(
    std::span<const std::byte> bytes, dev::Workspace& ws) {
  io::MemorySource src(bytes);
  InnerBytes inner(src, /*wrapped=*/true, ws);
  return inner.fetch(0, inner.size());
}

std::vector<std::byte> bitcomp_unwrap_archive(
    std::span<const std::byte> bytes) {
  dev::Workspace ws(dev::Arena::instance());
  const auto raw = bitcomp_unwrap_archive(bytes, ws);
  return {raw.begin(), raw.end()};
}

WrapContainerView bitcomp_parse_container(std::span<const std::byte> bytes) {
  core::ByteReader rd(bytes, "bitcomp-wrapper");
  const auto magic = rd.read<std::uint32_t>();
  if (magic != kBitcompWrapMagicV2) rd.fail("bad magic");

  WrapContainerView view;
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
  if (payload_total != rd.remaining())
    rd.fail("segment payloads do not fill container");
  rd.guard_alloc(static_cast<std::size_t>(raw_total));

  view.segments.reserve(nseg);
  view.payloads.reserve(nseg);
  for (const auto& e : entries) {
    view.segments.push_back(
        {static_cast<lossless::Method>(e.method), e.raw_size, e.size});
    view.payloads.push_back(rd.read_bytes(static_cast<std::size_t>(e.size)));
  }
  return view;
}

void bitcomp_check_frame(lossless::Method method, std::uint64_t raw_size,
                         const lossless::LzssFrame& frame, std::size_t offset) {
  if (method == lossless::Method::Lzss && frame.raw_size != raw_size)
    throw core::CorruptArchive("bitcomp-wrapper", offset,
                               "segment frame size mismatch");
  if (method == lossless::Method::Bitshuffle &&
      frame.raw_size !=
          lossless::bitshuffle_frame_size(static_cast<std::size_t>(raw_size)))
    throw core::CorruptArchive("bitcomp-wrapper", offset,
                               "bitshuffle payload size does not match "
                               "segment");
}

// Default implementations of the optional virtuals.

std::vector<float> Compressor::decompress_stages(
    std::span<const std::byte> bytes, DecodeTimings& t) {
  core::Timer wall;
  auto out = decompress(bytes, nullptr);
  t.total = wall.lap();
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

  // The wrap runs after the inner compress; wrap time folds into
  // encode/total.
  [[nodiscard]] CompressResult compress(const Field& field,
                                        const CompressParams& p) override {
    CompressResult r = inner_->compress(field, p);
    core::Timer t;
    r.bytes = bitcomp_wrap_archive(r.bytes);
    const double wrap_s = t.lap();
    r.timings.encode += wrap_s;
    r.timings.total += wrap_s;
    return r;
  }

  // The unwrap lands in workspace memory the inner decode reads in place;
  // `decode_seconds` covers unwrap + inner decode.
  [[nodiscard]] std::vector<float> decompress(std::span<const std::byte> bytes,
                                              double* decode_seconds) override {
    core::Timer t;
    dev::Workspace ws(dev::Arena::instance());
    const auto inner_bytes = bitcomp_unwrap_archive(bytes, ws);
    const double unwrap_s = t.lap();
    double inner_s = 0;
    auto out = inner_->decompress(inner_bytes, &inner_s);
    if (decode_seconds) *decode_seconds = unwrap_s + inner_s;
    return out;
  }

  // The inner breakdown plus the unwrap, which is added to its `total`.
  [[nodiscard]] std::vector<float> decompress_stages(
      std::span<const std::byte> bytes, DecodeTimings& t) override {
    core::Timer wall;
    dev::Workspace ws(dev::Arena::instance());
    const auto inner_bytes = bitcomp_unwrap_archive(bytes, ws);
    const double unwrap_s = wall.lap();
    auto out = inner_->decompress_stages(inner_bytes, t);
    t.unwrap = unwrap_s;
    t.total += unwrap_s;
    return out;
  }

  // Progressive decode dispatches on the archive magic inside the inner
  // compressor, so the wrapped ('BBC2') bytes forward unchanged.
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
