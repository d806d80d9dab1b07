// with_bitcomp(): decorates any Compressor with the §VI-B de-redundancy pass
// over its whole archive. TABLE III's right half applies this wrapper to
// every compressor for fairness; cuSZ-i gains the most because G-Interp
// leaves the most pattern redundancy in its Huffman stream.
#include <algorithm>
#include <cstring>
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

/// 'BBC2' head: u32 magic | u32 nseg. The segment table follows it.
constexpr std::size_t kWrapHead = 2 * sizeof(std::uint32_t);

/// A validated 'BBC2' segment table.
struct WrapTable {
  std::vector<WrapSegmentEntry> entries;
  std::size_t table_bytes = 0;    ///< head + table: first payload offset
  std::uint64_t payload_end = 0;  ///< where the entries' payloads end
};

/// The format rules of a 'BBC2' head and table, which the container parse
/// and the decoder's fetch share: the magic, a non-empty table that fits in
/// the `size`-byte container, known method ids, zero reserved fields, sizes
/// whose sums do not overflow, and an inner archive the decode may
/// allocate. `head` holds the container's first bytes; `view_table(len)`
/// returns the table's `len` bytes, which start at kWrapHead. How the
/// payloads fill the container is each caller's rule.
template <typename ViewTable>
WrapTable check_wrap_table(std::span<const std::byte> head, std::size_t size,
                           ViewTable&& view_table) {
  const auto fail = [](std::size_t off, const char* what) {
    throw core::CorruptArchive("bitcomp-wrapper", off, what);
  };
  if (head.size() < kWrapHead) fail(0, "container truncated");
  std::uint32_t magic = 0, nseg = 0;
  std::memcpy(&magic, head.data(), sizeof(magic));
  std::memcpy(&nseg, head.data() + sizeof(magic), sizeof(nseg));
  if (magic != kBitcompWrapMagicV2) fail(0, "bad magic");
  if (nseg == 0) fail(kWrapHead, "empty segment table");
  if (nseg > (size - kWrapHead) / sizeof(WrapSegmentEntry))
    fail(kWrapHead, "segment table exceeds container");
  WrapTable t;
  t.entries.resize(nseg);
  t.table_bytes = kWrapHead + nseg * sizeof(WrapSegmentEntry);
  std::memcpy(t.entries.data(),
              view_table(nseg * sizeof(WrapSegmentEntry)).data(),
              nseg * sizeof(WrapSegmentEntry));
  t.payload_end = t.table_bytes;
  std::uint64_t raw_size = 0;
  for (const auto& e : t.entries) {
    if (e.method >= lossless::kMethodCount)
      fail(kWrapHead, "unknown lossless method id");
    if (e.reserved0 != 0 || e.reserved1 != 0 || e.reserved2 != 0)
      fail(kWrapHead, "reserved wrapper field set");
    if (__builtin_add_overflow(t.payload_end, e.size, &t.payload_end) ||
        __builtin_add_overflow(raw_size, e.raw_size, &raw_size))
      fail(kWrapHead, "segment sizes overflow");
  }
  core::guard_decode_alloc("bitcomp-wrapper", kWrapHead,
                           static_cast<std::size_t>(raw_size));
  return t;
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
  std::size_t total = kWrapHead + nseg * sizeof(WrapSegmentEntry);
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
  op += kWrapHead;
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

InnerBytes::InnerBytes(io::ArchiveSource& src, dev::Workspace& ws)
    : src_(src), ws_(ws), head_len_(std::min(src.size(), head_.size())) {
  std::vector<std::byte> scratch;
  if (head_len_ > 0)
    std::memcpy(head_.data(), src.view(0, head_len_, scratch).data(),
                head_len_);
  std::uint32_t magic = 0;
  if (head_len_ >= sizeof(magic))
    std::memcpy(&magic, head_.data(), sizeof(magic));
  wrapped_ = magic == kBitcompWrapMagicV2;
  if (wrapped_) parse_table();
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
      if (len == 0) continue;
      if (off >= head_len_) {
        out[i] = src_.view(off, len, scratch_.emplace_back());
        continue;
      }
      // Overlaps the kept head: copy it and view only the rest.
      auto& buf = scratch_.emplace_back(
          head_.begin() + off, head_.begin() + std::min(off + len, head_len_));
      if (off + len > head_len_) {
        const auto rest = src_.view(head_len_, off + len - head_len_,
                                    scratch_.emplace_back());
        buf.insert(buf.end(), rest.begin(), rest.end());
      }
      out[i] = buf;
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

/// The 'BBC2' table in prefix mode: the payload region may be truncated,
/// but bytes past the payloads' end are garbage.
void InnerBytes::parse_table() {
  const std::size_t fsize = src_.size();
  const auto t = check_wrap_table(
      {head_.data(), head_len_}, fsize, [&](std::size_t len) {
        return src_.view(kWrapHead, len, scratch_.emplace_back());
      });
  if (t.payload_end < fsize)
    throw core::CorruptArchive("bitcomp-wrapper", kWrapHead,
                               "segment payloads do not fill container");
  std::uint64_t file_off = t.table_bytes;
  std::uint64_t raw_off = 0;
  segs_.resize(t.entries.size());
  for (std::size_t i = 0; i < segs_.size(); ++i) {
    const auto& e = t.entries[i];
    auto& s = segs_[i];
    s.method = static_cast<lossless::Method>(e.method);
    s.file_off = static_cast<std::size_t>(file_off);
    s.file_len = static_cast<std::size_t>(e.size);
    s.raw_off = static_cast<std::size_t>(raw_off);
    s.raw_len = static_cast<std::size_t>(e.raw_size);
    file_off += e.size;
    raw_off += e.raw_size;
  }
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
  std::vector<std::byte> head;
  for (std::size_t need;
       (need = lossless::lzss_frame_header_bytes(head, s.file_len)) >
       head.size();) {
    const auto more = src_.view(s.file_off + head.size(), need - head.size(),
                                scratch_.emplace_back());
    head.insert(head.end(), more.begin(), more.end());
  }
  s.frame = lossless::lzss_parse_frame_header(head, s.file_len, ws_);
  bitcomp_check_frame(s.method, s.raw_len, s.frame, s.file_off);
  s.have.assign(s.frame.nblocks, 0);
  s.framed = true;
}

std::span<const std::byte> bitcomp_unwrap_archive(
    std::span<const std::byte> bytes, dev::Workspace& ws) {
  io::MemorySource src(bytes);
  InnerBytes inner(src, ws);
  if (!inner.wrapped())
    throw core::CorruptArchive("bitcomp-wrapper", 0, "bad magic");
  return inner.fetch(0, inner.size());
}

std::vector<std::byte> bitcomp_unwrap_archive(
    std::span<const std::byte> bytes) {
  dev::Workspace ws(dev::Arena::instance());
  const auto raw = bitcomp_unwrap_archive(bytes, ws);
  return {raw.begin(), raw.end()};
}

WrapContainerView bitcomp_parse_container(std::span<const std::byte> bytes) {
  const auto t = check_wrap_table(
      bytes.first(std::min(bytes.size(), kWrapHead)), bytes.size(),
      [&](std::size_t len) { return bytes.subspan(kWrapHead, len); });
  if (t.payload_end != bytes.size())
    throw core::CorruptArchive("bitcomp-wrapper", t.table_bytes,
                               "segment payloads do not fill container");
  WrapContainerView view;
  view.table_bytes = t.table_bytes;
  std::size_t off = t.table_bytes;
  for (const auto& e : t.entries) {
    const auto size = static_cast<std::size_t>(e.size);
    view.segments.push_back(
        {static_cast<lossless::Method>(e.method), e.raw_size, e.size});
    view.payloads.push_back(bytes.subspan(off, size));
    off += size;
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

namespace {

class BitcompWrapped final : public Compressor {
 public:
  explicit BitcompWrapped(std::unique_ptr<Compressor> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] std::string name() const override {
    return inner_->name() + " w/ Bitcomp";
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

  // The unwrap lands in workspace memory the inner decode reads in place.
  [[nodiscard]] std::vector<float> decompress(
      std::span<const std::byte> bytes) override {
    dev::Workspace ws(dev::Arena::instance());
    return inner_->decompress(bitcomp_unwrap_archive(bytes, ws));
  }

 private:
  std::unique_ptr<Compressor> inner_;
};

}  // namespace

std::unique_ptr<Compressor> with_bitcomp(std::unique_ptr<Compressor> inner) {
  return std::make_unique<BitcompWrapped>(std::move(inner));
}

}  // namespace szi
