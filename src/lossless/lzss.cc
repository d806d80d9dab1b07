#include "lossless/lzss.hh"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "core/bytes.hh"
#include "device/launch.hh"
#include "device/simd.hh"

namespace szi::lossless {

namespace {

#if defined(__x86_64__)
/// Non-overlapping forward copy in 32-byte vector steps with an 8-byte /
/// scalar tail. Caller guarantees src + len <= dst (dist >= 32), so every
/// 32-byte chunk's source is fully behind its destination and the result is
/// byte-identical to the scalar copy.
[[gnu::target("avx2")]] void copy_match_avx2(std::uint8_t* dst,
                                             const std::uint8_t* src,
                                             std::size_t len) {
  std::size_t k = 0;
  for (; k + 32 <= len; k += 32)
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(dst + k),
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + k)));
  for (; k + 8 <= len; k += 8) std::memcpy(dst + k, src + k, 8);
  for (; k < len; ++k) dst[k] = src[k];
}
#endif

constexpr std::size_t kHashBits = 14;
constexpr std::size_t kHashSize = 1u << kHashBits;
constexpr int kMaxChainDepth = 32;

/// Chain-insertion cap inside a committed match. Inserting *every* interior
/// position of a long match (the old behaviour) made encoding a 64 KiB
/// zero-run block O(n) hash inserts for a single token; positions past the
/// first 64 almost never win a later search anyway (they would be found via
/// the run's head at nearly the same distance), so capping trades an
/// unmeasurable sliver of ratio for linear-time long-run encoding.
constexpr std::size_t kMaxChainInsert = 64;

/// Lazy probing stops once the current match is at least this long: deferring
/// a long match one byte can only shave single bytes while paying a second
/// chain walk per position. Kept small (zlib's max_lazy_match idea) because
/// on run-dominated streams almost every position matches, and probing each
/// one would double the search cost for no measurable ratio gain — short
/// matches are where a one-byte deferral actually changes the parse.
constexpr std::size_t kLazyMaxLen = 16;

/// Chain depth of the lazy probe itself. The probe only has to answer "is
/// there a *strictly longer* match one byte ahead", and the recent end of
/// the chain is where longer matches live, so a quarter of the full search
/// depth keeps nearly all of the parse improvement at a fraction of the
/// extra cost (the probe runs once per short match).
constexpr int kLazyProbeDepth = 8;

/// Skip-ahead through incompressible stretches: after `1 << kSkipTrigger`
/// consecutive literals, each further literal run emits `run >> kSkipTrigger`
/// extra un-searched literals (capped), so a random block degrades to
/// O(n / step) match searches before the raw fallback triggers. The cap
/// bounds how far a skip can overshoot into a compressible region that
/// starts mid-stride (each overshot byte becomes one extra literal), which
/// is what keeps the lazy encoder's ratio within 1% of greedy on streams
/// that alternate runs and noise.
constexpr unsigned kSkipTrigger = 6;
constexpr std::size_t kMaxSkip = 16;

std::uint32_t hash4(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return (v * 2654435761u) >> (32 - kHashBits);
}

/// Internal aliases of the public block-API constants (lzss.hh).
constexpr std::size_t kTokenSlack = kLzssTokenSlack;

/// Sentinel return of compress_block_into: the block is incompressible.
constexpr std::size_t kStoreRaw = ~std::size_t{0};

/// Hash-head + prev-chain match finder over one block.
///
/// The head table is an epoch-stamped per-worker (thread_local) scratch:
/// starting a block costs one epoch bump instead of the old
/// `fill_n(head, kHashSize, -1)` + `fill_n(prev, n, -1)` reinitialization
/// (the prev fill alone wrote 4 bytes per input byte). `prev` needs no
/// initialization at all: chains are only entered through current-epoch head
/// slots, and every position reachable from one had its prev written this
/// epoch before the head slot was redirected to it.
struct MatchFinder {
  dev::StampedScratch<std::int32_t>& head;
  std::int32_t* prev;  ///< capacity n, intentionally uninitialized
  const std::uint8_t* src;
  std::size_t n;
  std::size_t ins = 0;  ///< next position not yet inserted into the chains

  struct Match {
    std::size_t len = 0;
    std::size_t dist = 0;
  };

  /// Inserts position `i` (caller guarantees i + kMinMatch <= n and that no
  /// position is ever inserted twice — a duplicate would cycle its chain).
  void insert(std::size_t i) {
    const std::uint32_t h = hash4(src + i);
    prev[i] = head.get_or(h, -1);
    head.put(h, static_cast<std::int32_t>(i));
  }

  /// Longest match at `i` (searched before `i` is inserted, exactly like the
  /// reference greedy finder), then inserts `i`.
  Match search_at(std::size_t i, int max_depth = kMaxChainDepth) {
    Match best;
    if (i + kMinMatch > n) return best;
    const std::uint32_t h = hash4(src + i);
    std::int32_t cand = head.get_or(h, -1);
    for (int depth = 0; cand >= 0 && depth < max_depth;
         ++depth, cand = prev[static_cast<std::size_t>(cand)]) {
      const std::size_t c = static_cast<std::size_t>(cand);
      const std::size_t dist = i - c;
      if (dist > 0xFFFF) break;  // beyond the encodable window
      std::size_t len = 0;
      const std::size_t limit = n - i;
      while (len < limit && src[c + len] == src[i + len]) ++len;
      if (len > best.len) {
        best.len = len;
        best.dist = dist;
        if (len >= limit) break;
      }
    }
    if (i >= ins) {
      insert(i);
      ins = i + 1;
    }
    return best;
  }

  /// Seeds chain entries for the interior of a match committed at
  /// [i, i + len) so later matches can anchor inside it, capped at
  /// kMaxChainInsert positions (see the constant's comment for the
  /// ratio/speed tradeoff). The un-inserted tail is skipped permanently.
  void insert_match_interior(std::size_t i, std::size_t len) {
    const std::size_t hashable = n >= kMinMatch ? n - kMinMatch + 1 : 0;
    const std::size_t stop =
        std::min({i + 1 + kMaxChainInsert, i + len, hashable});
    for (std::size_t j = std::max(ins, i + 1); j < stop; ++j) insert(j);
    ins = std::max(ins, i + len);
  }
};

/// LZSS over one block, emitting into `out` (capacity >= n + kTokenSlack).
/// Returns the encoded size, or kStoreRaw as soon as the output provably
/// reaches n bytes — output only grows, so stopping early picks the exact
/// same raw-vs-tokens decision the full encode would.
std::size_t compress_block_into(const std::uint8_t* src, std::size_t n,
                                std::uint8_t* out, std::int32_t* prev,
                                LzssMode mode) {
  // Per-worker stamped head table, reused across every block this worker
  // encodes; the epoch bump replaces the per-block table clear.
  thread_local dev::StampedScratch<std::int32_t> t_head(kHashSize);
  t_head.new_epoch();
  MatchFinder mf{t_head, prev, src, n};

  std::size_t out_pos = 0;
  std::size_t ctrl_pos = 0;
  int ctrl_bits = 8;  // force a fresh control byte on first token
  auto begin_token = [&](bool is_match) {
    if (ctrl_bits == 8) {
      ctrl_pos = out_pos;
      out[out_pos++] = 0;
      ctrl_bits = 0;
    }
    if (is_match) out[ctrl_pos] |= static_cast<std::uint8_t>(1u << ctrl_bits);
    ++ctrl_bits;
  };
  auto emit_literal = [&](std::size_t i) {
    begin_token(false);
    out[out_pos++] = src[i];
  };
  auto emit_match = [&](MatchFinder::Match m) {
    begin_token(true);
    out[out_pos++] = static_cast<std::uint8_t>(m.dist & 0xFF);
    out[out_pos++] = static_cast<std::uint8_t>(m.dist >> 8);
    std::size_t rem = m.len - kMinMatch;
    while (rem >= 255) {
      out[out_pos++] = 0xFF;
      rem -= 255;
    }
    out[out_pos++] = static_cast<std::uint8_t>(rem);
  };

  const bool lazy = mode == LzssMode::Lazy;
  std::size_t i = 0;
  std::size_t lit_run = 0;  // literals since the last match (skip heuristic)
  while (i < n) {
    if (out_pos >= n) return kStoreRaw;  // already as large as the input
    MatchFinder::Match m = mf.search_at(i);

    if (m.len < kMinMatch) {
      emit_literal(i);
      ++i;
      ++lit_run;
      if (lazy) {
        // Long literal run => likely incompressible: emit the next few
        // literals without searching (or inserting) at all.
        std::size_t extra = std::min(lit_run >> kSkipTrigger, kMaxSkip);
        while (extra-- > 0 && i < n) {
          if (out_pos >= n) return kStoreRaw;
          emit_literal(i);
          ++i;
          ++lit_run;
        }
      }
      continue;
    }

    lit_run = 0;
    if (lazy) {
      // One-step lazy matching: if the next position matches strictly
      // longer, demote this position to a literal and slide forward.
      while (m.len < kLazyMaxLen && i + 1 < n) {
        if (out_pos >= n) return kStoreRaw;
        const MatchFinder::Match next = mf.search_at(i + 1, kLazyProbeDepth);
        if (next.len <= m.len) break;
        emit_literal(i);
        ++i;
        m = next;
      }
    }
    emit_match(m);
    mf.insert_match_interior(i, m.len);
    i += m.len;
  }
  return out_pos >= n ? kStoreRaw : out_pos;
}

void decompress_block(const std::uint8_t* src, std::size_t n,
                      std::uint8_t* dst, std::size_t raw, std::size_t block) {
  const auto corrupt = [&](std::string_view what) -> core::CorruptArchive {
    return core::CorruptArchive("lzss", block, what);
  };
  std::size_t ip = 0, op = 0;
  std::uint8_t ctrl = 0;
  int ctrl_bits = 8;
  while (op < raw) {
    if (ctrl_bits == 8) {
      if (ip >= n) throw corrupt("truncated control byte");
      ctrl = src[ip++];
      ctrl_bits = 0;
    }
    const bool is_match = (ctrl >> ctrl_bits) & 1;
    ++ctrl_bits;
    if (is_match) {
      if (ip + 3 > n) throw corrupt("truncated match token");
      const std::size_t dist = src[ip] | (static_cast<std::size_t>(src[ip + 1]) << 8);
      ip += 2;
      std::size_t len = kMinMatch;
      for (;;) {
        if (ip >= n) throw corrupt("truncated match length");
        const std::uint8_t b = src[ip++];
        len += b;
        if (b != 0xFF) break;
      }
      if (dist == 0 || dist > op || len > raw - op)
        throw corrupt("corrupt match");
      // Match copy, widened where the overlap rules allow. dist >= 32 runs
      // in 32-byte AVX2 steps, dist >= 8 in word-size memcpy steps — in both
      // regimes each chunk's source lies fully behind its destination, so
      // the widened copies are byte-identical to the scalar replication (the
      // bounds check above already guarantees op + len <= raw). dist == 1 is
      // a byte run. Otherwise the overlapping copy must replicate byte by
      // byte.
#if defined(__x86_64__)
      if (dist >= 32 && dev::has_avx2()) {
        copy_match_avx2(dst + op, dst + op - dist, len);
      } else
#endif
      if (dist >= 8) {
        std::size_t k = 0;
        for (; k + 8 <= len; k += 8)
          std::memcpy(dst + op + k, dst + op + k - dist, 8);
        for (; k < len; ++k) dst[op + k] = dst[op + k - dist];
      } else if (dist == 1) {
        std::memset(dst + op, dst[op - 1], len);
      } else {
        for (std::size_t k = 0; k < len; ++k) dst[op + k] = dst[op + k - dist];
      }
      op += len;
    } else {
      if (ip >= n) throw corrupt("truncated literal");
      if (ctrl_bits == 1 && ctrl == 0) {
        // A fresh all-literal control byte: batch its 8 literals when both
        // streams have room (the common case in barely-compressible input).
        if (ip + 8 <= n && op + 8 <= raw) {
          std::memcpy(dst + op, src + ip, 8);
          ip += 8;
          op += 8;
          ctrl_bits = 8;
          continue;
        }
      }
      dst[op++] = src[ip++];
    }
  }
}

}  // namespace

std::uint64_t lzss_compress_block(std::span<const std::byte> block,
                                  std::span<std::byte> out, dev::Arena& arena,
                                  LzssMode mode) {
  if (out.size() < block.size() + kTokenSlack)
    throw std::invalid_argument("lzss_compress_block: output slice too small");
  dev::PooledBuffer prev(arena, block.size() * sizeof(std::int32_t));
  const std::size_t sz = compress_block_into(
      reinterpret_cast<const std::uint8_t*>(block.data()), block.size(),
      reinterpret_cast<std::uint8_t*>(out.data()),
      prev.as<std::int32_t>(block.size()).data(), mode);
  return sz == kStoreRaw ? kLzssStoreRaw : static_cast<std::uint64_t>(sz);
}

std::size_t lzss_stream_size(std::size_t raw_size, std::size_t block_size,
                             std::span<const std::uint64_t> enc_size) {
  std::size_t total = sizeof(std::uint64_t) + 2 * sizeof(std::uint32_t) +
                      enc_size.size() * sizeof(std::uint64_t);
  for (std::size_t b = 0; b < enc_size.size(); ++b) {
    const std::size_t begin = b * block_size;
    const std::size_t len = std::min(block_size, raw_size - begin);
    const bool raw = enc_size[b] == kLzssStoreRaw;
    total += 1 + (raw ? len : static_cast<std::size_t>(enc_size[b]));
  }
  return total;
}

void lzss_assemble(std::span<const std::byte> raw, std::size_t block_size,
                   std::span<const std::byte> slices, std::size_t stride,
                   std::span<const std::uint64_t> enc_size,
                   std::span<std::byte> dst) {
  const std::size_t n = raw.size();
  const std::size_t nblocks = enc_size.size();
  std::byte* p = dst.data();
  const auto put = [&p](const auto& v) {
    std::memcpy(p, &v, sizeof(v));
    p += sizeof(v);
  };
  put(static_cast<std::uint64_t>(n));
  put(static_cast<std::uint32_t>(block_size));
  put(static_cast<std::uint32_t>(nblocks));
  // dst can sit at any byte offset inside a wrapped archive, so the offset
  // table is written via memcpy rather than through a uint64_t*.
  std::byte* offsets = p;
  p += nblocks * sizeof(std::uint64_t);
  for (std::size_t b = 0; b < nblocks; ++b) {
    const std::size_t begin = b * block_size;
    const std::size_t len = std::min(block_size, n - begin);
    const bool store_raw = enc_size[b] == kLzssStoreRaw;
    const auto off = static_cast<std::uint64_t>(p - dst.data());
    std::memcpy(offsets + b * sizeof(std::uint64_t), &off, sizeof(off));
    *p++ = static_cast<std::byte>(store_raw ? 0 : 1);
    const std::size_t payload =
        store_raw ? len : static_cast<std::size_t>(enc_size[b]);
    std::memcpy(p,
                store_raw ? raw.data() + begin : slices.data() + b * stride,
                payload);
    p += payload;
  }
}

std::vector<std::byte> lzss_compress(std::span<const std::byte> data,
                                     std::size_t block_size, LzssMode mode) {
  dev::Arena local;
  dev::Workspace ws(local);
  const auto s = lzss_compress(data, block_size, ws, mode);
  return {s.begin(), s.end()};
}

std::span<const std::byte> lzss_compress(std::span<const std::byte> data,
                                         std::size_t block_size,
                                         dev::Workspace& ws, LzssMode mode) {
  if (block_size == 0) throw std::invalid_argument("lzss: block_size == 0");
  const std::size_t n = data.size();
  const std::size_t nblocks = n == 0 ? 0 : dev::ceil_div(n, block_size);

  // Compress blocks in parallel into per-block slices (block_size +
  // kTokenSlack apart, so the in-slice encoder can overrun the raw-fallback
  // threshold by at most one token), then stitch. The prev-chain scratch is
  // pooled (and deliberately never initialized); the head table is a
  // per-worker epoch-stamped thread_local inside compress_block_into.
  const std::size_t stride = block_size + kTokenSlack;
  auto slices = ws.make<std::byte>(nblocks * stride);
  auto enc_size = ws.make<std::uint64_t>(nblocks);
  dev::launch_linear(
      nblocks,
      [&](std::size_t b) {
        const std::size_t begin = b * block_size;
        const std::size_t len = std::min(block_size, n - begin);
        enc_size[b] =
            lzss_compress_block(data.subspan(begin, len),
                                std::span<std::byte>(slices.data() + b * stride,
                                                     stride),
                                ws.arena(), mode);
      },
      1);

  auto out = ws.make<std::byte>(lzss_stream_size(n, block_size, enc_size));
  lzss_assemble(data, block_size, slices, stride, enc_size, out);
  return out;
}

LzssFrame lzss_parse_frame_header(std::span<const std::byte> head,
                                  std::size_t stream_size, dev::Workspace& ws) {
  core::ByteReader rd(head, "lzss");
  const auto raw_size64 = rd.read<std::uint64_t>();
  const auto block_size = rd.read<std::uint32_t>();
  const auto nblocks = rd.read<std::uint32_t>();
  rd.guard_alloc(raw_size64);
  const auto raw_size = static_cast<std::size_t>(raw_size64);
  if (block_size == 0 && raw_size > 0) rd.fail("zero block size");
  // The block count must be exactly ceil(raw_size / block_size): a zero
  // count with a huge raw_size would otherwise fabricate output from thin
  // air. Division form avoids the a+b-1 overflow of ceil_div.
  const std::uint64_t expect_blocks =
      block_size == 0 ? 0
                      : raw_size64 / block_size +
                            (raw_size64 % block_size != 0 ? 1 : 0);
  if (nblocks != expect_blocks) rd.fail("inconsistent block count");
  const std::size_t header_end = rd.offset() + nblocks * sizeof(std::uint64_t);
  auto offsets = ws.make<std::uint64_t>(nblocks);
  std::memcpy(offsets.data(), rd.read_bytes(nblocks * sizeof(std::uint64_t)).data(),
              nblocks * sizeof(std::uint64_t));
  for (std::size_t b = 0; b < nblocks; ++b) {
    // Each block begins with a mode byte after the offset table and blocks
    // are laid out in order, so offsets must be strictly increasing views
    // into the stream.
    if (offsets[b] < header_end || offsets[b] >= stream_size ||
        (b > 0 && offsets[b] <= offsets[b - 1]))
      rd.fail("corrupt block offsets");
  }
  LzssFrame f;
  f.raw_size = raw_size;
  f.block_size = block_size;
  f.nblocks = nblocks;
  f.stream_size = stream_size;
  f.offsets = offsets;
  return f;
}

std::size_t lzss_frame_header_bytes(std::span<const std::byte> prefix,
                                    std::size_t stream_size) {
  // u64 raw_size | u32 block_size | u32 n_blocks, then the offset table.
  std::size_t need = sizeof(std::uint64_t) + 2 * sizeof(std::uint32_t);
  if (prefix.size() >= need) {
    std::uint32_t nblocks = 0;
    std::memcpy(&nblocks, prefix.data() + need - sizeof(nblocks),
                sizeof(nblocks));
    need += std::size_t{nblocks} * sizeof(std::uint64_t);
  }
  return std::min(need, stream_size);
}

std::pair<std::size_t, std::size_t> lzss_block_extent(const LzssFrame& frame,
                                                      std::size_t b) {
  if (b >= frame.nblocks)
    throw std::invalid_argument("lzss_block_extent: block out of range");
  const std::size_t begin = static_cast<std::size_t>(frame.offsets[b]);
  const std::size_t end = (b + 1 < frame.nblocks)
                              ? static_cast<std::size_t>(frame.offsets[b + 1])
                              : frame.stream_size;
  return {begin, end};
}

void lzss_decompress_block_bytes(const LzssFrame& frame, std::size_t b,
                                 std::span<const std::byte> block_bytes,
                                 std::span<std::byte> raw_out) {
  const std::size_t begin = b * frame.block_size;
  const std::size_t len =
      std::min<std::size_t>(frame.block_size, frame.raw_size - begin);
  if (b >= frame.nblocks || raw_out.size() != len)
    throw std::invalid_argument("lzss_decompress_block_bytes: bad block/extent");
  const auto [lo, hi] = lzss_block_extent(frame, b);
  if (block_bytes.size() != hi - lo)
    throw std::invalid_argument("lzss_decompress_block_bytes: slice size");
  const auto* src = reinterpret_cast<const std::uint8_t*>(block_bytes.data());
  const std::uint8_t mode = src[0];
  auto* dst = reinterpret_cast<std::uint8_t*>(raw_out.data());
  if (mode == 0) {
    if (block_bytes.size() - 1 < len)
      throw core::CorruptArchive("lzss", lo, "truncated raw block");
    std::memcpy(dst, src + 1, len);
  } else {
    decompress_block(src + 1, block_bytes.size() - 1, dst, len, b);
  }
}

std::vector<std::byte> lzss_decompress(std::span<const std::byte> data) {
  dev::Arena local;
  dev::Workspace ws(local);
  const LzssFrame frame = lzss_parse_frame_header(data, data.size(), ws);
  std::vector<std::byte> out(frame.raw_size);
  dev::launch_linear(
      frame.nblocks,
      [&](std::size_t b) {
        const std::size_t begin = b * frame.block_size;
        const std::size_t len =
            std::min<std::size_t>(frame.block_size, frame.raw_size - begin);
        const auto [lo, hi] = lzss_block_extent(frame, b);
        lzss_decompress_block_bytes(
            frame, b, data.subspan(lo, hi - lo),
            std::span<std::byte>(out.data() + begin, len));
      },
      1);
  return out;
}

}  // namespace szi::lossless
