#include "huffman/huffman.hh"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "core/bytes.hh"
#include "device/launch.hh"
#include "device/scan.hh"
#include "huffman/histogram.hh"

namespace szi::huffman {

namespace {

/// BitWriter over a pre-sized destination: each chunk's exact byte size is
/// known after phase 1, so phase 2 writes straight into the payload slot
/// instead of growing a per-chunk vector and copying it over.
class SpanBitWriter {
 public:
  explicit SpanBitWriter(std::uint8_t* out) : out_(out) {}

  void put(std::uint64_t bits, unsigned nbits) {
    while (nbits > 0) {
      const unsigned take = nbits < free_ ? nbits : free_;
      cur_ = static_cast<std::uint8_t>(
          cur_ | (((bits >> (nbits - take)) & ((1u << take) - 1))
                  << (free_ - take)));
      free_ -= take;
      nbits -= take;
      if (free_ == 0) flush_byte();
    }
  }

  void align() {
    if (free_ < 8) flush_byte();
  }

 private:
  void flush_byte() {
    *out_++ = cur_;
    cur_ = 0;
    free_ = 8;
  }
  std::uint8_t* out_;
  std::uint8_t cur_ = 0;
  unsigned free_ = 8;
};

template <typename T>
std::byte* write_pod(std::byte* p, const T& v) {
  std::memcpy(p, &v, sizeof(T));
  return p + sizeof(T);
}

}  // namespace

std::vector<std::byte> encode(std::span<const quant::Code> codes,
                              std::size_t nbins, std::size_t chunk_size) {
  dev::Arena local;
  dev::Workspace ws(local);
  const auto hist = histogram_topk(codes, nbins, nbins / 2, 16, ws);
  const auto s = encode_with_book(codes, Codebook::build(hist), chunk_size, ws);
  return {s.begin(), s.end()};
}

std::vector<std::byte> encode_with_book(std::span<const quant::Code> codes,
                                        const Codebook& book,
                                        std::size_t chunk_size) {
  dev::Arena local;
  dev::Workspace ws(local);
  const auto s = encode_with_book(codes, book, chunk_size, ws);
  return {s.begin(), s.end()};
}

EncodePlan encode_plan(std::span<const quant::Code> codes,
                       const Codebook& book, std::size_t chunk_size,
                       dev::Workspace& ws) {
  if (chunk_size == 0) throw std::invalid_argument("huffman: chunk_size == 0");
  const std::size_t nbins = book.nbins();
  const std::size_t n = codes.size();
  const std::size_t nchunks = dev::ceil_div(n, chunk_size);

  // Phase 1: per-chunk bit sizes (parallel), then byte offsets via scan.
  auto chunk_bytes = ws.make<std::uint64_t>(nchunks);
  dev::launch_linear(
      nchunks,
      [&](std::size_t c) {
        const std::size_t begin = c * chunk_size;
        const std::size_t end = std::min(begin + chunk_size, n);
        std::uint64_t bits = 0;
        for (std::size_t i = begin; i < end; ++i) bits += book.lengths[codes[i]];
        chunk_bytes[c] = (bits + 7) / 8;
      },
      1);
  auto offsets = ws.make<std::uint64_t>(nchunks);

  EncodePlan plan;
  plan.n = n;
  plan.chunk_size = chunk_size;
  plan.nchunks = nchunks;
  plan.payload_bytes = dev::exclusive_scan<std::uint64_t>(chunk_bytes, offsets);
  plan.header_bytes = sizeof(std::uint32_t) + nbins + sizeof(std::uint64_t) +
                      sizeof(std::uint32_t) + sizeof(std::uint64_t) +
                      nchunks * sizeof(std::uint64_t);
  plan.offsets = offsets;
  return plan;
}

void write_stream_header(const EncodePlan& plan, const Codebook& book,
                         std::span<std::byte> dst) {
  const std::size_t nbins = book.nbins();
  if (dst.size() < plan.header_bytes)
    throw std::invalid_argument("huffman: header destination too small");
  std::byte* p = dst.data();
  p = write_pod(p, static_cast<std::uint32_t>(nbins));
  std::memcpy(p, book.lengths.data(), nbins);
  p += nbins;
  p = write_pod(p, static_cast<std::uint64_t>(plan.n));
  p = write_pod(p, static_cast<std::uint32_t>(plan.chunk_size));
  p = write_pod(p, plan.payload_bytes);
  if (plan.nchunks > 0)
    std::memcpy(p, plan.offsets.data(),
                plan.nchunks * sizeof(std::uint64_t));
}

void encode_chunks(std::span<const quant::Code> codes, const Codebook& book,
                   const EncodePlan& plan, std::size_t chunk_begin,
                   std::size_t chunk_end, std::span<std::byte> payload) {
  // Phase 2: chunk-parallel bitstream emission into disjoint byte ranges.
  // Each chunk's byte size is exact, so every payload byte in the range is
  // overwritten — required because arena blocks carry stale contents from
  // prior invocations.
  auto* base = reinterpret_cast<std::uint8_t*>(payload.data());
  dev::launch_linear(
      chunk_end - chunk_begin,
      [&](std::size_t k) {
        const std::size_t c = chunk_begin + k;
        const std::size_t begin = c * plan.chunk_size;
        const std::size_t end = std::min(begin + plan.chunk_size, plan.n);
        SpanBitWriter bw(base + plan.offsets[c]);
        for (std::size_t i = begin; i < end; ++i)
          bw.put(book.codes[codes[i]], book.lengths[codes[i]]);
        bw.align();
      },
      1);
}

namespace {

/// Upper bound on the payload bytes any code sequence of length n can emit
/// under `book`: sizes the destination before the chunks are measured.
std::size_t payload_bound(const Codebook& book, std::size_t n,
                          std::size_t chunk_size) {
  if (chunk_size == 0) throw std::invalid_argument("huffman: chunk_size == 0");
  std::size_t maxlen = 0;
  for (const auto l : book.lengths) maxlen = std::max<std::size_t>(maxlen, l);
  // Each chunk rounds up to a whole byte, adding at most one byte per chunk
  // over the n * maxlen / 8 bit total.
  return (n * maxlen + 7) / 8 + dev::ceil_div(n, chunk_size);
}

/// Fused plan+emit: one pass over the codes that emits each chunk at the
/// running offset and records the offset table as a byproduct. `payload`
/// must hold at least payload_bound() bytes. The plan equals encode_plan's
/// and the payload encode_chunks', since chunk contents depend only on the
/// codes and the book, and each offset is the sum of the chunks before it.
EncodePlan encode_emit_serial(std::span<const quant::Code> codes,
                              const Codebook& book, std::size_t chunk_size,
                              std::span<std::byte> payload,
                              dev::Workspace& ws) {
  if (chunk_size == 0) throw std::invalid_argument("huffman: chunk_size == 0");
  const std::size_t n = codes.size();
  const std::size_t nchunks = dev::ceil_div(n, chunk_size);
  if (payload.size() < payload_bound(book, n, chunk_size))
    throw std::invalid_argument("huffman: serial payload destination too small");
  auto offsets = ws.make<std::uint64_t>(nchunks);
  auto* base = reinterpret_cast<std::uint8_t*>(payload.data());

  std::uint64_t off = 0;
  for (std::size_t c = 0; c < nchunks; ++c) {
    offsets[c] = off;
    const std::size_t begin = c * chunk_size;
    const std::size_t end = std::min(begin + chunk_size, n);
    SpanBitWriter bw(base + off);
    std::uint64_t bits = 0;
    for (std::size_t i = begin; i < end; ++i) {
      bw.put(book.codes[codes[i]], book.lengths[codes[i]]);
      bits += book.lengths[codes[i]];
    }
    bw.align();
    off += (bits + 7) / 8;
  }

  EncodePlan plan;
  plan.n = n;
  plan.chunk_size = chunk_size;
  plan.nchunks = nchunks;
  plan.payload_bytes = off;
  plan.header_bytes = overhead_bytes(book.nbins(), n, chunk_size);
  plan.offsets = offsets;
  return plan;
}

}  // namespace

std::span<const std::byte> encode_with_book(std::span<const quant::Code> codes,
                                            const Codebook& book,
                                            std::size_t chunk_size,
                                            dev::Workspace& ws) {
  const EncodePlan plan = encode_plan(codes, book, chunk_size, ws);
  auto out = ws.make<std::byte>(plan.stream_bytes());
  write_stream_header(plan, book, out);
  encode_chunks(codes, book, plan, 0, plan.nchunks,
                out.subspan(plan.header_bytes));
  return out;
}

std::span<const std::byte> encode_with_book_serial(
    std::span<const quant::Code> codes, const Codebook& book,
    std::size_t chunk_size, dev::Workspace& ws) {
  const std::size_t header =
      overhead_bytes(book.nbins(), codes.size(), chunk_size);
  auto staging = ws.make<std::byte>(
      header + payload_bound(book, codes.size(), chunk_size));
  const EncodePlan plan =
      encode_emit_serial(codes, book, chunk_size, staging.subspan(header), ws);
  write_stream_header(plan, book, staging);
  return staging.first(plan.stream_bytes());
}

std::vector<Codebook> build_level_books(
    std::span<const std::vector<std::uint32_t>> histograms) {
  std::vector<Codebook> books;
  books.reserve(histograms.size());
  for (const auto& h : histograms) books.push_back(Codebook::build(h));
  return books;
}

namespace {

// Shared header parse + chunk-table validation for decode_plan and
// decode_plan_header. `stream_size` is the framed stream's total byte size
// (the input span's size for decode_plan); the payload itself need not be
// behind `rd`, only accounted for.
DecodePlan parse_stream_header(core::ByteReader& rd, std::uint64_t stream_size,
                               dev::Workspace& ws) {
  const auto nbins = rd.read<std::uint32_t>();
  auto lengths = rd.read_array<std::uint8_t>(nbins);
  const auto n64 = rd.read<std::uint64_t>();
  const auto chunk_size = rd.read<std::uint32_t>();
  if (chunk_size == 0) rd.fail("zero chunk size");
  const auto payload_bytes = rd.read<std::uint64_t>();
  // Overflow-free ceil-div: n64 is attacker-controlled and may be near 2^64.
  const std::uint64_t nchunks64 =
      n64 / chunk_size + (n64 % chunk_size != 0 ? 1 : 0);
  (void)rd.checked_array_bytes(static_cast<std::size_t>(n64),
                               sizeof(quant::Code));
  const std::size_t n = static_cast<std::size_t>(n64);
  const std::size_t nchunks = static_cast<std::size_t>(nchunks64);
  auto offsets = ws.make<std::uint64_t>(nchunks);
  if (nchunks > 0)
    std::memcpy(offsets.data(),
                rd.read_bytes(nchunks * sizeof(std::uint64_t)).data(),
                nchunks * sizeof(std::uint64_t));
  if (stream_size < rd.offset() || stream_size - rd.offset() < payload_bytes)
    rd.fail("truncated payload");
  // Validate the chunk table before any pointer arithmetic: offsets must
  // start at zero, stay monotone, and land inside the payload, or a corrupt
  // header could index out of bounds.
  if (nchunks > 0 && offsets[0] != 0) rd.fail("first chunk offset not zero");
  for (std::size_t c = 0; c < nchunks; ++c) {
    if (offsets[c] > payload_bytes || (c > 0 && offsets[c] < offsets[c - 1]))
      rd.fail("corrupt chunk offsets");
  }

  DecodePlan plan;
  plan.n = n;
  plan.chunk_size = chunk_size;
  plan.nchunks = nchunks;
  plan.payload_bytes = payload_bytes;
  plan.offsets = offsets;
  // from_lengths rejects over-long or Kraft-violating length tables.
  plan.book = Codebook::from_lengths(std::move(lengths));
  plan.table = FastDecodeTable::from(plan.book);
  return plan;
}

}  // namespace

DecodePlan decode_plan(std::span<const std::byte> bytes, dev::Workspace& ws) {
  core::ByteReader rd(bytes, "huffman");
  DecodePlan plan = parse_stream_header(rd, bytes.size(), ws);
  plan.payload = rd.rest().first(static_cast<std::size_t>(plan.payload_bytes));
  return plan;
}

DecodePlan decode_plan_header(std::span<const std::byte> head,
                              std::uint64_t stream_size, dev::Workspace& ws) {
  core::ByteReader rd(head, "huffman");
  return parse_stream_header(rd, stream_size, ws);
}

namespace {

// Post-decode overrun check. The encoder byte-aligns every chunk, so a
// valid chunk decodes its element count within its byte span. Consuming
// more bits means the chunk table lied about this chunk's extent.
void check_chunk_extent(const lossless::BitReader& br, std::size_t chunk_bytes,
                        std::uint64_t chunk_offset, std::size_t c) {
  if (br.position() > chunk_bytes * 8)
    throw core::CorruptArchive(
        "huffman", chunk_offset,
        "chunk decoded past its extent (chunk " + std::to_string(c) + ")");
}

// Chunk iteration against an arbitrary payload window: `payload` points at
// the stream payload byte `payload_off`, and must cover every chunk of the
// range. A full-payload iteration is the payload_off == 0 case.
template <typename ChunkBody>
void for_each_chunk_at(const DecodePlan& plan, const std::uint8_t* payload,
                       std::uint64_t payload_off, std::size_t chunk_begin,
                       std::size_t chunk_end, const ChunkBody& body) {
  dev::launch_linear(
      chunk_end - chunk_begin,
      [&](std::size_t k) {
        const std::size_t c = chunk_begin + k;
        const std::size_t begin = c * plan.chunk_size;
        const std::size_t end =
            std::min<std::size_t>(begin + plan.chunk_size, plan.n);
        const std::size_t chunk_end_byte =
            (c + 1 < plan.nchunks) ? plan.offsets[c + 1] : plan.payload_bytes;
        const std::size_t chunk_bytes = chunk_end_byte - plan.offsets[c];
        lossless::BitReader br(
            {payload + (plan.offsets[c] - payload_off), chunk_bytes});
        body(br, begin, end);
        check_chunk_extent(br, chunk_bytes, plan.offsets[c], c);
      },
      1);
}

// The pack-table decode loop shared by decode_chunks and
// decode_chunks_range — one body, so ranged decode is bit-identical by
// construction. `dst` points at the output slot for symbol `i`.
//
// Multi-symbol fast path: one pack-table probe emits up to kMaxPack
// codewords. The loop bound leaves room for a full pack; the remainder (and
// any window whose first code exceeds kLutBits) goes through the
// single-symbol decoder, which consumes the same bits per symbol, so
// position() agrees with a one-symbol-per-probe decode at every symbol
// boundary.
inline void decode_pack_body(const DecodePlan& plan, lossless::BitReader& br,
                             std::size_t i, std::size_t end,
                             quant::Code* dst) {
  using Fast = FastDecodeTable;
  while (i + Fast::kMaxPack <= end) {
    const Fast::PackEntry& e = plan.table.pack[br.peek(Fast::kLutBits)];
    if (e.nsym == 0) {
      *dst++ = plan.table.decode(br);
      ++i;
      continue;
    }
    for (unsigned k = 0; k < e.nsym; ++k) dst[k] = e.sym[k];
    dst += e.nsym;
    i += e.nsym;
    br.skip(e.nbits);
  }
  while (i < end) {
    *dst++ = plan.table.decode(br);
    ++i;
  }
}

}  // namespace

void decode_chunks(const DecodePlan& plan, std::size_t chunk_begin,
                   std::size_t chunk_end, std::span<quant::Code> out) {
  for_each_chunk_at(
      plan, reinterpret_cast<const std::uint8_t*>(plan.payload.data()), 0,
      chunk_begin, chunk_end,
      [&](lossless::BitReader& br, std::size_t i, std::size_t end) {
        decode_pack_body(plan, br, i, end, out.data() + i);
      });
}

void decode_chunks_range(const DecodePlan& plan,
                         std::span<const std::byte> payload,
                         std::uint64_t payload_off, std::size_t chunk_begin,
                         std::size_t chunk_end, std::span<quant::Code> out) {
  if (chunk_begin >= chunk_end) return;
  if (chunk_end > plan.nchunks)
    throw core::CorruptArchive("huffman", 0, "chunk range past chunk table");
  const std::uint64_t lo = plan.offsets[chunk_begin];
  const std::uint64_t hi = (chunk_end < plan.nchunks) ? plan.offsets[chunk_end]
                                                      : plan.payload_bytes;
  if (lo < payload_off || hi - payload_off > payload.size())
    throw core::CorruptArchive("huffman", static_cast<std::size_t>(lo),
                               "payload slice does not cover chunk range");
  const std::size_t sym_base = chunk_begin * plan.chunk_size;
  const std::size_t sym_end =
      std::min<std::size_t>(chunk_end * plan.chunk_size, plan.n);
  if (out.size() != sym_end - sym_base)
    throw core::CorruptArchive("huffman", 0, "chunk-range output size mismatch");
  for_each_chunk_at(
      plan, reinterpret_cast<const std::uint8_t*>(payload.data()), payload_off,
      chunk_begin, chunk_end,
      [&](lossless::BitReader& br, std::size_t i, std::size_t end) {
        decode_pack_body(plan, br, i, end, out.data() + (i - sym_base));
      });
}

std::vector<quant::Code> decode(std::span<const std::byte> bytes) {
  dev::Arena local;
  dev::Workspace ws(local);
  const DecodePlan plan = decode_plan(bytes, ws);
  std::vector<quant::Code> codes(plan.n);
  decode_chunks(plan, 0, plan.nchunks, codes);
  return codes;
}

std::span<const quant::Code> decode(std::span<const std::byte> bytes,
                                    dev::Workspace& ws) {
  const DecodePlan plan = decode_plan(bytes, ws);
  auto codes = ws.make<quant::Code>(plan.n);
  decode_chunks(plan, 0, plan.nchunks, codes);
  return codes;
}

std::size_t overhead_bytes(std::size_t nbins, std::size_t n_symbols,
                           std::size_t chunk_size) {
  return sizeof(std::uint32_t) + nbins + sizeof(std::uint64_t) +
         sizeof(std::uint32_t) + sizeof(std::uint64_t) +
         dev::ceil_div(n_symbols, chunk_size) * sizeof(std::uint64_t);
}

std::uint64_t stream_header_bytes(std::span<const std::byte> prefix,
                                  std::uint64_t stream_size) {
  std::uint32_t nbins = 0;
  std::uint64_t need = sizeof(nbins);
  if (prefix.size() >= need) {
    std::memcpy(&nbins, prefix.data(), sizeof(nbins));
    need = overhead_bytes(nbins, 0);  // the fixed fields, no offset table
  }
  if (prefix.size() >= need) {
    std::uint64_t n = 0;
    std::uint32_t chunk_size = 0;
    const std::byte* p = prefix.data() + sizeof(nbins) + nbins;
    std::memcpy(&n, p, sizeof(n));
    std::memcpy(&chunk_size, p + sizeof(n), sizeof(chunk_size));
    // Division-form ceil: n is untrusted and may be near 2^64.
    const std::uint64_t nchunks =
        chunk_size == 0 ? 0 : n / chunk_size + (n % chunk_size != 0 ? 1 : 0);
    if (nchunks > (stream_size - std::min(need, stream_size)) /
                      sizeof(std::uint64_t))
      return stream_size;
    need += nchunks * sizeof(std::uint64_t);
  }
  return std::min(need, stream_size);
}

}  // namespace szi::huffman
