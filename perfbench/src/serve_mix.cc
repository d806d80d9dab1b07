#include "serve_mix.hh"

#include "core/cuszi.hh"
#include "device/arena.hh"
#include "oracle.hh"

namespace perfbench {

ServeRefs make_serve_refs(const ServeCorpus& corpus) {
  ServeRefs refs;
  szi::dev::Workspace ws;
  for (std::size_t k = 0; k < kServeKinds; ++k) {
    for (const auto& j : corpus.by_kind[k]) {
      const auto kind = static_cast<ServeKind>(k);
      auto raw = j.is_f64() ? szi::cuszi_compress(std::span<const double>(j.f64),
                                                  j.dims, j.params, nullptr, ws)
                            : szi::cuszi_compress(std::span<const float>(j.f32),
                                                  j.dims, j.params, nullptr, ws);
      if (kind == ServeKind::Decompress || kind == ServeKind::Roi)
        refs.decoded[k].push_back(szi::cuszi_decompress_f32(raw));
      refs.archive[k].push_back(kind == ServeKind::Decompress
                                    ? szi::bitcomp_wrap_archive(raw)
                                    : std::move(raw));
    }
  }
  return refs;
}

szi::serve::Ticket submit(szi::serve::Service& svc, const std::string& tenant,
                          const ServeRequest& q, const ServeCorpus& corpus,
                          const ServeRefs& refs) {
  const auto k = static_cast<std::size_t>(q.kind);
  const auto& j = corpus.by_kind[k][q.index];
  switch (q.kind) {
    case ServeKind::CompressF64:
      return svc.submit_compress_f64(tenant, j.f64, j.dims, j.params);
    case ServeKind::Decompress:
      return svc.submit_decompress(tenant, refs.archive[k][q.index]);
    case ServeKind::Roi:
      return svc.submit_roi(tenant, refs.archive[k][q.index], q.box);
    default:
      return svc.submit_compress(tenant, j.f32, j.dims, j.params);
  }
}

/// Checks a reply against the references; returns "" when it matches.
std::string check_reply(const szi::serve::Response& resp,
                        const ServeRequest& q, const ServeCorpus& corpus,
                        const ServeRefs& refs) {
  if (resp.status != szi::serve::Status::Ok)
    return std::string(serve_kind_name(q.kind)) + ": " + resp.error;
  const auto k = static_cast<std::size_t>(q.kind);
  bool ok = false;
  switch (q.kind) {
    case ServeKind::Decompress:
      ok = same_bits<float>(resp.data, refs.decoded[k][q.index]);
      break;
    case ServeKind::Roi:
      ok = same_bits<float>(
          resp.data, crop<float>(refs.decoded[k][q.index],
                                 corpus.by_kind[k][q.index].dims, q.box));
      break;
    default:
      ok = same_bits<std::byte>(resp.archive, refs.archive[k][q.index]);
  }
  return ok ? "" : std::string(serve_kind_name(q.kind)) +
                       ": reply differs from the direct library call";
}

/// Input bytes of a compress request, output bytes of a decode request.
std::size_t payload_bytes(const ServeRequest& q, const ServeCorpus& corpus) {
  const auto& j = corpus.by_kind[static_cast<std::size_t>(q.kind)][q.index];
  return q.kind == ServeKind::Roi ? q.box.ext.volume() * sizeof(float)
                                  : j.bytes();
}

bool is_compress(ServeKind k) {
  return k != ServeKind::Decompress && k != ServeKind::Roi;
}

}  // namespace perfbench
