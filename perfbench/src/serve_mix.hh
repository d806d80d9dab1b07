// The serve mix's reference outputs and request plumbing, shared by the
// serve-closed workload and the traced run's serve probe.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "inputs.hh"
#include "serve/serve.hh"

namespace perfbench {

/// Reference outputs of the serve mix, made by direct library calls: the
/// service must return exactly these bytes.
struct ServeRefs {
  /// Per kind, per corpus index: the archive a compress must produce, or
  /// the archive a decompress / ROI request reads.
  std::vector<std::vector<std::byte>> archive[kServeKinds];
  /// Per corpus index of Decompress and Roi: the full decode.
  std::vector<std::vector<float>> decoded[kServeKinds];
};

[[nodiscard]] ServeRefs make_serve_refs(const ServeCorpus& corpus);

/// Submits `q` to `svc`. The request borrows its payload from `corpus` /
/// `refs`, which must outlive the ticket.
[[nodiscard]] szi::serve::Ticket submit(szi::serve::Service& svc,
                                        const std::string& tenant,
                                        const ServeRequest& q,
                                        const ServeCorpus& corpus,
                                        const ServeRefs& refs);

/// Checks a reply against the references; returns "" when it matches.
[[nodiscard]] std::string check_reply(const szi::serve::Response& resp,
                                      const ServeRequest& q,
                                      const ServeCorpus& corpus,
                                      const ServeRefs& refs);

/// Input bytes of a compress request, output bytes of a decode request.
[[nodiscard]] std::size_t payload_bytes(const ServeRequest& q,
                                        const ServeCorpus& corpus);

[[nodiscard]] bool is_compress(ServeKind k);

}  // namespace perfbench
