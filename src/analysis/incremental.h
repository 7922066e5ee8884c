// The unit of incremental work shared by every analysis pass.
//
// The pipeline turns a DscgDelta (what one epoch rebuilt) into an
// UpdateScope: the closed set of top-level trees whose folded contributions
// must be subtracted and re-folded, plus the trees that stopped being
// top-level (subtract only) and the raw chain list for per-chain passes
// (anomaly detection, the report's anomaly lines).  Passes that accept an UpdateScope promise
// that update(everything) on a fresh instance equals the offline build --
// the one-epoch degenerate case -- which is what makes incremental and
// batch output byte-identical.
#pragma once

#include <cstdint>
#include <span>

#include "common/ids.h"

namespace causeway::analysis {

struct UpdateScope {
  // Ordinals (Dscg::chains() slots) of the top-level trees to subtract and
  // re-fold, ascending.  Every listed ordinal is a current root.
  std::span<const std::uint64_t> affected_roots;

  // Ordinals of trees that were folded as roots before but are no longer
  // top-level: subtract their old contribution, fold nothing back.
  std::span<const std::uint64_t> removed_roots;

  // Chains reconstructed this epoch, for passes keyed per chain rather than
  // per root tree.
  std::span<const Uuid> rebuilt_chains;
};

}  // namespace causeway::analysis
