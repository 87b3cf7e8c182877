// Op-protocol plumbing: name mapping and the generic execute() path that
// serves every op through a format's MTTKRP traversal (DESIGN.md §7).
#include "core/tensor_op.hpp"

#include <utility>

#include "core/tensor_op_plan.hpp"
#include "linalg/ops.hpp"
#include "util/error.hpp"

namespace bcsf {

const char* op_name(OpKind op) {
  switch (op) {
    case OpKind::kMttkrp: return "mttkrp";
    case OpKind::kTtv: return "ttv";
    case OpKind::kFit: return "fit";
    case OpKind::kStats: return "stats";
  }
  return "?";
}

OpKind op_from_name(const std::string& name) {
  for (OpKind op : kAllOps) {
    if (name == op_name(op)) return op;
  }
  if (name == op_name(OpKind::kStats)) return OpKind::kStats;
  BCSF_CHECK(false,
             "unknown op '" << name << "' (valid: mttkrp, ttv, fit, stats)");
  return OpKind::kMttkrp;  // unreachable
}

void TensorOpPlan::check_request(const OpRequest& request) const {
  BCSF_CHECK(request.factors != nullptr,
             "execute(" << op_name(request.kind) << "): null factors");
  BCSF_CHECK(request.mode == mode_,
             "execute(" << op_name(request.kind) << "): request mode "
                        << request.mode << " but this plan was built for mode "
                        << mode_);
  if (request.kind == OpKind::kFit && request.lambda != nullptr &&
      !request.factors->empty()) {
    BCSF_CHECK(request.lambda->size() ==
                   static_cast<std::size_t>(request.factors->front().cols()),
               "execute(fit): lambda has " << request.lambda->size()
                                           << " entries, rank is "
                                           << request.factors->front().cols());
  }
}

SimReport TensorOpPlan::run_into(const std::vector<DenseMatrix>& factors,
                                 DenseMatrix& out) const {
  PlanRunResult r = run(factors);
  out = std::move(r.output);
  return std::move(r.report);
}

OpResult TensorOpPlan::execute(const OpRequest& request) const {
  check_request(request);
  const std::vector<DenseMatrix>& factors = *request.factors;
  OpResult result;
  switch (request.kind) {
    case OpKind::kMttkrp: {
      PlanRunResult r = run(factors);
      result.output = std::move(r.output);
      result.report = std::move(r.report);
      return result;
    }
    case OpKind::kTtv: {
      // Rank-1 inputs make the format's MTTKRP schedule compute exactly
      // the multi-TTV: same traversal, same balance, R collapsed to 1.
      // (Row counts are checked against the tensor dims by the kernel's
      // own check_factors; only the rank-1 shape is TTV-specific.)
      for (std::size_t m = 0; m < factors.size(); ++m) {
        BCSF_CHECK(factors[m].cols() == 1,
                   "execute(ttv): mode " << m << " input has "
                                         << factors[m].cols()
                                         << " columns, expected dims[m] x 1");
      }
      PlanRunResult r = run(factors);
      result.output = std::move(r.output);
      result.report = std::move(r.report);
      return result;
    }
    case OpKind::kFit: {
      // <X, Xhat> = <MTTKRP_mode(X), A_mode * diag(lambda)>: one
      // traversal through the plan, then an O(dims[mode] x R) dense
      // contraction in double.
      PlanRunResult r = run(factors);
      const std::vector<value_t> unit_weights;
      result.scalar = cp_inner_from_mttkrp(
          r.output, factors[mode_],
          request.lambda ? *request.lambda : unit_weights);
      result.report = std::move(r.report);
      return result;
    }
    case OpKind::kStats:
      BCSF_CHECK(false,
                 "execute(stats): kStats is answered from the serving "
                 "layer's sketches, never by a plan");
      return result;
  }
  BCSF_CHECK(false, "execute: unknown op kind");
  return result;  // unreachable
}

}  // namespace bcsf
