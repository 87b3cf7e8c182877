// String-keyed factory for tensor-op plans (DESIGN.md §2, §7).
//
// Every format registers itself once (static FormatRegistrar in
// core/plans.cpp); consumers -- cpd_als, the serving layer, the benches,
// the examples -- look plans up by name or enumerate the catalogue, so
// adding a format means adding ONE registration and no switch statement
// anywhere.  Entries are op-aware: each declares which OpKinds its plans
// execute (all of them today -- TTV and FIT ride the MTTKRP traversal),
// and create() refuses an unsupported (format, op) pair up front instead
// of failing inside execute().
//
// Thread-safety: all registrations happen during static initialization,
// before main(); after that the registry is read-only, so contains() /
// at() / create() / names() may be called from any thread without
// locking.  create() itself is re-entrant -- each call builds an
// independent plan -- and the serving layer memoizes and single-flights
// those builds in ConcurrentPlanCache (DESIGN.md §5) rather than here.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/tensor_op.hpp"
#include "core/tensor_op_plan.hpp"
#include "tensor/sparse_tensor.hpp"
#include "util/types.hpp"

namespace bcsf {

/// Which execution engine a format's kernel targets.  `kMeta` marks
/// policies (e.g. "auto") that delegate to another registered format.
enum class PlanKind { kGpu, kCpu, kMeta };

class FormatRegistry {
 public:
  using Factory = std::function<PlanPtr(
      const SparseTensor& tensor, index_t mode, const PlanOptions& opts)>;
  /// A Factory that also takes over `perm`, a permutation sorting the
  /// nonzeros by mode_order_for(mode, order), instead of sorting again.
  using SortedFactory =
      std::function<PlanPtr(const SparseTensor& tensor, index_t mode,
                            const PlanOptions& opts, offset_vec perm)>;

  struct Entry {
    std::string name;          ///< registry key, e.g. "hbcsf"
    std::string display_name;  ///< paper-facing name, e.g. "HB-CSF"
    std::string description;   ///< one line for catalogue listings
    PlanKind kind = PlanKind::kGpu;
    /// True for formats keeping one representation per mode (CSF family);
    /// false for mode-agnostic storage (COO).  Drives all-mode storage
    /// sums (Fig. 16).
    bool mode_oriented = true;
    Factory factory;
    /// OpKinds this format's plans execute (op_bit mask).  Defaults to
    /// everything: the generic TensorOpPlan::execute path serves TTV/FIT
    /// through any format's MTTKRP traversal.  A future format with a
    /// restricted kernel set narrows this and create() refuses early.
    unsigned ops = kAllOpsMask;
    /// Optional: the build from a caller's sort permutation, for formats
    /// that read the nonzeros in that order.  Empty for the others.
    SortedFactory sorted_factory = nullptr;
  };

  /// The process-wide registry with all built-in formats registered.
  static FormatRegistry& instance();

  /// Registers a format; throws bcsf::Error on duplicate names.
  void add(Entry entry);

  bool contains(const std::string& name) const;
  const Entry& at(const std::string& name) const;  ///< throws if unknown

  /// True when `name` is registered AND declares support for `op`.
  bool supports(const std::string& name, OpKind op) const;

  /// Builds the plan for (name, tensor, mode), timing the factory call
  /// into the plan's build_seconds().  Throws bcsf::Error for unknown
  /// names (message lists the catalogue) and for a (name, opts.op) pair
  /// the entry does not support.  `tensor` must outlive the plan: the
  /// COO-family plans reference it rather than copy (their format IS the
  /// tensor, and copying would charge COO a build cost the paper says it
  /// does not have).
  PlanPtr create(const std::string& name, const SparseTensor& tensor,
                 index_t mode, const PlanOptions& opts = {}) const;
  /// create() for a caller already holding `perm`, a permutation sorting
  /// the nonzeros by mode_order_for(mode, order) (the "auto" plan sorts
  /// once for its statistics): an entry with a sorted_factory takes it
  /// over; any other entry frees it first and builds as above.
  PlanPtr create(const std::string& name, const SparseTensor& tensor,
                 index_t mode, const PlanOptions& opts, offset_vec perm) const;

  /// Registered names, sorted; optionally restricted to one kind or to
  /// formats supporting one op.
  std::vector<std::string> names() const;
  std::vector<std::string> names(PlanKind kind) const;
  std::vector<std::string> names(OpKind op) const;

 private:
  FormatRegistry() = default;
  PlanPtr build(const std::string& name, const SparseTensor& tensor,
                index_t mode, const PlanOptions& opts,
                std::optional<offset_vec> perm) const;
  std::map<std::string, Entry> entries_;
};

/// Self-registration helper: `static FormatRegistrar r{{...}};` at
/// namespace scope adds the entry before main() runs.
struct FormatRegistrar {
  explicit FormatRegistrar(FormatRegistry::Entry entry);
};

}  // namespace bcsf
