#include "core/format_registry.hpp"

#include <optional>
#include <sstream>
#include <utility>

#include "util/error.hpp"
#include "util/timer.hpp"

namespace bcsf {

// Defined in core/plans.cpp.  Referencing it from instance() forces the
// linker to keep plans.cpp (and its self-registering statics) when the
// library is consumed as a static archive -- without this anchor a binary
// that only pulls format_registry.o would see an empty catalogue.
void ensure_builtin_plans_linked();

FormatRegistry& FormatRegistry::instance() {
  static FormatRegistry registry;
  ensure_builtin_plans_linked();
  return registry;
}

void FormatRegistry::add(Entry entry) {
  BCSF_CHECK(!entry.name.empty(), "FormatRegistry: empty format name");
  BCSF_CHECK(static_cast<bool>(entry.factory),
             "FormatRegistry: format '" << entry.name << "' has no factory");
  const bool inserted = entries_.emplace(entry.name, entry).second;
  BCSF_CHECK(inserted,
             "FormatRegistry: duplicate format '" << entry.name << "'");
}

bool FormatRegistry::contains(const std::string& name) const {
  return entries_.count(name) > 0;
}

const FormatRegistry::Entry& FormatRegistry::at(const std::string& name) const {
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    std::ostringstream known;
    for (const auto& [key, unused] : entries_) known << " " << key;
    BCSF_CHECK(false, "FormatRegistry: unknown format '"
                          << name << "'; registered:" << known.str());
  }
  return it->second;
}

bool FormatRegistry::supports(const std::string& name, OpKind op) const {
  auto it = entries_.find(name);
  return it != entries_.end() && (it->second.ops & op_bit(op)) != 0;
}

PlanPtr FormatRegistry::create(const std::string& name,
                               const SparseTensor& tensor, index_t mode,
                               const PlanOptions& opts) const {
  return build(name, tensor, mode, opts, std::nullopt);
}

PlanPtr FormatRegistry::create(const std::string& name,
                               const SparseTensor& tensor, index_t mode,
                               const PlanOptions& opts, offset_vec perm) const {
  return build(name, tensor, mode, opts, std::move(perm));
}

PlanPtr FormatRegistry::build(const std::string& name,
                              const SparseTensor& tensor, index_t mode,
                              const PlanOptions& opts,
                              std::optional<offset_vec> perm) const {
  const Entry& entry = at(name);
  BCSF_CHECK(mode < tensor.order(), "FormatRegistry: mode " << mode
                                        << " out of range for order "
                                        << tensor.order());
  BCSF_CHECK((entry.ops & op_bit(opts.op)) != 0,
             "FormatRegistry: format '" << name << "' does not support op '"
                                        << op_name(opts.op) << "'");
  const bool sorted = perm.has_value() && entry.sorted_factory;
  if (!sorted) perm.reset();  // freed before the build, not during it
  Timer timer;
  PlanPtr plan = sorted
                     ? entry.sorted_factory(tensor, mode, opts, std::move(*perm))
                     : entry.factory(tensor, mode, opts);
  BCSF_CHECK(plan != nullptr,
             "FormatRegistry: factory for '" << name << "' returned null");
  // For meta plans (auto) this covers the decision plus the delegate's
  // construction -- the true pre-processing cost of asking for "auto".
  plan->build_seconds_ = timer.seconds();
  return plan;
}

std::vector<std::string> FormatRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [key, unused] : entries_) out.push_back(key);
  return out;
}

std::vector<std::string> FormatRegistry::names(PlanKind kind) const {
  std::vector<std::string> out;
  for (const auto& [key, entry] : entries_) {
    if (entry.kind == kind) out.push_back(key);
  }
  return out;
}

std::vector<std::string> FormatRegistry::names(OpKind op) const {
  std::vector<std::string> out;
  for (const auto& [key, entry] : entries_) {
    if ((entry.ops & op_bit(op)) != 0) out.push_back(key);
  }
  return out;
}

FormatRegistrar::FormatRegistrar(FormatRegistry::Entry entry) {
  FormatRegistry::instance().add(std::move(entry));
}

}  // namespace bcsf
