#include "trace.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>
#include <string_view>
#include <unordered_map>

namespace perfbench {

namespace {

// The span open on this thread (0 = none): the parent of the next Scope.
thread_local std::uint64_t t_open_span = 0;

double span_ms(Tracer::Clock::time_point start, Tracer::Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - start).count();
}

std::string_view layer_of(const char* name) {
  const std::string_view full(name);
  return full.substr(0, full.find('.'));
}

}  // namespace

Tracer::Scope::Scope(Tracer* tracer, const char* name, std::uint64_t request)
    : tracer_(tracer), name_(name), request_(request) {
  if (tracer_ == nullptr) return;
  id_ = tracer_->next_id();
  parent_ = t_open_span;
  t_open_span = id_;
  start_ = Clock::now();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  const Clock::time_point end = Clock::now();
  t_open_span = parent_;
  tracer_->push(Span{name_, id_, parent_, request_, start_, end});
}

std::uint64_t Tracer::next_id() {
  std::lock_guard<std::mutex> lock(mutex_);
  return ++last_id_;
}

void Tracer::push(const Span& span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
}

std::uint64_t Tracer::record(const char* name, Clock::time_point start,
                             Clock::time_point end, std::uint64_t request,
                             std::uint64_t parent) {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t id = ++last_id_;
  spans_.push_back(Span{name, id, parent, request, start, end});
  return id;
}

Tracer::Stat Tracer::stat(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stat out;
  for (const Span& s : spans_) {
    if (name != s.name) continue;
    ++out.count;
    out.total_ms += span_ms(s.start, s.end);
  }
  return out;
}

std::map<std::string, double> Tracer::self_ms_by_layer() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::unordered_map<std::uint64_t, double> child_ms;
  for (const Span& s : spans_) {
    if (s.parent != 0) child_ms[s.parent] += span_ms(s.start, s.end);
  }
  std::map<std::string, double> out;
  for (const Span& s : spans_) {
    const auto it = child_ms.find(s.id);
    const double children = it == child_ms.end() ? 0.0 : it->second;
    out[std::string(layer_of(s.name))] +=
        std::max(0.0, span_ms(s.start, s.end) - children);
  }
  return out;
}

std::size_t Tracer::span_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

void Tracer::write_jsonl(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write span log " + path);
  if (spans_.empty()) return;
  Clock::time_point epoch = spans_.front().start;
  for (const Span& s : spans_) epoch = std::min(epoch, s.start);
  const auto us = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - epoch).count();
  };
  for (const Span& s : spans_) {
    out << "{\"name\": \"" << s.name << "\", \"layer\": \"" << layer_of(s.name)
        << "\", \"start_us\": " << us(s.start) << ", \"end_us\": " << us(s.end)
        << ", \"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"request\": " << s.request << "}\n";
  }
}

}  // namespace perfbench
