#include "bench.h"

#include <algorithm>
#include <cmath>
#include <fstream>

#include "core/rng.h"

namespace perfbench {

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double WindowedQuantile(const std::vector<double>& done_s,
                        const std::vector<double>& latency, double window_s,
                        double q) {
  if (window_s <= 0) return Quantile(latency, q);
  std::vector<std::vector<double>> windows;
  for (size_t i = 0; i < latency.size(); ++i) {
    const size_t w = static_cast<size_t>(done_s[i] / window_s);
    if (w >= windows.size()) windows.resize(w + 1);
    windows[w].push_back(latency[i]);
  }
  std::vector<double> per_window;
  for (std::vector<double>& v : windows) {
    if (!v.empty()) per_window.push_back(Quantile(std::move(v), q));
  }
  return Median(std::move(per_window));
}

double WindowedRate(const std::vector<double>& done_s, double window_s,
                    double elapsed_s) {
  const size_t full = window_s > 0 ? static_cast<size_t>(elapsed_s / window_s)
                                   : 0;
  if (full == 0) return static_cast<double>(done_s.size()) / elapsed_s;
  std::vector<double> counts(full, 0);
  for (double t : done_s) {
    const size_t w = static_cast<size_t>(t / window_s);
    if (w < full) counts[w] += 1;
  }
  return Median(std::move(counts)) / window_s;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard<std::mutex> lk(mu_);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%.3f,\"dur\":%.3f", s.start_us,
                  s.end_us - s.start_us);
    out << (i == 0 ? "\n" : ",\n") << "{\"name\":\"" << s.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid << ",\"ts\":" << buf
        << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"op\":" << s.op << "}}";
  }
  out << "\n]}\n";
  return out.good();
}

Span::Span(Tracer* tracer, const char* name, uint64_t parent, uint64_t op,
           int tid)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  record_.id = tracer_->NextId();
  record_.parent = parent;
  record_.op = op;
  record_.name = name;
  record_.tid = tid;
  record_.start_us = tracer_->NowUs();
}

Span::~Span() {
  if (tracer_ == nullptr) return;
  record_.end_us = tracer_->NowUs();
  tracer_->Add(std::move(record_));
}

std::string CheckCgSolution(int64_t n, uint64_t seed, const tfhpc::Tensor& x,
                            double* relative_residual) {
  if (x.dtype() != tfhpc::DType::kF64 || x.num_elements() != n) {
    return "solution has the wrong dtype or length";
  }
  const tfhpc::Tensor a = tfhpc::RandomSpdMatrix(n, seed);
  const auto av = a.data<double>();
  const auto xv = x.data<double>();
  double r2 = 0;
  for (int64_t i = 0; i < n; ++i) {
    double ax = 0;
    for (int64_t j = 0; j < n; ++j) {
      ax += av[static_cast<size_t>(i * n + j)] * xv[static_cast<size_t>(j)];
    }
    const double r = ax - 1.0;  // b = ones
    r2 += r * r;
  }
  const double rel = std::sqrt(r2) / std::sqrt(static_cast<double>(n));
  if (relative_residual != nullptr) *relative_residual = rel;
  if (!std::isfinite(rel)) return "relative residual is not finite";
  if (rel > kCgMaxRelativeResidual) {
    return "relative residual " + std::to_string(rel) + " above bound";
  }
  return "";
}

std::string CheckServeOutput(const tfhpc::Tensor& x, const tfhpc::Tensor& y) {
  if (y.dtype() != tfhpc::DType::kF64 || y.shape() != x.shape()) {
    return "fetch has the wrong dtype or shape";
  }
  const auto xv = x.data<double>();
  const auto yv = y.data<double>();
  for (size_t i = 0; i < xv.size(); ++i) {
    if (yv[i] != kServeScale * xv[i]) {
      return "fetch differs from 512 x at element " + std::to_string(i);
    }
  }
  return "";
}

std::string CheckStreamSum(const tfhpc::Tensor& update, int64_t rounds,
                           const tfhpc::Tensor& total) {
  if (total.dtype() != tfhpc::DType::kF32 ||
      total.num_elements() != update.num_elements()) {
    return "variable has the wrong dtype or length";
  }
  const auto u = update.data<float>();
  const auto t = total.data<float>();
  for (size_t i = 0; i < u.size(); ++i) {
    if (t[i] != static_cast<float>(rounds) * u[i]) {
      return "variable differs from rounds * update at element " +
             std::to_string(i);
    }
  }
  return "";
}

}  // namespace perfbench
