#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "util/error.hpp"

namespace remos::obs {

namespace {

bool valid_name(const std::string& name, bool allow_colon) {
  if (name.empty()) return false;
  auto ok = [allow_colon](char c, bool first) {
    if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_')
      return true;
    if (c == ':') return allow_colon;
    return !first && c >= '0' && c <= '9';
  };
  if (!ok(name[0], true)) return false;
  for (std::size_t i = 1; i < name.size(); ++i)
    if (!ok(name[i], false)) return false;
  return true;
}

/// Label values may hold anything; escape per the exposition format.
std::string escape_label_value(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (const char c : v) {
    if (c == '\\') out += "\\\\";
    else if (c == '"') out += "\\\"";
    else if (c == '\n') out += "\\n";
    else out += c;
  }
  return out;
}

/// Canonical `{k="v",...}` text for a sorted label set ("" when empty).
std::string label_text(const Labels& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out += ",";
    out += labels[i].first + "=\"" + escape_label_value(labels[i].second) +
           "\"";
  }
  out += "}";
  return out;
}

/// Like label_text but with extra pairs appended (histogram `le`).
std::string label_text_with(const Labels& labels, const std::string& key,
                            const std::string& value) {
  Labels all = labels;
  all.emplace_back(key, value);
  return label_text(all);
}

/// Minimal stable formatting: integers render without a decimal point,
/// everything else via %g (enough precision for metric values).
std::string format_value(double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.0f", v);
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

Labels sorted(Labels labels) {
  std::sort(labels.begin(), labels.end());
  return labels;
}

const char* kind_name(int kind) {
  switch (kind) {
    case 0: return "counter";
    case 1: return "gauge";
    default: return "histogram";
  }
}

}  // namespace

Histogram::Cells::Cells(std::vector<double> b)
    : bounds(std::move(b)),
      lines_per_shard((bounds.size() + 1 + kLineWords - 1) / kLineWords),
      lines(new Line[kShards * lines_per_shard]()) {}

std::size_t Histogram::Cells::this_thread_shard() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t shard =
      next.fetch_add(1, std::memory_order_relaxed) % kShards;
  return shard;
}

std::uint64_t Histogram::Cells::total(std::size_t bucket) const {
  std::uint64_t n = 0;
  for (std::size_t s = 0; s < kShards; ++s)
    n += count(s, bucket).load(std::memory_order_relaxed);
  return n;
}

double Histogram::Cells::total_sum() const {
  double sum = 0.0;
  for (const Sum& s : sums) sum += s.value.load(std::memory_order_relaxed);
  return sum;
}

void Histogram::observe(double v) const {
  if (!cells_) return;
  const auto it =
      std::lower_bound(cells_->bounds.begin(), cells_->bounds.end(), v);
  const auto idx =
      static_cast<std::size_t>(it - cells_->bounds.begin());
  const std::size_t shard = Cells::this_thread_shard();
  cells_->count(shard, idx).fetch_add(1, std::memory_order_relaxed);
  std::atomic<double>& sum = cells_->sums[shard].value;
  double cur = sum.load(std::memory_order_relaxed);
  while (!sum.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

std::uint64_t Histogram::count() const {
  if (!cells_) return 0;
  std::uint64_t n = 0;
  for (std::size_t i = 0; i <= cells_->bounds.size(); ++i)
    n += cells_->total(i);
  return n;
}

double Histogram::sum() const { return cells_ ? cells_->total_sum() : 0.0; }

double Histogram::quantile(double q) const {
  if (!cells_) return 0.0;
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  const double target = q * static_cast<double>(n);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i <= cells_->bounds.size(); ++i) {
    seen += cells_->total(i);
    if (static_cast<double>(seen) >= target)
      return i < cells_->bounds.size() ? cells_->bounds[i]
                                       : cells_->bounds.back();
  }
  return cells_->bounds.empty() ? 0.0 : cells_->bounds.back();
}

const std::vector<double>& default_time_buckets() {
  static const std::vector<double> kBuckets{
      1e-5, 2e-5, 5e-5, 1e-4, 2e-4, 5e-4, 1e-3, 2e-3, 5e-3,
      1e-2, 2e-2, 5e-2, 0.1,  0.2,  0.5,  1.0,  2.0,  5.0,  10.0};
  return kBuckets;
}

MetricsRegistry::Family& MetricsRegistry::family(const std::string& name,
                                                Kind kind,
                                                const std::string& help) {
  if (!valid_name(name, /*allow_colon=*/true))
    throw InvalidArgument("MetricsRegistry: bad metric name '" + name +
                          "'");
  auto [it, inserted] = families_.try_emplace(name);
  Family& fam = it->second;
  if (inserted) {
    fam.kind = kind;
    fam.help = help;
  } else if (fam.kind != kind) {
    throw InvalidArgument(
        "MetricsRegistry: '" + name + "' already registered as " +
        kind_name(static_cast<int>(fam.kind)) + ", requested as " +
        kind_name(static_cast<int>(kind)));
  }
  if (fam.help.empty() && !help.empty()) fam.help = help;
  return fam;
}

MetricsRegistry::Series& MetricsRegistry::series(Family& fam,
                                                 const Labels& labels) {
  for (const auto& [k, v] : labels)
    if (!valid_name(k, /*allow_colon=*/false))
      throw InvalidArgument("MetricsRegistry: bad label name '" + k + "'");
  const Labels canon = sorted(labels);
  auto [it, inserted] = fam.series_.try_emplace(label_text(canon));
  if (inserted) it->second.labels = canon;
  return it->second;
}

Counter MetricsRegistry::counter(const std::string& name,
                                 const Labels& labels,
                                 const std::string& help) {
  std::lock_guard<std::mutex> lk(mutex_);
  Series& s = series(family(name, Kind::kCounter, help), labels);
  if (!s.counter)
    s.counter = std::make_unique<std::atomic<std::uint64_t>>(0);
  return Counter(s.counter.get());
}

Gauge MetricsRegistry::gauge(const std::string& name, const Labels& labels,
                             const std::string& help) {
  std::lock_guard<std::mutex> lk(mutex_);
  Series& s = series(family(name, Kind::kGauge, help), labels);
  if (!s.gauge) s.gauge = std::make_unique<std::atomic<double>>(0.0);
  return Gauge(s.gauge.get());
}

Histogram MetricsRegistry::histogram(const std::string& name,
                                     std::vector<double> bounds,
                                     const Labels& labels,
                                     const std::string& help) {
  if (bounds.empty())
    throw InvalidArgument("MetricsRegistry: histogram '" + name +
                          "' with no buckets");
  if (!std::is_sorted(bounds.begin(), bounds.end()))
    throw InvalidArgument("MetricsRegistry: histogram '" + name +
                          "' buckets not ascending");
  std::lock_guard<std::mutex> lk(mutex_);
  Family& fam = family(name, Kind::kHistogram, help);
  if (fam.bounds.empty())
    fam.bounds = bounds;
  else if (fam.bounds != bounds)
    throw InvalidArgument("MetricsRegistry: histogram '" + name +
                          "' re-registered with different buckets");
  Series& s = series(fam, labels);
  if (!s.histogram)
    s.histogram = std::make_unique<Histogram::Cells>(fam.bounds);
  return Histogram(s.histogram.get());
}

std::size_t MetricsRegistry::series_count() const {
  std::lock_guard<std::mutex> lk(mutex_);
  std::size_t n = 0;
  for (const auto& [name, fam] : families_) n += fam.series_.size();
  return n;
}

std::string MetricsRegistry::render() const {
  std::lock_guard<std::mutex> lk(mutex_);
  std::ostringstream out;
  for (const auto& [name, fam] : families_) {
    if (!fam.help.empty())
      out << "# HELP " << name << " " << fam.help << "\n";
    out << "# TYPE " << name << " "
        << kind_name(static_cast<int>(fam.kind)) << "\n";
    for (const auto& [key, s] : fam.series_) {
      if (s.counter) {
        out << name << key << " "
            << s.counter->load(std::memory_order_relaxed) << "\n";
      } else if (s.gauge) {
        out << name << key << " "
            << format_value(s.gauge->load(std::memory_order_relaxed))
            << "\n";
      } else if (s.histogram) {
        const Histogram::Cells& c = *s.histogram;
        std::uint64_t cum = 0;
        for (std::size_t i = 0; i < c.bounds.size(); ++i) {
          cum += c.total(i);
          out << name << "_bucket"
              << label_text_with(s.labels, "le", format_value(c.bounds[i]))
              << " " << cum << "\n";
        }
        cum += c.total(c.bounds.size());
        out << name << "_bucket"
            << label_text_with(s.labels, "le", "+Inf") << " " << cum
            << "\n";
        out << name << "_sum" << label_text(s.labels) << " "
            << format_value(c.total_sum()) << "\n";
        out << name << "_count" << label_text(s.labels) << " " << cum
            << "\n";
      }
    }
  }
  return out.str();
}

}  // namespace remos::obs
