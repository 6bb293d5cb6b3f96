#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "storage/csv.h"

namespace perfbench {

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

// ---- Process probes ----

Rusage Rusage::operator-(const Rusage& o) const {
  return {user_ms - o.user_ms, sys_ms - o.sys_ms, ctx_switches - o.ctx_switches,
          minor_faults - o.minor_faults};
}

Rusage& Rusage::operator+=(const Rusage& o) {
  user_ms += o.user_ms;
  sys_ms += o.sys_ms;
  ctx_switches += o.ctx_switches;
  minor_faults += o.minor_faults;
  return *this;
}

namespace {

Rusage ToRusage(const rusage& ru) {
  auto ms = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) * 1e3 + static_cast<double>(t.tv_usec) / 1e3;
  };
  return {ms(ru.ru_utime), ms(ru.ru_stime),
          static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw),
          static_cast<double>(ru.ru_minflt)};
}

}  // namespace

Rusage ProcessRusage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ToRusage(ru);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int ThreadCount() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::atoi(line.c_str() + 8);
  }
  return 0;
}

struct ThreadSampler::State {
  std::atomic<bool> stop{false};
  std::atomic<int> peak{0};
  Rusage own;  // written by the sampler thread before it exits
  int64_t start_ns = 0;
  int64_t stop_ns = 0;
  std::thread thread;
};

ThreadSampler::ThreadSampler() : state_(new State) {
  state_->start_ns = NowNs();
  state_->thread = std::thread([s = state_] {
    while (!s->stop.load()) {
      const int n = ThreadCount() - 1;  // not the sampler itself
      if (n > s->peak.load()) s->peak.store(n);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    rusage ru{};
    getrusage(RUSAGE_THREAD, &ru);
    s->own = ToRusage(ru);
  });
}

ThreadSampler::~ThreadSampler() {
  Stop();
  delete state_;
}

void ThreadSampler::Stop() {
  if (!state_->thread.joinable()) return;
  state_->stop.store(true);
  state_->thread.join();
  state_->stop_ns = NowNs();
}

int ThreadSampler::peak() const { return state_->peak.load(); }

void ThreadSampler::Exclude(double window_s, Rusage* usage) const {
  const double lifetime_s = static_cast<double>(state_->stop_ns - state_->start_ns) / 1e9;
  const double share = lifetime_s > 0 ? std::min(1.0, window_s / lifetime_s) : 0;
  const Rusage& own = state_->own;
  usage->user_ms -= own.user_ms * share;
  usage->sys_ms -= own.sys_ms * share;
  usage->ctx_switches -= own.ctx_switches * share;
  usage->minor_faults -= own.minor_faults * share;
}

// ---- Session counters ----

std::map<std::string, double> ParseMetricsText(const std::string& text) {
  std::map<std::string, double> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.find(' ');
    if (space == std::string::npos) continue;
    std::string name = line.substr(0, space);
    if (name.rfind("cleandb_", 0) == 0) name = name.substr(8);
    const std::string suffix = "_total";
    if (name.size() > suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
      name.resize(name.size() - suffix.size());
    }
    out[name] = std::strtod(line.c_str() + space + 1, nullptr);
  }
  return out;
}

std::map<std::string, double> CounterDelta(const std::map<std::string, double>& before,
                                           const std::map<std::string, double>& after) {
  std::map<std::string, double> out;
  for (const auto& [name, value] : after) {
    const bool gauge = name == "peak_bytes_materialized" || name == "bytes_materialized_now";
    const auto it = before.find(name);
    out[name] = gauge || it == before.end() ? value : value - it->second;
  }
  return out;
}

// ---- Result fingerprints ----

namespace {

uint64_t Mix(uint64_t h) {  // SplitMix64 finalizer
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ull;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebull;
  return h ^ (h >> 31);
}

uint64_t HashBytes(const std::string& s, uint64_t seed) {
  uint64_t h = 1469598103934665603ull ^ seed;  // FNV-1a
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return Mix(h);
}

/// Order-dependent combination of an already-sorted hash sequence.
uint64_t Combine(const std::vector<uint64_t>& hashes, uint64_t seed) {
  uint64_t h = seed;
  for (uint64_t x : hashes) h = Mix(h ^ (x + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2)));
  return h;
}

}  // namespace

namespace {

/// FD value aggregates: `vals` or `vals_<digits>`.
bool IsValueAggregate(const std::string& name) {
  if (name.rfind("vals", 0) != 0) return false;
  if (name.size() == 4) return true;
  return name[4] == '_' && name.size() > 5 &&
         name.find_first_not_of("0123456789", 5) == std::string::npos;
}

uint64_t StructHash(const cleanm::ValueStruct& fields, bool skip_aggregates, HashMemo* memo) {
  std::vector<uint64_t> parts;
  for (const auto& [name, field] : fields) {
    if (skip_aggregates && IsValueAggregate(name)) continue;
    parts.push_back(Mix(HashBytes(name, 1) ^ CanonicalHash(field, memo)));
  }
  std::sort(parts.begin(), parts.end());
  return Combine(parts, 0x5354);
}

}  // namespace

uint64_t CanonicalHash(const Value& v, HashMemo* memo) {
  const bool is_struct = v.type() == cleanm::ValueType::kStruct;
  switch (v.type()) {
    case cleanm::ValueType::kNull: return Mix(0x4e55);
    case cleanm::ValueType::kBool: return Mix(0x424f + (v.AsBool() ? 1 : 0));
    case cleanm::ValueType::kInt: return Mix(static_cast<uint64_t>(v.AsInt()) ^ 0x494e54);
    case cleanm::ValueType::kDouble: {
      const double d = v.AsDouble();
      uint64_t bits = 0;
      std::memcpy(&bits, &d, sizeof(bits));
      return Mix(bits ^ 0x444f);
    }
    case cleanm::ValueType::kString: return HashBytes(v.AsString(), 3);
    default: break;
  }
  const void* key = is_struct ? static_cast<const void*>(&v.AsStruct())
                              : static_cast<const void*>(&v.AsList());
  const auto it = memo->find(key);
  if (it != memo->end()) return it->second;
  uint64_t h = 0;
  if (is_struct) {
    h = StructHash(v.AsStruct(), /*skip_aggregates=*/false, memo);
  } else {
    std::vector<uint64_t> parts;
    for (const auto& e : v.AsList()) parts.push_back(CanonicalHash(e, memo));
    std::sort(parts.begin(), parts.end());
    h = Combine(parts, 0x4c49);
  }
  (*memo)[key] = h;
  return h;
}

void Fingerprint::Add(const std::string& op_name, const Value& v, bool identity_only,
                      HashMemo* memo) {
  const uint64_t h = identity_only && v.type() == cleanm::ValueType::kStruct
                         ? StructHash(v.AsStruct(), /*skip_aggregates=*/true, memo)
                         : CanonicalHash(v, memo);
  sum += Mix(HashBytes(op_name, 2) + h);
  count++;
}

Fingerprint& Fingerprint::operator+=(const Fingerprint& o) {
  sum += o.sum;
  count += o.count;
  return *this;
}

Fingerprint& Fingerprint::operator-=(const Fingerprint& o) {
  sum -= o.sum;
  count -= o.count;
  return *this;
}

bool SameDataset(const Dataset& a, const Dataset& b) {
  const auto& fa = a.schema().fields();
  const auto& fb = b.schema().fields();
  if (fa.size() != fb.size() || a.num_rows() != b.num_rows()) return false;
  for (size_t i = 0; i < fa.size(); i++) {
    if (fa[i].name != fb[i].name || fa[i].type != fb[i].type) return false;
  }
  for (size_t r = 0; r < a.num_rows(); r++) {
    if (a.row(r) != b.row(r)) return false;
  }
  return true;
}

Status WriteCsvChecked(const Dataset& d, const std::string& path) {
  CLEANM_RETURN_NOT_OK(cleanm::WriteCsv(d, path));
  auto loaded = cleanm::ReadCsv(path);
  if (!loaded.ok()) return loaded.status();
  if (!SameDataset(d, loaded.value())) {
    return Status::Internal("table loaded from " + path + " differs from the generated one");
  }
  return Status::OK();
}

// ---- Bench-side spans ----

int SpanRecorder::Begin(const char* name, int64_t op, int parent) {
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, op, parent, now});
  return static_cast<int>(spans_.size() - 1);
}

void SpanRecorder::End(int id) {
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_ns = now;
}

std::vector<double> SpanRecorder::SelfMs(const std::string& name, bool setup) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const auto& s : spans_) {
    if (s.parent >= 0) child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
  }
  std::vector<double> out;
  for (size_t i = 0; i < spans_.size(); i++) {
    const Span& s = spans_[i];
    if (name != s.name || (s.op < 0) != setup) continue;
    out.push_back(static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) / 1e6);
  }
  return out;
}

Status SpanRecorder::WriteChromeTrace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot write " + path);
  const int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "[";
  for (size_t i = 0; i < spans_.size(); i++) {
    const Span& s = spans_[i];
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"args\":{\"id\":%zu,\"op\":%lld,\"parent\":%d}}",
                  i ? "," : "", s.name, static_cast<double>(s.start_ns - t0) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                  static_cast<long long>(s.op), s.parent);
    out << buf;
  }
  out << "\n]\n";
  return out ? Status::OK() : Status::IOError("short write to " + path);
}

// ---- RecordingSink ----

void RecordingSink::Reset(SpanRecorder* rec, int64_t op, int parent_span) {
  rec_ = rec;
  op_ = op;
  parent_ = parent_span;
  entries_.clear();
  counts_[0] = counts_[1] = counts_[2] = 0;
  dirty_entities_ = 0;
  op_seconds_.clear();
}

Status RecordingSink::Record(Kind kind, const std::string& op_name, const Value& v) {
  ScopedSpan span(rec_, "sink", op_, parent_);
  entries_.push_back({kind, op_name, v});
  counts_[kind]++;
  return Status::OK();
}

Status RecordingSink::OnOpBegin(const std::string& op_name) {
  ScopedSpan span(rec_, "sink", op_, parent_);
  (void)op_name;
  return Status::OK();
}

Status RecordingSink::OnViolation(const std::string& op_name, const Value& v) {
  return Record(kPersist, op_name, v);
}

Status RecordingSink::OnViolationNew(const std::string& op_name, const Value& v) {
  return Record(kNew, op_name, v);
}

Status RecordingSink::OnViolationRetracted(const std::string& op_name, const Value& v) {
  return Record(kRetracted, op_name, v);
}

Status RecordingSink::OnOpEnd(const cleanm::OpSummary& summary) {
  ScopedSpan span(rec_, "sink", op_, parent_);
  std::string family = summary.op_name;
  const size_t underscore = family.rfind('_');
  if (underscore != std::string::npos &&
      family.find_first_not_of("0123456789", underscore + 1) == std::string::npos) {
    family.resize(underscore);
  }
  op_seconds_[family] += summary.seconds;
  return Status::OK();
}

Status RecordingSink::OnDirtyEntity(const Value& entity,
                                    const std::vector<std::string>& violated_ops) {
  ScopedSpan span(rec_, "sink", op_, parent_);
  (void)entity;
  (void)violated_ops;
  dirty_entities_++;
  return Status::OK();
}

RecordingSink::Digest RecordingSink::Fingerprints() const {
  Digest out;
  HashMemo memo;
  for (const auto& e : entries_) {
    out.by_kind[e.kind].Add(e.op_name, e.value, false, &memo);
    if (e.kind != kRetracted) out.identity.Add(e.op_name, e.value, true, &memo);
  }
  out.current = out.by_kind[kPersist];
  out.current += out.by_kind[kNew];
  return out;
}

// ---- Result line ----

std::string Report::ToJson() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); i++) {
    char buf[64];
    // %.17g keeps every digit of the measured double.
    std::snprintf(buf, sizeof(buf), "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}}";
}

void Log(const char* fmt, ...) {
  std::va_list ap;
  va_start(ap, fmt);
  std::fputs("perfbench: ", stderr);
  std::vfprintf(stderr, fmt, ap);
  std::fputc('\n', stderr);
  va_end(ap);
}

void Fail(Report* report, const std::string& what) {
  std::fprintf(stderr, "perfbench: FAILED: %s\n", what.c_str());
  report->correct = false;
}

}  // namespace perfbench
