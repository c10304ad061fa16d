#include "obs/alerts.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>

#include "obs/json.h"
#include "obs/log.h"

namespace mope::obs {

namespace {

using internal::DoubleField;
using internal::JsonEscape;

bool IsMetricChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '.';
}

bool IsMetricName(std::string_view s) {
  if (s.empty()) return false;
  for (const char c : s) {
    if (!IsMetricChar(c)) return false;
  }
  return true;
}

std::string_view Trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

std::vector<std::string_view> SplitTokens(std::string_view s) {
  std::vector<std::string_view> out;
  size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() &&
           std::isspace(static_cast<unsigned char>(s[i]))) {
      ++i;
    }
    size_t start = i;
    while (i < s.size() &&
           !std::isspace(static_cast<unsigned char>(s[i]))) {
      ++i;
    }
    if (i > start) out.push_back(s.substr(start, i - start));
  }
  return out;
}

const char* ComparatorName(AlertComparator op) {
  switch (op) {
    case AlertComparator::kGt:
      return ">";
    case AlertComparator::kGe:
      return ">=";
    case AlertComparator::kLt:
      return "<";
    case AlertComparator::kLe:
      return "<=";
  }
  return "?";
}

bool Compare(AlertComparator op, double lhs, double rhs) {
  switch (op) {
    case AlertComparator::kGt:
      return lhs > rhs;
    case AlertComparator::kGe:
      return lhs >= rhs;
    case AlertComparator::kLt:
      return lhs < rhs;
    case AlertComparator::kLe:
      return lhs <= rhs;
  }
  return false;
}

/// Finds `name` in a name-sorted TypedSnapshot and converts it to double
/// under its kind (gauges read back as signed). Returns false when absent.
bool LookupSample(const std::vector<TypedSample>& samples,
                  const std::string& name, double* out,
                  MetricKind* kind_out) {
  const auto it = std::lower_bound(
      samples.begin(), samples.end(), name,
      [](const TypedSample& s, const std::string& n) { return s.name < n; });
  if (it == samples.end() || it->name != name) return false;
  *kind_out = it->kind;
  *out = it->kind == MetricKind::kGauge
             ? static_cast<double>(static_cast<int64_t>(it->value))
             : static_cast<double>(it->value);
  return true;
}

}  // namespace

Result<AlertRule> ParseAlertRule(std::string_view spec) {
  AlertRule rule;
  const size_t colon = spec.find(':');
  if (colon == std::string_view::npos) {
    return Status::InvalidArgument("alert rule needs 'name: predicate', got '" +
                                   std::string(spec) + "'");
  }
  const std::string_view name = Trim(spec.substr(0, colon));
  if (!IsMetricName(name)) {
    return Status::InvalidArgument("bad alert rule name '" +
                                   std::string(name) + "'");
  }
  rule.name = std::string(name);

  const std::vector<std::string_view> tokens =
      SplitTokens(spec.substr(colon + 1));
  if (tokens.size() != 3 && tokens.size() != 5) {
    return Status::InvalidArgument(
        "alert rule predicate must be 'TERM OP RHS [for N]' in '" +
        std::string(spec) + "'");
  }

  // TERM: metric | rate(metric) | delta(metric).
  std::string_view term = tokens[0];
  if (term.size() > 6 && term.substr(0, 5) == "rate(" &&
      term.back() == ')') {
    rule.term = AlertTermKind::kRate;
    term = term.substr(5, term.size() - 6);
  } else if (term.size() > 7 && term.substr(0, 6) == "delta(" &&
             term.back() == ')') {
    rule.term = AlertTermKind::kDelta;
    term = term.substr(6, term.size() - 7);
  } else {
    rule.term = AlertTermKind::kValue;
  }
  if (!IsMetricName(term)) {
    return Status::InvalidArgument("bad metric name '" + std::string(term) +
                                   "' in alert rule");
  }
  rule.metric = std::string(term);

  const std::string_view op = tokens[1];
  if (op == ">") {
    rule.op = AlertComparator::kGt;
  } else if (op == ">=") {
    rule.op = AlertComparator::kGe;
  } else if (op == "<") {
    rule.op = AlertComparator::kLt;
  } else if (op == "<=") {
    rule.op = AlertComparator::kLe;
  } else {
    return Status::InvalidArgument("bad comparator '" + std::string(op) +
                                   "' in alert rule (>, >=, <, <=)");
  }

  // RHS: a number if strtod consumes the whole token, else a metric name.
  const std::string rhs(tokens[2]);
  char* end = nullptr;
  const double threshold = std::strtod(rhs.c_str(), &end);
  if (end != nullptr && *end == '\0' && end != rhs.c_str()) {
    // strtod also reads nan, inf and out-of-range literals: a nan threshold
    // never fires and an infinite one renders as invalid JSON.
    if (!std::isfinite(threshold)) {
      return Status::InvalidArgument("non-finite threshold '" + rhs +
                                     "' in alert rule");
    }
    rule.rhs_is_metric = false;
    rule.threshold = threshold;
  } else if (IsMetricName(rhs)) {
    rule.rhs_is_metric = true;
    rule.rhs_metric = rhs;
  } else {
    return Status::InvalidArgument("bad threshold '" + rhs +
                                   "' in alert rule (number or metric)");
  }

  if (tokens.size() == 5) {
    if (tokens[3] != "for") {
      return Status::InvalidArgument("expected 'for N' at '" +
                                     std::string(tokens[3]) + "'");
    }
    const std::string n(tokens[4]);
    char* nend = nullptr;
    const unsigned long count = std::strtoul(n.c_str(), &nend, 10);
    if (nend == nullptr || *nend != '\0' || nend == n.c_str() || count == 0 ||
        count > 1000000) {
      return Status::InvalidArgument("bad 'for' count '" + n +
                                     "' in alert rule");
    }
    rule.for_samples = static_cast<uint32_t>(count);
  }
  return rule;
}

std::string FormatAlertRule(const AlertRule& rule) {
  std::string out = rule.name + ": ";
  switch (rule.term) {
    case AlertTermKind::kValue:
      out += rule.metric;
      break;
    case AlertTermKind::kRate:
      out += "rate(" + rule.metric + ")";
      break;
    case AlertTermKind::kDelta:
      out += "delta(" + rule.metric + ")";
      break;
  }
  out += " ";
  out += ComparatorName(rule.op);
  out += " ";
  out += rule.rhs_is_metric ? rule.rhs_metric : DoubleField(rule.threshold);
  if (rule.for_samples > 1) {
    out += " for " + std::to_string(rule.for_samples);
  }
  return out;
}

AlertEngine::AlertEngine(MetricsRegistry* registry, Clock* clock)
    : registry_(registry),
      clock_(clock != nullptr ? clock : SystemClock()),
      active_gauge_(registry->GetGauge("alerts.active")),
      transitions_counter_(registry->GetCounter("alerts.transitions")) {}

Status AlertEngine::AddRule(const AlertRule& rule) {
  if (rule.name.empty() || rule.metric.empty() || rule.for_samples == 0) {
    return Status::InvalidArgument("incomplete alert rule");
  }
  // The per-rule gauge lives in the registry (rank 80): create it before
  // taking our own mutex so lock acquisition stays strictly increasing for
  // readers that hold neither.
  Gauge* gauge = registry_->GetGauge("alerts.rule." + rule.name);
  const MutexLock lock(&mutex_);
  for (const Tracked& t : rules_) {
    if (t.rule.name == rule.name) {
      return Status::AlreadyExists("alert rule '" + rule.name +
                                   "' already defined");
    }
  }
  Tracked tracked;
  tracked.rule = rule;
  tracked.gauge = gauge;
  gauge->Set(0);
  rules_.push_back(std::move(tracked));
  return Status::OK();
}

Status AlertEngine::AddRuleSpec(std::string_view spec) {
  MOPE_ASSIGN_OR_RETURN(AlertRule rule, ParseAlertRule(spec));
  return AddRule(rule);
}

void AlertEngine::AddDefaultRules() {
  // The production rule set the issue calls for: attack-convergence trends
  // plus the storage health thresholds an operator would page on.
  static constexpr const char* kDefaults[] = {
      // The largest-gap margin widening across 3 consecutive samples means
      // the Section 5.1 offset estimate is actively converging.
      "gap_margin_converging: delta(leakage.gap.margin) > 0 for 3",
      // Chi-square statistic crossing its own critical value (both in
      // milli-units) — the uniformity test rejecting at the configured
      // significance level.
      "chi2_critical: leakage.uniformity.chi2_milli > "
      "leakage.uniformity.chi2_critical_milli",
      "dispatch_p99_slow: server.dispatch_ns.p99 > 100000000 for 3",
      "wal_fsync_stall: storage.wal.fsync_ns.p99 > 1000000000",
  };
  for (const char* spec : kDefaults) {
    const Status added = AddRuleSpec(spec);
    if (!added.ok()) {
      // Unreachable for the literals above; surfaced for future edits.
      MOPE_LOG(kError, "alerts", "default_rule_rejected")
          .Arg("rule", spec)
          .Arg("status", added.ToString());
    }
  }
}

void AlertEngine::Observe(uint64_t ts_ns,
                          const std::vector<TypedSample>& samples) {
  if (ts_ns == 0) ts_ns = clock_->NowNanos();
  const MutexLock lock(&mutex_);
  for (Tracked& t : rules_) {
    EvaluateLocked(&t, ts_ns, samples);
  }
  int64_t firing = 0;
  for (const Tracked& t : rules_) {
    if (t.firing) ++firing;
  }
  active_gauge_->Set(firing);
}

void AlertEngine::EvaluateLocked(Tracked* t, uint64_t ts_ns,
                                 const std::vector<TypedSample>& samples) {
  const AlertRule& rule = t->rule;
  double cur = 0.0;
  MetricKind kind = MetricKind::kGauge;
  if (!LookupSample(samples, rule.metric, &cur, &kind)) {
    // Metric not registered yet: the rule waits, state untouched.
    t->evaluated = false;
    return;
  }

  double value = cur;
  if (rule.term != AlertTermKind::kValue) {
    if (!t->has_prev) {
      t->has_prev = true;
      t->prev_value = cur;
      t->prev_ts_ns = ts_ns;
      t->evaluated = false;
      return;
    }
    double delta = cur - t->prev_value;
    // Counters that moved backwards were reset; the post-reset value is the
    // whole contribution of this interval.
    if (kind == MetricKind::kCounter && delta < 0) delta = cur;
    const uint64_t dt_ns = ts_ns - t->prev_ts_ns;
    t->prev_value = cur;
    t->prev_ts_ns = ts_ns;
    if (rule.term == AlertTermKind::kRate) {
      if (dt_ns == 0) {
        t->evaluated = false;
        return;
      }
      value = delta / (static_cast<double>(dt_ns) / 1e9);
    } else {
      value = delta;
    }
  }

  double threshold = rule.threshold;
  if (rule.rhs_is_metric) {
    MetricKind rhs_kind = MetricKind::kGauge;
    if (!LookupSample(samples, rule.rhs_metric, &threshold, &rhs_kind)) {
      t->evaluated = false;
      return;
    }
  }

  t->evaluated = true;
  t->last_value = value;
  t->last_threshold = threshold;

  const bool breached = Compare(rule.op, value, threshold);
  if (breached) {
    if (t->breach_streak < rule.for_samples) ++t->breach_streak;
    if (!t->firing && t->breach_streak >= rule.for_samples) {
      t->firing = true;
      t->since_ts_ns = ts_ns;
      ++t->transitions;
      t->gauge->Set(1);
      transitions_counter_->Increment();
      MOPE_LOG(kWarn, "alerts", "alert")
          .Arg("rule", rule.name)
          .Arg("state", "firing")
          .Arg("metric", rule.metric)
          .Arg("value", value)
          .Arg("threshold", threshold)
          .Arg("streak", static_cast<uint64_t>(t->breach_streak));
    }
  } else {
    t->breach_streak = 0;
    if (t->firing) {
      t->firing = false;
      ++t->transitions;
      t->gauge->Set(0);
      transitions_counter_->Increment();
      MOPE_LOG(kInfo, "alerts", "alert")
          .Arg("rule", rule.name)
          .Arg("state", "resolved")
          .Arg("metric", rule.metric)
          .Arg("value", value)
          .Arg("threshold", threshold);
    }
  }
}

std::vector<AlertEngine::RuleState> AlertEngine::States() const {
  const MutexLock lock(&mutex_);
  std::vector<RuleState> out;
  out.reserve(rules_.size());
  for (const Tracked& t : rules_) {
    RuleState s;
    s.rule = t.rule;
    s.firing = t.firing;
    s.since_ts_ns = t.since_ts_ns;
    s.transitions = t.transitions;
    s.breach_streak = t.breach_streak;
    s.evaluated = t.evaluated;
    s.last_value = t.last_value;
    s.last_threshold = t.last_threshold;
    out.push_back(std::move(s));
  }
  return out;
}

std::string AlertEngine::RenderJson() const {
  const MutexLock lock(&mutex_);
  int64_t firing = 0;
  for (const Tracked& t : rules_) {
    if (t.firing) ++firing;
  }
  std::string out = "{\"firing\":" + std::to_string(firing) + ",\"rules\":[";
  bool first = true;
  for (const Tracked& t : rules_) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":\"" + JsonEscape(t.rule.name) + "\"";
    out += ",\"rule\":\"" + JsonEscape(FormatAlertRule(t.rule)) + "\"";
    out += ",\"firing\":";
    out += t.firing ? "true" : "false";
    out += ",\"since_ts_ns\":" + std::to_string(t.since_ts_ns);
    out += ",\"transitions\":" + std::to_string(t.transitions);
    out += ",\"breach_streak\":" + std::to_string(t.breach_streak);
    out += ",\"evaluated\":";
    out += t.evaluated ? "true" : "false";
    out += ",\"value\":" + DoubleField(t.last_value);
    out += ",\"threshold\":" + DoubleField(t.last_threshold);
    out += "}";
  }
  out += "]}";
  return out;
}

size_t AlertEngine::rule_count() const {
  const MutexLock lock(&mutex_);
  return rules_.size();
}

size_t AlertEngine::firing_count() const {
  const MutexLock lock(&mutex_);
  size_t n = 0;
  for (const Tracked& t : rules_) {
    if (t.firing) ++n;
  }
  return n;
}

}  // namespace mope::obs
