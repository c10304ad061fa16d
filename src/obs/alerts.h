#ifndef MOPE_OBS_ALERTS_H_
#define MOPE_OBS_ALERTS_H_

/// \file alerts.h
/// Declarative alert rules over sampled metric series.
///
/// The TimeSeriesSampler (obs/timeseries.h) pushes every fresh snapshot into
/// an AlertEngine, which evaluates a set of declarative rules and tracks
/// firing/resolved *edges* — the engine is edge-triggered: one structured
/// `event=alert` log line when a rule starts firing, one when it resolves,
/// and silence in between, so a stuck-breached rule cannot flood the log.
///
/// Rule grammar (one rule per string, e.g. the daemon's --alert-rule flag):
///
///     RULE   := NAME ':' TERM OP RHS ['for' N]
///     TERM   := METRIC | 'rate(' METRIC ')' | 'delta(' METRIC ')'
///     OP     := '>' | '>=' | '<' | '<='
///     RHS    := NUMBER | METRIC
///
///   - METRIC is a flattened registry name (histogram-derived series like
///     `server.dispatch_ns.p99` included).
///   - `rate(m)` is the per-second change between consecutive samples,
///     reset-aware for counters; `delta(m)` is the raw per-sample change
///     (signed for gauges). Both need two samples before they evaluate.
///   - A metric RHS compares two live series (e.g. the chi-square statistic
///     against its own critical value).
///   - `for N` requires N consecutive breached samples before the firing
///     edge (default 1); one clean sample resolves.
///
/// Examples:
///
///     gap_margin_converging: delta(leakage.gap.margin) > 0 for 3
///     chi2_critical: leakage.uniformity.chi2_milli >
///                    leakage.uniformity.chi2_critical_milli
///     dispatch_p99_slow: server.dispatch_ns.p99 > 100000000
///
/// The engine publishes its own state back into the registry — the
/// `alerts.active` gauge (rules currently firing), one `alerts.rule.<name>`
/// 0/1 gauge per rule, and the `alerts.transitions` edge counter — and
/// renders `GET /alertz` as JSON.
///
/// Locking: the engine's mutex ranks at lock_rank::kAlertEngine (73), above
/// the sampler (72) that calls Observe() under its own lock and below the
/// log sink (75) and registry (80) the engine talks to while evaluating.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "obs/clock.h"
#include "obs/registry.h"

namespace mope::obs {

enum class AlertComparator : uint8_t { kGt, kGe, kLt, kLe };
enum class AlertTermKind : uint8_t { kValue, kRate, kDelta };

struct AlertRule {
  std::string name;
  AlertTermKind term = AlertTermKind::kValue;
  std::string metric;
  AlertComparator op = AlertComparator::kGt;
  /// When false, `threshold` holds the numeric RHS; when true, `rhs_metric`
  /// names the series whose current value is the threshold.
  bool rhs_is_metric = false;
  double threshold = 0.0;
  std::string rhs_metric;
  /// Consecutive breached samples required before the firing edge.
  uint32_t for_samples = 1;
};

/// Parses one rule in the grammar above. InvalidArgument with a pointer at
/// the offending token on malformed input.
Result<AlertRule> ParseAlertRule(std::string_view spec);

/// Round-trips a rule back into the grammar (normalized spacing).
std::string FormatAlertRule(const AlertRule& rule);

class AlertEngine {
 public:
  /// `registry` receives the alerts.* gauges and must outlive the engine;
  /// `clock` is only consulted when Observe is called without a timestamp
  /// source (nullptr selects SystemClock()).
  explicit AlertEngine(MetricsRegistry* registry, Clock* clock = nullptr);

  AlertEngine(const AlertEngine&) = delete;
  AlertEngine& operator=(const AlertEngine&) = delete;

  /// Adds one rule. Duplicate rule names are rejected (AlreadyExists).
  Status AddRule(const AlertRule& rule) MOPE_EXCLUDES(mutex_);
  /// Parses `spec` and adds it.
  Status AddRuleSpec(std::string_view spec) MOPE_EXCLUDES(mutex_);

  /// The default production rule set: gap-attack convergence, chi-square
  /// criticality, dispatch p99, WAL fsync stalls.
  void AddDefaultRules() MOPE_EXCLUDES(mutex_);

  /// Evaluates every rule against one fresh snapshot (the sampler calls
  /// this after each pass; `samples` is name-sorted TypedSnapshot output).
  /// Emits `event=alert` log lines on firing/resolved edges and refreshes
  /// the alerts.* gauges.
  void Observe(uint64_t ts_ns, const std::vector<TypedSample>& samples)
      MOPE_EXCLUDES(mutex_);

  /// Introspection snapshot of one rule's evaluation state.
  struct RuleState {
    AlertRule rule;
    bool firing = false;
    uint64_t since_ts_ns = 0;    ///< timestamp of the last firing edge
    uint64_t transitions = 0;    ///< firing + resolved edges so far
    uint32_t breach_streak = 0;  ///< consecutive breached samples
    bool evaluated = false;      ///< term had a value at the last Observe
    double last_value = 0.0;     ///< last evaluated term value
    double last_threshold = 0.0; ///< last RHS value
  };
  std::vector<RuleState> States() const MOPE_EXCLUDES(mutex_);

  /// The /alertz payload: {"firing":n,"rules":[{...}]}.
  std::string RenderJson() const MOPE_EXCLUDES(mutex_);

  size_t rule_count() const MOPE_EXCLUDES(mutex_);
  /// Rules currently firing.
  size_t firing_count() const MOPE_EXCLUDES(mutex_);

 private:
  struct Tracked {
    AlertRule rule;
    Gauge* gauge = nullptr;  ///< alerts.rule.<name>, 0/1
    bool firing = false;
    uint64_t since_ts_ns = 0;
    uint64_t transitions = 0;
    uint32_t breach_streak = 0;
    bool evaluated = false;
    double last_value = 0.0;
    double last_threshold = 0.0;
    // Previous raw sample of the rule's metric, for rate()/delta() terms.
    bool has_prev = false;
    double prev_value = 0.0;
    uint64_t prev_ts_ns = 0;
  };

  void EvaluateLocked(Tracked* t, uint64_t ts_ns,
                      const std::vector<TypedSample>& samples)
      MOPE_REQUIRES(mutex_);

  MetricsRegistry* const registry_;
  Clock* const clock_;

  mutable Mutex mutex_{lock_rank::kAlertEngine};
  std::vector<Tracked> rules_ MOPE_GUARDED_BY(mutex_);

  // Atomic targets; safe to refresh while holding our mutex.
  Gauge* active_gauge_;
  Counter* transitions_counter_;
};

}  // namespace mope::obs

#endif  // MOPE_OBS_ALERTS_H_
