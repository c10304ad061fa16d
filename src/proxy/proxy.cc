#include "proxy/proxy.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "obs/trace.h"

namespace mope::proxy {

using query::FixedQuery;
using query::QueryKind;
using query::RangeQuery;

namespace {

Status ValidateProxyConfig(const ProxyConfig& config,
                           const ope::OpeParams& params) {
  if (params.domain != config.domain) {
    return Status::InvalidArgument("scheme domain must match proxy domain");
  }
  if (config.k == 0 || config.k > config.domain) {
    return Status::InvalidArgument("fixed length k must be in [1, domain]");
  }
  if (config.batch_size == 0) {
    return Status::InvalidArgument("batch size must be positive");
  }
  return Status::OK();
}

}  // namespace

Proxy::Proxy(const ProxyConfig& config, ope::MopeScheme mope,
             std::unique_ptr<ServerConnection> connection,
             engine::DbServer* server)
    : config_(config), mope_(std::move(mope)),
      connection_(std::move(connection)), server_(server),
      rng_(config.rng_seed) {
  obs::MetricsRegistry* registry =
      config_.registry != nullptr ? config_.registry : obs::Registry();
  real_queries_ = registry->GetCounter("proxy.real_queries");
  fake_queries_ = registry->GetCounter("proxy.fake_queries");
  server_requests_ = registry->GetCounter("proxy.server_requests");
  rows_received_ = registry->GetCounter("proxy.rows_received");
  rows_returned_ = registry->GetCounter("proxy.rows_returned");
  retries_ = registry->GetCounter("proxy.retries");
  batch_queries_hist_ = registry->GetHistogram("proxy.batch_queries");
  mix_fakes_per_real_ =
      registry->GetGauge("proxy.mix.fakes_per_real_milli");
  mix_expected_fakes_ =
      registry->GetGauge("proxy.mix.expected_fakes_per_real_milli");
  mix_sampler_tv_ = registry->GetGauge("proxy.mix.sampler_tv_milli");
}

void Proxy::UpdateMixHealthLocked() {
  if (totals_.real_queries_sent > 0) {
    const double realized =
        static_cast<double>(totals_.fake_queries_sent) /
        static_cast<double>(totals_.real_queries_sent);
    mix_fakes_per_real_->Set(static_cast<int64_t>(realized * 1000.0 + 0.5));
  }
  const dist::MixPlan* plan =
      algorithm_ != nullptr ? algorithm_->mix_plan() : nullptr;
  if (plan == nullptr) return;
  mix_expected_fakes_->Set(
      static_cast<int64_t>(plan->expected_fakes_per_real() * 1000.0 + 0.5));
  // Sampler drift: total variation between the empirical distribution of
  // everything issued (real + fake starts) and the plan's perceived target.
  // This is the exact quantity the mixing identity alpha*Q + (1-alpha)*Qbar
  // promises tends to 0 — drift here means the fake sampler (or the assumed
  // Q) is wrong, and the server-side chi-square will eventually agree.
  if (issued_starts_.total() > 0 &&
      issued_starts_.size() == plan->perceived.size()) {
    double tv = 0.0;
    for (uint64_t i = 0; i < issued_starts_.size(); ++i) {
      tv += std::abs(issued_starts_.Probability(i) - plan->perceived.prob(i));
    }
    tv *= 0.5;
    mix_sampler_tv_->Set(static_cast<int64_t>(tv * 1000.0 + 0.5));
  }
}

Result<std::unique_ptr<Proxy>> Proxy::Create(const ProxyConfig& config,
                                             const ope::MopeKey& key,
                                             const ope::OpeParams& params,
                                             engine::DbServer* server,
                                             const dist::Distribution* known_q) {
  if (server == nullptr) {
    return Status::InvalidArgument("proxy needs a server");
  }
  MOPE_RETURN_NOT_OK(ValidateProxyConfig(config, params));
  MOPE_ASSIGN_OR_RETURN(ope::MopeScheme mope,
                        ope::MopeScheme::Create(params, key, config.registry));

  auto proxy = std::unique_ptr<Proxy>(
      new Proxy(config, std::move(mope),
                std::make_unique<DirectConnection>(server), server));

  // Resolve the key column up front so result filtering is cheap.
  MOPE_ASSIGN_OR_RETURN(engine::Schema schema,
                        proxy->connection_->GetSchema(config.table));
  MOPE_ASSIGN_OR_RETURN(proxy->key_column_index_,
                        schema.IndexOf(config.column));
  if (schema.column(proxy->key_column_index_).type !=
      engine::ValueType::kInt) {
    return Status::InvalidArgument("encrypted key column must be int");
  }

  MOPE_RETURN_NOT_OK(proxy->SetupAlgorithm(known_q));
  return proxy;
}

Result<std::unique_ptr<Proxy>> Proxy::Create(
    const ProxyConfig& config, const ope::MopeKey& key,
    const ope::OpeParams& params, std::unique_ptr<ServerConnection> connection,
    const dist::Distribution* known_q) {
  if (connection == nullptr) {
    return Status::InvalidArgument("proxy needs a server connection");
  }
  MOPE_RETURN_NOT_OK(ValidateProxyConfig(config, params));
  MOPE_ASSIGN_OR_RETURN(ope::MopeScheme mope,
                        ope::MopeScheme::Create(params, key, config.registry));

  auto proxy = std::unique_ptr<Proxy>(
      new Proxy(config, std::move(mope), std::move(connection), nullptr));
  MOPE_ASSIGN_OR_RETURN(engine::Schema schema,
                        proxy->connection_->GetSchema(config.table));
  MOPE_ASSIGN_OR_RETURN(proxy->key_column_index_,
                        schema.IndexOf(config.column));
  if (schema.column(proxy->key_column_index_).type !=
      engine::ValueType::kInt) {
    return Status::InvalidArgument("encrypted key column must be int");
  }
  MOPE_RETURN_NOT_OK(proxy->SetupAlgorithm(known_q));
  return proxy;
}

Status Proxy::SetupAlgorithm(const dist::Distribution* known_q) {
  const query::QueryConfig qc{config_.domain, config_.k};
  switch (config_.mode) {
    case QueryMode::kPassthrough:
      break;  // no algorithm: τk pieces are sent as-is
    case QueryMode::kUniform: {
      if (known_q == nullptr) {
        return Status::InvalidArgument(
            "QueryU needs the query-start distribution");
      }
      MOPE_ASSIGN_OR_RETURN(algorithm_,
                            query::UniformQueryAlgorithm::Create(qc, *known_q));
      break;
    }
    case QueryMode::kPeriodic: {
      if (known_q == nullptr) {
        return Status::InvalidArgument(
            "QueryP needs the query-start distribution");
      }
      MOPE_ASSIGN_OR_RETURN(
          algorithm_,
          query::PeriodicQueryAlgorithm::Create(qc, *known_q, config_.period));
      break;
    }
    case QueryMode::kAdaptiveUniform: {
      MOPE_ASSIGN_OR_RETURN(algorithm_,
                            query::AdaptiveQueryAlgorithm::Create(qc, 0));
      break;
    }
    case QueryMode::kAdaptivePeriodic: {
      MOPE_ASSIGN_OR_RETURN(
          algorithm_,
          query::AdaptiveQueryAlgorithm::Create(qc, config_.period));
      break;
    }
  }
  return Status::OK();
}

Result<uint64_t> Proxy::SendBatch(
    const std::vector<ModularInterval>& cipher_ranges,
    const ModularInterval& keep,
    std::vector<std::pair<engine::RowId, engine::Row>>* kept) {
  uint32_t attempt = 0;
  while (true) {
    kept->clear();  // nothing of a failed attempt is used
    auto shipped = connection_->FetchRangeBatch(
        config_.table, config_.column, cipher_ranges, key_column_index_, keep,
        kept);
    if (shipped.ok() || attempt >= config_.max_retries) return shipped;
    ++attempt;
    ++retries_performed_;
    retries_->Increment();
  }
}

Result<uint64_t> Proxy::RotateKey(mope::BitSource* entropy) {
  const MutexLock lock(&mutex_);
  if (server_ == nullptr) {
    return Status::NotSupported(
        "key rotation requires maintenance access to the embedded server");
  }
  const ope::MopeKey new_key = ope::MopeKey::Generate(config_.domain, entropy);
  MOPE_ASSIGN_OR_RETURN(ope::MopeScheme new_scheme,
                        ope::MopeScheme::Create(mope_.params(), new_key,
                                                config_.registry));

  MOPE_ASSIGN_OR_RETURN(engine::Table * table,
                        server_->catalog()->GetTable(config_.table));
  for (engine::RowId rid = 0; rid < table->row_count(); ++rid) {
    const int64_t old_cipher =
        std::get<int64_t>(table->row(rid)[key_column_index_]);
    MOPE_ASSIGN_OR_RETURN(uint64_t plain,
                          mope_.Decrypt(static_cast<uint64_t>(old_cipher)));
    MOPE_ASSIGN_OR_RETURN(uint64_t new_cipher, new_scheme.Encrypt(plain));
    MOPE_RETURN_NOT_OK(table->UpdateValue(rid, key_column_index_,
                                          static_cast<int64_t>(new_cipher)));
  }
  const uint64_t rotated = table->row_count();
  mope_ = std::move(new_scheme);
  return rotated;
}

Result<QueryResponse> Proxy::ExecuteRange(const RangeQuery& q) {
  const MutexLock lock(&mutex_);
  if (q.first > q.last || q.last >= config_.domain) {
    return Status::InvalidArgument("range query endpoints invalid");
  }

  // 1-2-3: decompose, mix with fakes, permute.
  std::vector<FixedQuery> batch;
  {
    const obs::ScopedSpan span("proxy.sample");
    if (algorithm_ != nullptr) {
      MOPE_ASSIGN_OR_RETURN(batch, algorithm_->Process(q, &rng_));
    } else {
      batch = query::Decompose(q, config_.k, config_.domain);
    }
  }
  batch_queries_hist_->Observe(batch.size());

  // The issued-start histogram only exists to feed the sampler-TV gauge, so
  // it is allocated on the first query that has a plan to compare against
  // (adaptive algorithms gain one mid-stream, at the cross-over freeze).
  if (issued_starts_.size() == 0 && algorithm_ != nullptr &&
      algorithm_->mix_plan() != nullptr) {
    issued_starts_ = Histogram(config_.domain);
  }

  QueryResponse response;
  for (const FixedQuery& fq : batch) {
    if (fq.kind == QueryKind::kReal) {
      ++response.real_queries_sent;
    } else {
      ++response.fake_queries_sent;
    }
    // Bounds-guarded: an algorithm bug emitting an out-of-domain start must
    // degrade the TV gauge, not abort the client on the histogram CHECK.
    if (fq.start < issued_starts_.size()) issued_starts_.Add(fq.start);
  }

  // 4: encrypt and ship in disjunctive batches, one batch per clock tick.
  // Since MOPE preserves modular order, a row's plaintext lies in the
  // client's range iff its ciphertext lies in the range's encryption — so
  // results are filtered in ciphertext space as they arrive, and only the
  // rows that match are built and need the (much more expensive)
  // decryption walk.
  const ModularInterval want =
      ModularInterval::FromEndpoints(q.first, q.last, config_.domain);
  MOPE_ASSIGN_OR_RETURN(ope::CipherRange want_cipher,
                        mope_.EncryptRange(want));
  const ModularInterval want_cipher_iv = ModularInterval::FromEndpoints(
      want_cipher.first, want_cipher.last, mope_.range());
  std::unordered_set<engine::RowId> seen;
  std::vector<std::pair<engine::RowId, engine::Row>> rows;
  for (size_t offset = 0; offset < batch.size(); offset += config_.batch_size) {
    const size_t end = std::min(batch.size(), offset + config_.batch_size);
    std::vector<ModularInterval> cipher_ranges;
    cipher_ranges.reserve(end - offset);
    {
      const obs::ScopedSpan span("proxy.encrypt");
      for (size_t i = offset; i < end; ++i) {
        const ModularInterval plain =
            query::CoverageOf(batch[i], config_.k, config_.domain);
        MOPE_ASSIGN_OR_RETURN(ope::CipherRange cr, mope_.EncryptRange(plain));
        cipher_ranges.push_back(ModularInterval::FromEndpoints(
            cr.first, cr.last, mope_.range()));
      }
    }
    MOPE_ASSIGN_OR_RETURN(const uint64_t shipped,
                          SendBatch(cipher_ranges, want_cipher_iv, &rows));
    ++response.server_requests;
    ++response.clock_ticks;
    response.rows_received += shipped;

    // 5: of the rows whose ciphertext falls in the client's encrypted range,
    // deduplicate those returned by more than one overlapping request, then
    // decrypt the key column of just those rows.
    const obs::ScopedSpan span("proxy.decrypt_filter");
    for (auto& [rid, row] : rows) {
      const int64_t cipher = std::get<int64_t>(row[key_column_index_]);
      if (!seen.insert(rid).second) continue;
      MOPE_ASSIGN_OR_RETURN(uint64_t plain,
                            mope_.Decrypt(static_cast<uint64_t>(cipher)));
      row[key_column_index_] = static_cast<int64_t>(plain);
      response.rows.push_back(std::move(row));
    }
  }

  totals_.real_queries_sent += response.real_queries_sent;
  totals_.fake_queries_sent += response.fake_queries_sent;
  totals_.server_requests += response.server_requests;
  totals_.clock_ticks += response.clock_ticks;
  totals_.rows_received += response.rows_received;
  real_queries_->Increment(response.real_queries_sent);
  fake_queries_->Increment(response.fake_queries_sent);
  server_requests_->Increment(response.server_requests);
  rows_received_->Increment(response.rows_received);
  rows_returned_->Increment(response.rows.size());
  UpdateMixHealthLocked();
  return response;
}

}  // namespace mope::proxy
