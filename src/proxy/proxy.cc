#include "proxy/proxy.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <optional>
#include <string>

#include "engine/codec.h"
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

/// Re-encrypts one ciphertext of `from`'s key under `to`'s.
Result<int64_t> Reencrypt(const ope::MopeScheme& from,
                          const ope::MopeScheme& to, int64_t cipher) {
  MOPE_ASSIGN_OR_RETURN(const uint64_t plain,
                        from.Decrypt(static_cast<uint64_t>(cipher)));
  MOPE_ASSIGN_OR_RETURN(const uint64_t fresh, to.Encrypt(plain));
  return static_cast<int64_t>(fresh);
}

/// Puts rows 0, 1, ... back to `old_ciphers` after a rotation stopped with
/// `cause`, and returns `cause`; when a row cannot be put back, an error
/// that counts the rows left under the discarded key.
Status RollBackRotation(engine::Table* table, size_t column,
                        const std::vector<int64_t>& old_ciphers,
                        const Status& cause) {
  uint64_t stranded = 0;
  Status first;
  for (engine::RowId rid = 0; rid < old_ciphers.size(); ++rid) {
    const Status restored = table->UpdateValue(rid, column, old_ciphers[rid]);
    if (restored.ok()) continue;
    ++stranded;
    if (first.ok()) first = restored;
  }
  if (stranded == 0) return cause;
  return Status::Internal(
      "key rotation failed (" + cause.ToString() + ") and rolling it back "
      "failed too (" + first.ToString() + "): " + std::to_string(stranded) +
      " of " + std::to_string(table->row_count()) +
      " rows are left under the discarded key");
}

}  // namespace

void RowIdSet::Clear() {
  slots_.clear();
  size_ = 0;
  shift_ = 64;
  has_free_id_ = false;
}

void RowIdSet::Reserve(size_t more) {
  const size_t need = size_ + more;
  if (2 * need <= slots_.size()) return;
  size_t capacity = 16;
  while (capacity < 2 * need) capacity *= 2;
  // An empty set (every query's first batch) refills its own storage; a
  // set that outgrows its table mid-query moves its members over.
  std::vector<uint64_t> members;
  if (size_ > 0) members.swap(slots_);
  slots_.assign(capacity, kFree);
  shift_ = 64 - std::countr_zero(capacity);
  for (const uint64_t id : members) {
    if (id != kFree) slots_[Find(id)] = id;
  }
}

size_t RowIdSet::Find(uint64_t id) const {
  const size_t mask = slots_.size() - 1;
  // Fibonacci hashing: the top bits of id * 2^64/phi spread dense row ids
  // over the whole table.
  size_t i = static_cast<size_t>((id * 0x9E3779B97F4A7C15ull) >> shift_);
  while (slots_[i] != kFree && slots_[i] != id) i = (i + 1) & mask;
  return i;
}

bool RowIdSet::Insert(uint64_t id) {
  if (id == kFree) {
    const bool added = !has_free_id_;
    has_free_id_ = true;
    return added;
  }
  MOPE_CHECK(!slots_.empty(), "RowIdSet room was reserved");
  const size_t i = Find(id);
  if (slots_[i] == id) return false;
  MOPE_CHECK(2 * (size_ + 1) <= slots_.size(), "RowIdSet room was reserved");
  slots_[i] = id;
  ++size_;
  return true;
}

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

Result<std::unique_ptr<Proxy>> Proxy::Create(
    const ProxyConfig& config, ope::MopeScheme scheme,
    std::unique_ptr<ServerConnection> connection,
    const dist::Distribution* known_q, engine::DbServer* maintenance) {
  if (connection == nullptr) {
    return Status::InvalidArgument("proxy needs a server connection");
  }
  MOPE_RETURN_NOT_OK(ValidateProxyConfig(config, scheme.params()));

  auto proxy = std::unique_ptr<Proxy>(new Proxy(
      config, std::move(scheme), std::move(connection), maintenance));
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

Status Proxy::SetupAlgorithm(const dist::Distribution* known_q) {
  const query::QueryConfig qc{config_.domain, config_.k};
  // QueryU is QueryP[1] and AdaptiveQueryU is AdaptiveQueryP[1]: one
  // congruence class, so the perceived target is uniform.
  uint64_t period = 1;
  bool adaptive = false;
  switch (config_.mode) {
    case QueryMode::kPassthrough:
      return Status::OK();  // no algorithm: τk pieces are sent as-is
    case QueryMode::kUniform:
      break;
    case QueryMode::kPeriodic:
      period = config_.period;
      break;
    case QueryMode::kAdaptiveUniform:
      adaptive = true;
      break;
    case QueryMode::kAdaptivePeriodic:
      period = config_.period;
      adaptive = true;
      break;
  }
  if (adaptive) {
    MOPE_ASSIGN_OR_RETURN(algorithm_,
                          query::AdaptiveQueryAlgorithm::Create(qc, period));
    return Status::OK();
  }
  if (known_q == nullptr) {
    return Status::InvalidArgument(
        "QueryU and QueryP need the query-start distribution");
  }
  MOPE_ASSIGN_OR_RETURN(
      algorithm_, query::PeriodicQueryAlgorithm::Create(qc, *known_q, period));
  return Status::OK();
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
  const uint64_t num_columns = table->schema().num_columns();
  const uint64_t rows = table->row_count();
  // The proxy keeps the old key until every row is rewritten. A failure
  // part-way puts the rows already rewritten back to these ciphertexts, so
  // no row is left under a key the proxy has discarded.
  std::vector<int64_t> old_ciphers;
  old_ciphers.reserve(rows);
  for (engine::RowId rid = 0; rid < rows; ++rid) {
    // The key is read from the row's stored bytes; no row is built. The
    // update below has the same width, so the row stays where it is.
    const std::optional<int64_t> old_cipher =
        engine::CheckStoredRow(table->row_bytes(rid), num_columns,
                               key_column_index_)
            .LocatedInt();
    MOPE_CHECK(old_cipher.has_value(), "the MOPE column holds ints");
    const Result<int64_t> new_cipher =
        Reencrypt(mope_, new_scheme, *old_cipher);
    const Status rewritten =
        new_cipher.ok()
            ? table->UpdateValue(rid, key_column_index_, *new_cipher)
            : new_cipher.status();
    if (!rewritten.ok()) {
      return RollBackRotation(table, key_column_index_, old_ciphers,
                              rewritten);
    }
    old_ciphers.push_back(*old_cipher);
  }
  mope_ = std::move(new_scheme);
  return rows;
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
  returned_ids_.Clear();
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
    // Each batch is sent once; only the connection retries (transient
    // transport errors, DESIGN §5b).
    batch_rows_.clear();
    MOPE_ASSIGN_OR_RETURN(
        const uint64_t shipped,
        connection_->FetchRangeBatch(config_.table, config_.column,
                                     cipher_ranges, key_column_index_,
                                     want_cipher_iv, &batch_rows_));
    ++response.server_requests;
    response.rows_received += shipped;

    // 5: of the rows whose ciphertext falls in the client's encrypted range,
    // deduplicate those returned by more than one overlapping request,
    // keeping the first, then decrypt the key column of just those rows.
    const obs::ScopedSpan span("proxy.decrypt_filter");
    returned_ids_.Reserve(batch_rows_.size());
    const size_t most = response.rows.size() + batch_rows_.size();
    if (most > response.rows.capacity()) {
      response.rows.reserve(std::max(most, 2 * response.rows.capacity()));
    }
    for (auto& [rid, row] : batch_rows_) {
      if (!returned_ids_.Insert(rid)) continue;
      const int64_t cipher = std::get<int64_t>(row[key_column_index_]);
      MOPE_ASSIGN_OR_RETURN(uint64_t plain,
                            mope_.Decrypt(static_cast<uint64_t>(cipher)));
      row[key_column_index_] = static_cast<int64_t>(plain);
      response.rows.push_back(std::move(row));
    }
  }
  batch_rows_.clear();  // the duplicates' rows go; the list's storage stays

  totals_.real_queries_sent += response.real_queries_sent;
  totals_.fake_queries_sent += response.fake_queries_sent;
  totals_.server_requests += response.server_requests;
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
