#include "proxy/system.h"

namespace mope::proxy {

MopeSystem::MopeSystem(uint64_t seed)
    : metrics_(std::make_unique<obs::MetricsRegistry>()), rng_(seed) {}

ProxyConfig MopeSystem::NextProxyConfig(const std::string& table,
                                        const EncryptedColumnSpec& spec) {
  ProxyConfig config;
  config.table = table;
  config.column = spec.column;
  config.domain = spec.domain;
  config.k = spec.k;
  config.mode = spec.mode;
  config.period = spec.period;
  config.batch_size = spec.batch_size;
  config.rng_seed = rng_.NextWord();
  config.registry = metrics_.get();
  return config;
}

Status MopeSystem::LoadTable(const std::string& name, engine::Schema schema,
                             const std::vector<engine::Row>& rows,
                             const EncryptedColumnSpec& spec,
                             const dist::Distribution* known_q) {
  MOPE_ASSIGN_OR_RETURN(size_t enc_col, schema.IndexOf(spec.column));
  if (schema.column(enc_col).type != engine::ValueType::kInt) {
    return Status::InvalidArgument("encrypted column must be int");
  }
  if (spec.domain == 0) {
    return Status::InvalidArgument("encrypted column needs a domain size");
  }

  // Data-owner side: draw the key and encrypt before anything reaches the
  // untrusted server.
  const ope::OpeParams params{spec.domain, ope::SuggestRange(spec.domain)};
  const ope::MopeKey key = ope::MopeKey::Generate(spec.domain, &rng_);
  MOPE_ASSIGN_OR_RETURN(ope::MopeScheme scheme,
                        ope::MopeScheme::Create(params, key, metrics_.get()));

  MOPE_ASSIGN_OR_RETURN(engine::Table * table,
                        server_.catalog()->CreateTable(name, std::move(schema)));

  // Populate in a nested scope so any mid-load failure rolls the half-built
  // table back out of the catalog: a table with some rows encrypted and no
  // proxy would otherwise stay queryable-looking but permanently broken.
  //
  // The index is created before the first row so that with durable storage
  // attached the index-create lands in the WAL ahead of every insert: a
  // crash at any point during the load recovers to a queryable prefix.
  const Status load = [&]() -> Status {
    MOPE_RETURN_NOT_OK(table->CreateIndex(spec.column));
    engine::Row encrypted;  // one buffer for every row: Insert copies it
    for (const engine::Row& row : rows) {
      encrypted = row;
      const int64_t plain = std::get<int64_t>(encrypted[enc_col]);
      if (plain < 0 || static_cast<uint64_t>(plain) >= spec.domain) {
        return Status::OutOfRange("value " + std::to_string(plain) +
                                  " outside the declared domain of '" +
                                  spec.column + "'");
      }
      MOPE_ASSIGN_OR_RETURN(uint64_t cipher,
                            scheme.Encrypt(static_cast<uint64_t>(plain)));
      encrypted[enc_col] = static_cast<int64_t>(cipher);
      MOPE_RETURN_NOT_OK(table->Insert(encrypted).status());
    }
    return Status::OK();
  }();
  if (!load.ok()) {
    MOPE_RETURN_NOT_OK(server_.catalog()->DropTable(name));
    return load;
  }

  // The loading scheme becomes the proxy's: one table per key.
  const ProxyConfig config = NextProxyConfig(name, spec);
  auto proxy = [&]() -> Result<std::unique_ptr<Proxy>> {
    // Only a proxy on the embedded engine itself may rotate keys.
    if (!connection_factory_) {
      return Proxy::Create(config, std::move(scheme),
                           std::make_unique<DirectConnection>(&server_),
                           known_q, &server_);
    }
    MOPE_ASSIGN_OR_RETURN(std::unique_ptr<ServerConnection> connection,
                          connection_factory_());
    return Proxy::Create(config, std::move(scheme), std::move(connection),
                         known_q);
  }();
  if (!proxy.ok()) {
    MOPE_RETURN_NOT_OK(server_.catalog()->DropTable(name));
    return proxy.status();
  }
  proxies_[name + "." + spec.column] = std::move(proxy).value();
  return Status::OK();
}

Status MopeSystem::AttachRemoteTable(const std::string& name,
                                     const EncryptedColumnSpec& spec,
                                     std::unique_ptr<ServerConnection> connection,
                                     const dist::Distribution* known_q) {
  if (connection == nullptr) {
    return Status::InvalidArgument("AttachRemoteTable needs a connection");
  }
  if (spec.domain == 0) {
    return Status::InvalidArgument("encrypted column needs a domain size");
  }
  // All validation — including the remote round trip — happens before any
  // draw from rng_, so a failed attach leaves the key stream untouched and
  // a same-seed process stays in lockstep with the one that loaded the data.
  MOPE_ASSIGN_OR_RETURN(engine::Schema schema, connection->GetSchema(name));
  MOPE_ASSIGN_OR_RETURN(size_t enc_col, schema.IndexOf(spec.column));
  if (schema.column(enc_col).type != engine::ValueType::kInt) {
    return Status::InvalidArgument("encrypted column must be int");
  }

  // Same draw order as LoadTable: key first, proxy seed second.
  const ope::OpeParams params{spec.domain, ope::SuggestRange(spec.domain)};
  const ope::MopeKey key = ope::MopeKey::Generate(spec.domain, &rng_);
  const ProxyConfig config = NextProxyConfig(name, spec);
  MOPE_ASSIGN_OR_RETURN(ope::MopeScheme scheme,
                        ope::MopeScheme::Create(params, key, metrics_.get()));
  MOPE_ASSIGN_OR_RETURN(
      std::unique_ptr<Proxy> proxy,
      Proxy::Create(config, std::move(scheme), std::move(connection), known_q));
  proxies_[name + "." + spec.column] = std::move(proxy);
  return Status::OK();
}

Result<Proxy*> MopeSystem::GetProxy(const std::string& table,
                                    const std::string& column) {
  const auto it = proxies_.find(table + "." + column);
  if (it == proxies_.end()) {
    return Status::NotFound("no proxy for " + table + "." + column);
  }
  return it->second.get();
}

std::optional<std::string> MopeSystem::EncryptedColumnOf(
    const std::string& table) const {
  const std::string prefix = table + ".";
  for (const auto& [key, _] : proxies_) {
    if (key.rfind(prefix, 0) == 0) return key.substr(prefix.size());
  }
  return std::nullopt;
}

Result<QueryResponse> MopeSystem::Query(const std::string& table,
                                        const std::string& column,
                                        const query::RangeQuery& q) {
  MOPE_ASSIGN_OR_RETURN(Proxy * proxy, GetProxy(table, column));
  return proxy->ExecuteRange(q);
}

Result<uint64_t> MopeSystem::RotateKey(const std::string& table,
                                       const std::string& column) {
  MOPE_ASSIGN_OR_RETURN(Proxy * proxy, GetProxy(table, column));
  return proxy->RotateKey(&rng_);
}

Status MopeSystem::EnableLeakageAudit(uint64_t domain,
                                      obs::LeakageAuditConfig overrides) {
  if (domain == 0) {
    return Status::InvalidArgument("leakage audit needs the column domain");
  }
  // Everything here is public: the ciphertext space is a deterministic
  // function of the (public) domain, so the untrusted server could enable
  // this itself — which is the point of the exercise.
  overrides.space = ope::SuggestRange(domain);
  overrides.domain = domain;
  return server_.EnableLeakageAudit(overrides);
}

}  // namespace mope::proxy
