#ifndef MOPE_PROXY_SYSTEM_H_
#define MOPE_PROXY_SYSTEM_H_

/// \file system.h
/// End-to-end wiring of the paper's architecture: clients -> proxy ->
/// (unmodified) database server, with data-owner-side encrypted loading.
///
/// A MopeSystem owns the untrusted DbServer and one trusted Proxy per
/// MOPE-encrypted column. Loading a table draws a fresh MOPE key for the
/// encrypted column, encrypts every value before it reaches the server, and
/// builds the server-side B+-tree index over the ciphertexts.

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "dist/distribution.h"
#include "engine/server.h"
#include "obs/registry.h"
#include "proxy/proxy.h"

namespace mope::proxy {

/// Per-column encryption/query settings (ProxyConfig minus the names).
struct EncryptedColumnSpec {
  std::string column;
  uint64_t domain = 0;      ///< Plaintext values must lie in [0, domain).
  uint64_t k = 1;           ///< Fixed query length.
  QueryMode mode = QueryMode::kUniform;
  uint64_t period = 0;      ///< ρ for periodic modes.
  size_t batch_size = 1;    ///< Ranges per server request.
};

class MopeSystem {
 public:
  /// `seed` drives key generation and all proxy randomness.
  explicit MopeSystem(uint64_t seed = 0xC0FFEE);

  engine::DbServer* server() { return &server_; }
  const engine::DbServer& server() const { return server_; }

  /// Client-side metrics registry: every proxy this system creates reports
  /// its proxy.* counters here. Separate from the embedded server's own
  /// registry (server()->metrics()), so an in-process system still keeps the
  /// trusted and untrusted sides' accounting apart — exactly like a real
  /// deployment where the registries live in different processes.
  obs::MetricsRegistry* metrics() { return metrics_.get(); }
  const obs::MetricsRegistry* metrics() const { return metrics_.get(); }

  /// Creates `name` on the server with the given schema, encrypts
  /// `spec.column` of every row under a fresh MOPE key, loads the rows and
  /// indexes the ciphertext column. `known_q` provides the query-start
  /// distribution for the non-adaptive modes (over domain start points).
  Status LoadTable(const std::string& name, engine::Schema schema,
                   const std::vector<engine::Row>& rows,
                   const EncryptedColumnSpec& spec,
                   const dist::Distribution* known_q = nullptr);

  /// Attaches a table that already lives behind `connection` (a server in
  /// another process, loaded from a snapshot or by a same-seed LoadTable).
  /// Draws the MOPE key and proxy seed from this system's rng in exactly
  /// LoadTable's order, so a MopeSystem built with the same seed and the
  /// same call sequence derives the identical key the remote ciphertexts
  /// were produced under — keys never cross the wire. Key rotation is not
  /// available on attached tables (it needs embedded-server access).
  Status AttachRemoteTable(const std::string& name,
                           const EncryptedColumnSpec& spec,
                           std::unique_ptr<ServerConnection> connection,
                           const dist::Distribution* known_q = nullptr);

  /// When set, LoadTable routes the new proxy's queries through a
  /// connection built by `factory` (e.g. net::MakeLoopbackWireConnection
  /// for honest wire-bandwidth accounting) instead of a DirectConnection.
  /// Data loading still goes straight into the embedded server. Proxies
  /// created through a factory connection cannot rotate keys.
  using ConnectionFactory =
      std::function<Result<std::unique_ptr<ServerConnection>>()>;
  void set_connection_factory(ConnectionFactory factory) {
    connection_factory_ = std::move(factory);
  }

  /// The proxy managing `table.column`.
  Result<Proxy*> GetProxy(const std::string& table, const std::string& column);

  /// Name of the MOPE-encrypted column of `table`, if it has one.
  std::optional<std::string> EncryptedColumnOf(const std::string& table) const;

  /// Client entry point: a plaintext range query on an encrypted column.
  Result<QueryResponse> Query(const std::string& table,
                              const std::string& column,
                              const query::RangeQuery& q);

  /// Rotates `table.column` to a fresh MOPE key (full server-side
  /// re-encryption; see Proxy::RotateKey). Returns rows re-encrypted.
  Result<uint64_t> RotateKey(const std::string& table,
                             const std::string& column);

  /// Turns on the embedded server's live leakage auditor for an encrypted
  /// column, deriving the audit parameters from public information only:
  /// space = the ciphertext range SuggestRange(domain) the column was loaded
  /// with, domain = the plaintext domain M. The leakage.* gauges land in the
  /// *server's* registry — they model what the untrusted side can compute.
  /// `domain` must match the column's EncryptedColumnSpec.
  Status EnableLeakageAudit(uint64_t domain,
                            obs::LeakageAuditConfig overrides = {});

 private:
  /// `spec` as a ProxyConfig for `table`, with a proxy seed drawn from
  /// rng_. Callers draw the table's key first: that order is what lets a
  /// same-seed system re-derive both.
  ProxyConfig NextProxyConfig(const std::string& table,
                              const EncryptedColumnSpec& spec);

  engine::DbServer server_;
  /// Heap-held so MopeSystem stays movable (a registry owns a mutex).
  std::unique_ptr<obs::MetricsRegistry> metrics_;
  Rng rng_;
  ConnectionFactory connection_factory_;
  std::map<std::string, std::unique_ptr<Proxy>> proxies_;  // "table.column"
};

}  // namespace mope::proxy

#endif  // MOPE_PROXY_SYSTEM_H_
