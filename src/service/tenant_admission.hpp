// Tenant-aware overload control: weighted fair admission over a bounded
// global budget, fixed at construction.
//
// A gate that only bounds *total* queries in flight with one counter
// lets a single hot client saturate the shared queue, and every other
// application is shed alongside it -- exactly the failure mode a shared
// Remos Modeler must not have (the paper positions one Modeler session
// in front of many network-aware applications at once).
//
// TenantAdmission divides a global budget B into per-tenant slices:
//
//   reserved_i = max(1, floor(B * reserved_fraction * w_i / sum(w)))
//   shared pool = B - sum(reserved_i)            (work conservation)
//
// A tenant is admitted from its own reserved slice first; when the slice
// is full it may borrow a shared-pool slot; when both are exhausted it
// -- and only it -- is shed.  A tenant offered 10x its weight therefore
// saturates its slice plus the pool, while every other tenant's reserved
// slice stays untouched: isolation by construction, not by scheduling
// luck.  Releases return borrowed pool slots before reserved ones, so
// slot totals are conserved under any acquire/release interleaving.
//
// Hot path is lock-free: per-tenant CAS on the reserved count, CAS on
// the pool count, one registry counter per admission or shed.
// Registration takes a mutex and re-slices the budget (setup, not per
// query; it may still land while queries are served); tenant storage is
// pre-reserved so registration never moves slots under a concurrent
// acquire.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace remos::service {

class TenantAdmission {
 public:
  /// Tenant id 0 is always present (the "default" tenant, weight 1):
  /// callers that never register anything get one global gate through
  /// it.
  static constexpr int kDefaultTenant = 0;
  /// Upper bound on registered tenants, the default one included
  /// (storage is pre-reserved so the lock-free hot path never races a
  /// reallocation).
  static constexpr std::size_t kMaxTenants = 64;

  struct Options {
    /// Global budget: queries in flight (waiting + executing) across all
    /// tenants.
    std::size_t budget = 64;
    /// Fraction of the budget partitioned into weighted reserved slices;
    /// the remainder is a shared pool any tenant may borrow from once
    /// its own slice is full.  1.0 = strict partition, 0.0 = one
    /// global gate.
    double reserved_fraction = 0.75;
  };

  TenantAdmission() : TenantAdmission(Options{}) {}
  explicit TenantAdmission(Options options);

  /// Registers a tenant and returns its id, resolving its admitted/shed
  /// counters in the current registry.  Throws when kMaxTenants are
  /// registered, the weight is not positive, or the name is taken (a name
  /// keys the tenant's series).  Thread-safe against concurrent acquires.
  int register_tenant(const std::string& name, double weight);

  /// Moves every tenant's counters (and those of tenants registered
  /// later) to `metrics`, under `labels` plus {tenant}.  Until then they
  /// count in a registry this object owns.  Call before the first
  /// acquire: counts taken earlier stay behind.
  void set_metrics(obs::MetricsRegistry& metrics, obs::Labels labels);

  /// True: admitted (caller must release(tenant) exactly once when the
  /// query leaves).  False: this tenant's slice and the shared pool are
  /// both full -- the query is shed.  Unknown tenant ids fall back to
  /// the default tenant rather than faulting.
  bool try_acquire(int tenant);
  void release(int tenant);

  // --- monitoring (global totals across all tenants) -------------------
  std::size_t capacity() const { return options_.budget; }
  std::size_t in_flight() const {
    return in_flight_.load(std::memory_order_relaxed);
  }
  std::size_t high_water() const {
    return high_water_.load(std::memory_order_relaxed);
  }
  /// Sums of the per-tenant counts.
  std::uint64_t admitted() const;
  std::uint64_t shed() const;

  struct TenantStats {
    std::string name;
    double weight = 1.0;
    std::size_t reserved_slots = 0;
    std::size_t in_flight = 0;
    std::uint64_t admitted = 0;
    std::uint64_t shed = 0;
  };
  std::size_t tenant_count() const {
    return tenant_count_.load(std::memory_order_acquire);
  }
  TenantStats tenant_stats(int tenant) const;
  /// Shared-pool slots currently borrowed / total pool size.
  std::size_t pool_in_use() const {
    return pool_in_use_.load(std::memory_order_relaxed);
  }
  std::size_t pool_size() const {
    return pool_size_.load(std::memory_order_acquire);
  }

 private:
  struct Tenant {
    std::string name;
    double weight = 1.0;
    std::atomic<std::size_t> reserved_limit{0};
    std::atomic<std::size_t> reserved_in_use{0};
    std::atomic<std::size_t> borrowed{0};
    obs::Counter admitted;
    obs::Counter shed;
  };

  Tenant& slot(int tenant);
  const Tenant& slot(int tenant) const;
  /// Recomputes reserved slices + pool from the budget and weights.
  /// Caller holds mutex_.
  void recompute_slices();
  /// Resolves `t`'s counters in metrics_.  Caller holds mutex_.
  void resolve(Tenant& t);
  void note_admitted(Tenant& t);

  Options options_;
  obs::MetricsRegistry own_metrics_;  // the counters' home until wired
  std::mutex mutex_;  // registration, metrics_, labels_
  obs::MetricsRegistry* metrics_ = &own_metrics_;
  obs::Labels labels_;
  std::vector<std::unique_ptr<Tenant>> tenants_;
  std::atomic<std::size_t> tenant_count_{0};

  std::atomic<std::size_t> pool_size_{0};
  std::atomic<std::size_t> pool_in_use_{0};

  std::atomic<std::size_t> in_flight_{0};
  std::atomic<std::size_t> high_water_{0};
};

}  // namespace remos::service
