#include "service/tenant_admission.hpp"

#include <algorithm>
#include <cmath>

namespace remos::service {

TenantAdmission::TenantAdmission(Options options) : options_(options) {
  if (options_.budget == 0)
    throw InvalidArgument("TenantAdmission: zero budget");
  if (options_.reserved_fraction < 0.0 || options_.reserved_fraction > 1.0)
    throw InvalidArgument("TenantAdmission: reserved_fraction outside [0,1]");
  tenants_.reserve(kMaxTenants);
  {
    std::lock_guard<std::mutex> lk(mutex_);
    auto def = std::make_unique<Tenant>();
    def->name = "default";
    def->weight = 1.0;
    resolve(*def);
    tenants_.push_back(std::move(def));
    tenant_count_.store(1, std::memory_order_release);
    recompute_slices();
  }
}

int TenantAdmission::register_tenant(const std::string& name, double weight) {
  if (!(weight > 0.0))
    throw InvalidArgument("TenantAdmission: weight must be positive");
  std::lock_guard<std::mutex> lk(mutex_);
  if (tenants_.size() >= kMaxTenants)
    throw InvalidArgument("TenantAdmission: kMaxTenants exhausted");
  for (const auto& t : tenants_)
    if (t->name == name)
      throw InvalidArgument("TenantAdmission: tenant '" + name +
                            "' already registered");
  auto t = std::make_unique<Tenant>();
  t->name = name;
  t->weight = weight;
  resolve(*t);
  tenants_.push_back(std::move(t));
  const int id = static_cast<int>(tenants_.size() - 1);
  // Publish the new count only after the slot is fully constructed; the
  // vector never reallocates (reserved at kMaxTenants), so concurrent
  // acquires index safely.
  tenant_count_.store(tenants_.size(), std::memory_order_release);
  recompute_slices();
  return id;
}

void TenantAdmission::set_metrics(obs::MetricsRegistry& metrics,
                                  obs::Labels labels) {
  std::lock_guard<std::mutex> lk(mutex_);
  metrics_ = &metrics;
  labels_ = std::move(labels);
  for (auto& t : tenants_) resolve(*t);
}

void TenantAdmission::resolve(Tenant& t) {
  const obs::Labels who = obs::with_label(labels_, "tenant", t.name);
  t.admitted = metrics_->counter("remos_service_tenant_admitted_total", who,
                                 "Queries admitted, by tenant");
  t.shed = metrics_->counter("remos_service_tenant_shed_total", who,
                             "Queries shed at admission, by tenant");
}

TenantAdmission::Tenant& TenantAdmission::slot(int tenant) {
  const std::size_t n = tenant_count_.load(std::memory_order_acquire);
  const std::size_t i = static_cast<std::size_t>(tenant);
  return tenant >= 0 && i < n ? *tenants_[i]
                              : *tenants_[kDefaultTenant];
}

const TenantAdmission::Tenant& TenantAdmission::slot(int tenant) const {
  return const_cast<TenantAdmission*>(this)->slot(tenant);
}

void TenantAdmission::recompute_slices() {
  const std::size_t budget = options_.budget;
  double total_weight = 0;
  for (const auto& t : tenants_) total_weight += t->weight;
  const double reserved_budget =
      static_cast<double>(budget) * options_.reserved_fraction;
  std::size_t reserved_total = 0;
  for (auto& t : tenants_) {
    // Every tenant keeps at least one guaranteed slot: a starved tenant
    // can always make progress, however small its weight.
    const std::size_t slots = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::floor(reserved_budget * t->weight / total_weight)));
    t->reserved_limit.store(slots, std::memory_order_release);
    reserved_total += slots;
  }
  // The minimum-one-slot floor can overshoot a tiny budget; the pool
  // simply collapses to zero then (sum of slices may exceed the budget
  // by at most n-1 -- bounded and documented rather than starving).
  pool_size_.store(reserved_total >= budget ? 0 : budget - reserved_total,
                   std::memory_order_release);
}

bool TenantAdmission::try_acquire(int tenant) {
  Tenant& t = slot(tenant);
  // Reserved slice first: isolation.
  std::size_t cur = t.reserved_in_use.load(std::memory_order_relaxed);
  while (cur < t.reserved_limit.load(std::memory_order_acquire)) {
    if (t.reserved_in_use.compare_exchange_weak(cur, cur + 1,
                                                std::memory_order_acq_rel,
                                                std::memory_order_relaxed)) {
      note_admitted(t);
      return true;
    }
  }
  // Slice full: borrow a shared-pool slot (work conservation).
  std::size_t pool = pool_in_use_.load(std::memory_order_relaxed);
  while (pool < pool_size_.load(std::memory_order_acquire)) {
    if (pool_in_use_.compare_exchange_weak(pool, pool + 1,
                                           std::memory_order_acq_rel,
                                           std::memory_order_relaxed)) {
      t.borrowed.fetch_add(1, std::memory_order_acq_rel);
      note_admitted(t);
      return true;
    }
  }
  t.shed.inc();
  return false;
}

void TenantAdmission::note_admitted(Tenant& t) {
  t.admitted.inc();
  const std::size_t now =
      in_flight_.fetch_add(1, std::memory_order_acq_rel) + 1;
  std::size_t hw = high_water_.load(std::memory_order_relaxed);
  while (now > hw && !high_water_.compare_exchange_weak(
                         hw, now, std::memory_order_relaxed)) {
  }
}

void TenantAdmission::release(int tenant) {
  Tenant& t = slot(tenant);
  // Leave in_flight_ before freeing the slot (note_admitted counts in
  // after taking one), so it never exceeds the slots held and the high-
  // water mark never reads budget + 1 while a slot changes hands.
  in_flight_.fetch_sub(1, std::memory_order_acq_rel);
  // Return a borrowed pool slot first: the pool is the shared resource,
  // so freeing it early keeps other tenants' borrow path open.  Which
  // physical acquire grabbed which slot does not matter -- per-tenant
  // totals (reserved_in_use + borrowed) are conserved either way.
  std::size_t borrowed = t.borrowed.load(std::memory_order_relaxed);
  while (borrowed > 0 &&
         !t.borrowed.compare_exchange_weak(borrowed, borrowed - 1,
                                           std::memory_order_acq_rel,
                                           std::memory_order_relaxed)) {
  }
  if (borrowed > 0)
    pool_in_use_.fetch_sub(1, std::memory_order_acq_rel);
  else
    t.reserved_in_use.fetch_sub(1, std::memory_order_acq_rel);
}

TenantAdmission::TenantStats TenantAdmission::tenant_stats(int tenant) const {
  const Tenant& t = slot(tenant);
  TenantStats s;
  s.name = t.name;
  s.weight = t.weight;
  s.reserved_slots = t.reserved_limit.load(std::memory_order_acquire);
  s.in_flight = t.reserved_in_use.load(std::memory_order_relaxed) +
                t.borrowed.load(std::memory_order_relaxed);
  s.admitted = t.admitted.value();
  s.shed = t.shed.value();
  return s;
}

std::uint64_t TenantAdmission::admitted() const {
  std::uint64_t sum = 0;
  const std::size_t n = tenant_count();
  for (std::size_t i = 0; i < n; ++i) sum += tenants_[i]->admitted.value();
  return sum;
}

std::uint64_t TenantAdmission::shed() const {
  std::uint64_t sum = 0;
  const std::size_t n = tenant_count();
  for (std::size_t i = 0; i < n; ++i) sum += tenants_[i]->shed.value();
  return sum;
}

}  // namespace remos::service
