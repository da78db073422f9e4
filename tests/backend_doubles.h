// Delegating OsBackend doubles for the serving and TCP suites (and
// bench_net's overload section): GatedBackend parks join calls on a gate,
// so a request stays deterministically in flight, and CountingBackend
// counts join calls, the witness that a shed request cost no backend I/O.
// Header-only, so including it adds no link dependency.
#ifndef OSUM_TESTS_BACKEND_DOUBLES_H_
#define OSUM_TESTS_BACKEND_DOUBLES_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "core/os_backend.h"

namespace osum::testing {

class GatedBackend : public core::OsBackend {
 public:
  explicit GatedBackend(core::OsBackend* inner) : inner_(inner) {}

  const char* name() const override { return "gated"; }

  void Fetch(graph::LinkTypeId link, rel::FkDirection dir,
             rel::TupleId parent_tuple,
             std::vector<rel::TupleId>* out) override {
    Enter();
    inner_->Fetch(link, dir, parent_tuple, out);
  }
  void FetchTop(graph::LinkTypeId link, rel::FkDirection dir,
                rel::TupleId parent_tuple, size_t limit,
                double min_importance,
                std::vector<rel::TupleId>* out) override {
    Enter();
    inner_->FetchTop(link, dir, parent_tuple, limit, min_importance, out);
  }

  /// While set, every join call throws instead of delegating.
  void FailJoins(bool fail) { fail_.store(fail); }
  void CloseGate() {
    std::lock_guard<std::mutex> lock(mu_);
    gate_closed_ = true;
  }
  void OpenGate() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      gate_closed_ = false;
    }
    cv_.notify_all();
  }
  /// Blocks until some join call is parked on the closed gate.
  void WaitUntilBlocked() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return waiting_ > 0; });
  }

 private:
  void Enter() {
    if (fail_.load()) throw std::runtime_error("injected join failure");
    std::unique_lock<std::mutex> lock(mu_);
    if (!gate_closed_) return;
    ++waiting_;
    cv_.notify_all();
    cv_.wait(lock, [&] { return !gate_closed_; });
    --waiting_;
  }

  core::OsBackend* inner_;
  std::atomic<bool> fail_{false};
  std::mutex mu_;
  std::condition_variable cv_;
  bool gate_closed_ = false;
  int waiting_ = 0;
};

class CountingBackend : public core::OsBackend {
 public:
  explicit CountingBackend(core::OsBackend* inner) : inner_(inner) {}

  const char* name() const override { return "counting"; }

  void Fetch(graph::LinkTypeId link, rel::FkDirection dir,
             rel::TupleId parent_tuple,
             std::vector<rel::TupleId>* out) override {
    fetches_.fetch_add(1, std::memory_order_relaxed);
    inner_->Fetch(link, dir, parent_tuple, out);
  }
  void FetchTop(graph::LinkTypeId link, rel::FkDirection dir,
                rel::TupleId parent_tuple, size_t limit,
                double min_importance,
                std::vector<rel::TupleId>* out) override {
    fetches_.fetch_add(1, std::memory_order_relaxed);
    inner_->FetchTop(link, dir, parent_tuple, limit, min_importance, out);
  }

  uint64_t fetches() const {
    return fetches_.load(std::memory_order_relaxed);
  }

 private:
  core::OsBackend* inner_;
  std::atomic<uint64_t> fetches_{0};
};

}  // namespace osum::testing

#endif  // OSUM_TESTS_BACKEND_DOUBLES_H_
