#include "stack.h"

#include <stdexcept>
#include <utility>
#include <vector>

#include "common.h"

namespace osum::e2e {

search::SearchContext MakeContext(const datasets::Dblp& dblp,
                                  core::OsBackend* backend) {
  std::vector<search::SearchContext::Subject> subjects;
  subjects.push_back({dblp.author, datasets::DblpAuthorGds(dblp)});
  subjects.push_back({dblp.paper, datasets::DblpPaperGds(dblp)});
  return search::SearchContext::Build(dblp.db, backend, std::move(subjects));
}

Reference::Reference(const datasets::Dblp& dblp)
    : backend(dblp.db, dblp.links, dblp.data_graph),
      context(MakeContext(dblp, &backend)) {
  core::PartialsMemoOptions memo_off;
  memo_off.enabled = false;
  context.partials_memo().Configure(memo_off);
}

std::unique_ptr<Stack> Stack::Build(Workload workload, SetupTimes* times) {
  std::unique_ptr<Stack> stack(new Stack());

  double start = ProcessCpuSeconds();
  datasets::DblpConfig config;  // fixed generator seed: the data never varies
  config.scale = DblpScale(workload);
  stack->dblp_ = datasets::BuildDblp(config);
  times->dataset_s = ProcessCpuSeconds() - start;

  start = ProcessCpuSeconds();
  datasets::ApplyDblpScores(&stack->dblp_, 1, 0.85);
  times->rank_s = ProcessCpuSeconds() - start;

  start = ProcessCpuSeconds();
  const datasets::Dblp& d = stack->dblp_;
  stack->backend_ =
      std::make_unique<core::DataGraphBackend>(d.db, d.links, d.data_graph);
  stack->primary_.emplace(MakeContext(d, stack->backend_.get()));
  if (RebindEvery(workload) != 0) {
    stack->twin_.emplace(MakeContext(d, stack->backend_.get()));
  }
  serve::ServiceOptions options;
  options.num_threads = kServiceWorkers;
  stack->service_ =
      std::make_unique<serve::QueryService>(*stack->primary_, options);
  stack->server_ = std::make_unique<net::Server>(stack->service_.get());
  times->context_s = ProcessCpuSeconds() - start;

  start = ProcessCpuSeconds();
  api::Status status = stack->server_->Start();
  if (!status.ok()) {
    throw std::runtime_error("server start: " + status.ToString());
  }
  times->warm_s = ProcessCpuSeconds() - start;
  return stack;
}

Stack::~Stack() {
  if (server_) server_->Shutdown();
}

core::PartialsMemoMetrics Stack::MemoTotals() const {
  core::PartialsMemoMetrics total = primary_->partials_memo().metrics();
  if (twin_) {
    core::PartialsMemoMetrics t = twin_->partials_memo().metrics();
    total.hits += t.hits;
    total.misses += t.misses;
    total.evictions += t.evictions;
    total.approx_bytes += t.approx_bytes;
  }
  return total;
}

double Stack::RebindToOther() {
  util::MutexLock lock(rebind_mu_);
  if (!twin_) throw std::logic_error("this workload has no twin context");
  const search::SearchContext& next = bound_to_twin_ ? *primary_ : *twin_;
  Clock::time_point start = Clock::now();
  service_->RebindContext(next);
  double ms = MicrosBetween(start, Clock::now()) / 1e3;
  bound_to_twin_ = !bound_to_twin_;
  return ms;
}

}  // namespace osum::e2e
