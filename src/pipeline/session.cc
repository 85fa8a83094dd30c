#include "pipeline/session.h"

#include "accel/kernels.h"
#include "engine/dataset_cache.h"
#include "observability/trace_export.h"

namespace st4ml {

namespace {

std::shared_ptr<ExecutionContext> MakeContext(const ToolOptions& options) {
  return options.num_workers > 0 ? ExecutionContext::Create(options.num_workers)
                                 : ExecutionContext::Create();
}

}  // namespace

Session::Session(const ToolOptions& options) : ctx_(MakeContext(options)) {
  Configure(options);
}

Session::Session(std::shared_ptr<ExecutionContext> ctx)
    : ctx_(std::move(ctx)) {}

void Session::Configure(const ToolOptions& options) {
  options_ = options;
  // Empty restores the automatic choice, so a daemon reconfigured without
  // the override returns to env/CPUID selection.
  configure_status_ =
      accel::BackendRegistry::Instance().ForceBackend(options.backend);
  if (options.has_cache_budget) {
    DatasetCache::Options cache;
    cache.budget_bytes =
        options.cache_budget_bytes < 0
            ? DatasetCache::kUnbounded
            : static_cast<uint64_t>(options.cache_budget_bytes);
    ctx_->ConfigureCache(std::move(cache));
  }
  if (!options.trace_path.empty() && ctx_->tracer() == nullptr) {
    ctx_->set_tracer(std::make_shared<Tracer>());
  }
}

Job Session::StartJob(std::string name) {
  return Job(ctx_, std::move(name),
             next_job_id_.fetch_add(1, std::memory_order_relaxed));
}

bool Session::ExportArtifacts(const char* tool, std::FILE* summary_out) {
  bool ok = true;
  Tracer* tracer = ctx_->tracer();
  if (tracer != nullptr && !options_.trace_path.empty()) {
    Status status = WriteChromeTrace(*tracer, options_.trace_path);
    if (!status.ok()) {
      std::fprintf(stderr, "%s: %s\n", tool, status.ToString().c_str());
      ok = false;
    }
    PrintStageSummary(*tracer, ctx_->MetricsSnapshot(), summary_out);
  }
  if (!options_.metrics_json_path.empty()) {
    Status status =
        WriteMetricsJson(ctx_->MetricsSnapshot(), options_.metrics_json_path);
    if (!status.ok()) {
      std::fprintf(stderr, "%s: %s\n", tool, status.ToString().c_str());
      ok = false;
    }
  }
  return ok;
}

Job::Job(std::shared_ptr<ExecutionContext> ctx, std::string name, uint64_t id)
    : ctx_(std::move(ctx)),
      name_(std::move(name)),
      id_(id),
      counters_(std::make_unique<CounterRegistry>()),
      scope_(std::make_unique<ScopedJobCounters>(counters_.get())),
      root_(std::make_unique<ScopedSpan>(ctx_->tracer(), span_category::kJob,
                                         name_)),
      pipeline_(std::make_unique<Pipeline>(ctx_, name_)) {
  root_->AddArg("job_id", id_);
}

void Job::Finish() {
  if (pipeline_ != nullptr) pipeline_->Finish();
  if (root_ != nullptr) root_->End();
  scope_.reset();
}

}  // namespace st4ml
