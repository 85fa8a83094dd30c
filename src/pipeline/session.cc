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
                                         name_)) {
  root_->AddArg("job_id", id_);
}

void Job::Finish() {
  if (root_ != nullptr) root_->End();
  scope_.reset();
}

void Job::AccountStage(const std::string& stage_name, bool have_in,
                       uint64_t records_in, bool have_out,
                       uint64_t records_out) {
  CounterRegistry& counters = internal::Counters(*ctx_);
  if (stage_name == "conversion") {
    if (have_in) counters.Add(Counter::kConversionRecordsIn, records_in);
    if (have_out) counters.Add(Counter::kConversionRecordsOut, records_out);
  } else if (stage_name == "extraction") {
    if (have_in) counters.Add(Counter::kExtractionRecordsIn, records_in);
    if (have_out) counters.Add(Counter::kExtractionRecordsOut, records_out);
  }
}

namespace job_internal {

Status PrefixStage(const std::string& stage, const Status& s) {
  std::string msg = "stage " + stage + ": " + s.message();
  switch (s.code()) {
    case Status::Code::kNotFound: return Status::NotFound(std::move(msg));
    case Status::Code::kCorruption: return Status::Corruption(std::move(msg));
    case Status::Code::kIOError: return Status::IOError(std::move(msg));
    case Status::Code::kInvalidArgument:
      return Status::InvalidArgument(std::move(msg));
    default: return Status::Internal(std::move(msg));
  }
}

}  // namespace job_internal

}  // namespace st4ml
