#include "serve/service.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "obs/json.h"
#include "spec/engine.h"
#include "spec/figures.h"

namespace cavenet::serve {

namespace fs = std::filesystem;

namespace {

obs::JsonValue jstr(std::string text) {
  obs::JsonValue value;
  value.kind = obs::JsonValue::Kind::kString;
  value.string = std::move(text);
  return value;
}

obs::JsonValue jnum(double number) {
  obs::JsonValue value;
  value.kind = obs::JsonValue::Kind::kNumber;
  value.number = number;
  return value;
}

obs::JsonValue jbool(bool boolean) {
  obs::JsonValue value;
  value.kind = obs::JsonValue::Kind::kBool;
  value.boolean = boolean;
  return value;
}

obs::JsonValue jobj() {
  obs::JsonValue value;
  value.kind = obs::JsonValue::Kind::kObject;
  return value;
}

obs::JsonValue jarr() {
  obs::JsonValue value;
  value.kind = obs::JsonValue::Kind::kArray;
  return value;
}

std::string slurp_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    throw std::runtime_error("cannot read " + path.string());
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void spill_file(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
  if (!out.flush()) {
    throw std::runtime_error("cannot write " + path.string());
  }
}

std::string json_error_body(const std::string& message) {
  obs::JsonWriter writer;
  writer.begin_object();
  writer.key("error");
  writer.value(message);
  writer.end_object();
  return writer.str() + "\n";
}

/// Content type for a served artifact, by extension.
std::string artifact_content_type(const std::string& name) {
  if (name.size() >= 4 && name.compare(name.size() - 4, 4, ".csv") == 0) {
    return "text/csv";
  }
  if (name.size() >= 5 && name.compare(name.size() - 5, 5, ".json") == 0) {
    return "application/json";
  }
  if (name.size() >= 6 && name.compare(name.size() - 6, 6, ".jsonl") == 0) {
    return "application/jsonl";
  }
  return "application/octet-stream";
}

bool terminal(JobState state) noexcept {
  return state == JobState::kDone || state == JobState::kFailed ||
         state == JobState::kCancelled;
}

}  // namespace

std::string_view to_string(JobState state) noexcept {
  switch (state) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kFailed: return "failed";
    case JobState::kCancelled: return "cancelled";
  }
  return "unknown";
}

JobService::JobService(ServiceOptions options) : options_(std::move(options)) {
  if (options_.state_dir.empty()) {
    throw std::runtime_error("serve: state_dir must not be empty");
  }
  fs::create_directories(fs::path(options_.state_dir) / "jobs");
  cache_ = std::make_unique<ResultCache>(
      (fs::path(options_.state_dir) / "cache").string());
  journal_ = std::make_unique<Journal>(
      (fs::path(options_.state_dir) / "journal.jsonl").string());
  if (options_.executor != nullptr) {
    executor_ = options_.executor;
  } else {
    owned_executor_ = std::make_unique<exec::ThreadPoolExecutor>(
        exec::resolve_workers(options_.workers));
    executor_ = owned_executor_.get();
  }

  {
    std::lock_guard<std::mutex> lock(mutex_);
    replay_locked();
  }

  pump_ = std::thread([this] { worker_loop(); });

  HttpServerOptions http_options;
  http_options.port = options_.http_port;
  http_options.max_body_bytes = options_.max_body_bytes;
  http_ = std::make_unique<HttpServer>(
      [this](const HttpRequest& request) { return handle(request); },
      http_options);
}

JobService::~JobService() { stop(); }

void JobService::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopped_) return;
    stopped_ = true;
  }
  // Order matters: stop admitting first, then stop the workers. Like a
  // crash, no terminal records are written for unfinished jobs — the
  // journal replay on the next start re-enqueues their pending units.
  if (http_) http_->stop();
  queue_.shutdown();
  if (pump_.joinable()) pump_.join();
}

void JobService::worker_loop() {
  const std::size_t lanes = static_cast<std::size_t>(executor_->workers());
  // Each pool lane runs a claim loop until shutdown. The Executor only
  // decides where the loops run; fairness across jobs is the queue's.
  executor_->parallel_for(lanes, 1, [this](std::size_t) {
    WorkItem item;
    while (queue_.pop(&item)) execute_unit(item);
  });
}

std::string JobService::job_dir_locked(const std::string& job_id) const {
  return (fs::path(options_.state_dir) / "jobs" / job_id).string();
}

std::string JobService::job_dir(const std::string& job_id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return job_dir_locked(job_id);
}

std::shared_ptr<JobService::Job> JobService::make_job_locked(
    const std::string& id, const std::string& spec_text,
    const std::string& source_name) {
  auto job = std::make_shared<Job>();
  job->id = id;
  job->spec = spec::parse_campaign(spec_text, source_name);
  if (job->spec.kind == spec::SpecKind::kCampaign) {
    job->points = spec::expand_points(job->spec);
    job->units_total = job->points.size();
  } else {
    job->whole_spec = true;
    job->units_total = 1;
  }
  job->unit_done.assign(job->units_total, false);
  return job;
}

void JobService::enqueue_pending_locked(const std::shared_ptr<Job>& job) {
  if (!job->progress) {
    runner::ProgressOptions progress_options;
    progress_options.path =
        (fs::path(job_dir_locked(job->id)) / "progress.jsonl").string();
    progress_options.heartbeat_period_s = options_.heartbeat_period_s;
    progress_options.stall_after_s =
        options_.heartbeat_period_s > 0 ? options_.heartbeat_period_s * 6 : 0;
    job->progress = std::make_shared<runner::ProgressStream>(
        job->units_total, executor_->workers(), progress_options);
  }
  std::vector<std::size_t> pending;
  for (std::size_t unit = 0; unit < job->units_total; ++unit) {
    if (!job->unit_done[unit]) pending.push_back(unit);
  }
  if (pending.empty()) {
    finalize_locked(job);
    return;
  }
  queue_.push(job->id, pending);
}

void JobService::replay_locked() {
  for (const obs::JsonValue& record : journal_->replayed()) {
    const obs::JsonValue* kind = record.find("record");
    const obs::JsonValue* job_id = record.find("job");
    if (kind == nullptr || !kind->is_string() || job_id == nullptr ||
        !job_id->is_string()) {
      continue;
    }
    if (kind->string == "job_submitted") {
      // Keep job ids monotonic across restarts.
      if (job_id->string.size() > 1 && job_id->string[0] == 'j') {
        const std::size_t seq = static_cast<std::size_t>(
            std::strtoull(job_id->string.c_str() + 1, nullptr, 10));
        next_job_seq_ = std::max(next_job_seq_, seq + 1);
      }
      std::shared_ptr<Job> job;
      try {
        const std::string spec_text = slurp_file(
            fs::path(job_dir_locked(job_id->string)) / "spec.json");
        job = make_job_locked(job_id->string, spec_text,
                              job_id->string + "/spec.json");
      } catch (const std::exception& error) {
        job = std::make_shared<Job>();
        job->id = job_id->string;
        job->state = JobState::kFailed;
        job->error = std::string("spec unreadable on replay: ") + error.what();
      }
      jobs_.push_back(std::move(job));
      continue;
    }
    std::shared_ptr<Job> job;
    for (const std::shared_ptr<Job>& candidate : jobs_) {
      if (candidate->id == job_id->string) {
        job = candidate;
        break;
      }
    }
    if (!job) continue;
    if (kind->string == "point_done") {
      const obs::JsonValue* unit = record.find("unit");
      if (unit == nullptr || !unit->is_number()) continue;
      const std::size_t index = static_cast<std::size_t>(unit->number);
      if (index >= job->unit_done.size() || job->unit_done[index]) continue;
      job->unit_done[index] = true;
      ++job->units_done;
      const obs::JsonValue* cached = record.find("cached");
      if (cached != nullptr && cached->boolean) ++job->cache_hits;
      if (const obs::JsonValue* files = record.find("files");
          files != nullptr && files->is_array()) {
        for (const obs::JsonValue& file : files->array) {
          if (file.is_string()) job->files.push_back(file.string);
        }
      }
    } else if (kind->string == "job_done") {
      job->state = JobState::kDone;
      if (const obs::JsonValue* files = record.find("files");
          files != nullptr && files->is_array()) {
        job->files.clear();
        for (const obs::JsonValue& file : files->array) {
          if (file.is_string()) job->files.push_back(file.string);
        }
      }
    } else if (kind->string == "job_failed") {
      job->state = JobState::kFailed;
      if (const obs::JsonValue* error = record.find("error");
          error != nullptr && error->is_string()) {
        job->error = error->string;
      }
    } else if (kind->string == "job_cancelled") {
      job->state = JobState::kCancelled;
    }
  }

  // Re-enqueue every unfinished unit of every non-terminal job — the
  // crash-recovery contract: nothing finished is simulated twice,
  // nothing pending is lost.
  for (const std::shared_ptr<Job>& job : jobs_) {
    if (terminal(job->state)) continue;
    const std::size_t pending = job->units_total - job->units_done;
    replayed_pending_units_ += pending;
    stats_.counter("serve.queue.replayed_units").inc(pending);
    enqueue_pending_locked(job);
  }
}

std::string JobService::submit(const std::string& spec_text) {
  // Enforce the untrusted-input limits before full validation; the spec
  // parser then re-reads the same bytes with its own diagnostics.
  obs::JsonParseLimits limits;
  limits.max_depth = options_.max_json_depth;
  limits.max_bytes = options_.max_body_bytes;
  obs::parse_json(spec_text, "submission", limits);

  std::lock_guard<std::mutex> lock(mutex_);
  if (stopped_) throw std::runtime_error("serve: service is stopping");
  const std::string id = "j" + std::to_string(next_job_seq_);
  // Validate before any durable state mutates.
  std::shared_ptr<Job> job = make_job_locked(id, spec_text, "submission");
  ++next_job_seq_;

  // Durability order: spec file first, then the journal record that
  // references it — replay never sees a job it cannot reconstruct.
  const fs::path dir = job_dir_locked(id);
  fs::create_directories(dir);
  spill_file(dir / "spec.json", spec_text);
  obs::JsonValue record = jobj();
  record.object.emplace_back("record", jstr("job_submitted"));
  record.object.emplace_back("job", jstr(id));
  record.object.emplace_back("name", jstr(job->spec.name));
  record.object.emplace_back("kind",
                             jstr(std::string(to_string(job->spec.kind))));
  record.object.emplace_back("fingerprint", jstr(job->spec.fingerprint));
  record.object.emplace_back("units",
                             jnum(static_cast<double>(job->units_total)));
  journal_->append(record);

  jobs_.push_back(job);
  stats_.counter("serve.jobs.submitted").inc();
  stats_.counter("serve.units.total").inc(job->units_total);
  enqueue_pending_locked(job);
  return id;
}

void JobService::execute_unit(const WorkItem& item) {
  std::shared_ptr<Job> job;
  std::string dir;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const std::shared_ptr<Job>& candidate : jobs_) {
      if (candidate->id == item.job_id) {
        job = candidate;
        break;
      }
    }
    if (!job || terminal(job->state)) return;
    job->state = JobState::kRunning;
    dir = job_dir_locked(job->id);
  }

  const spec::CampaignSpec& spec = job->spec;
  const std::string key =
      unit_cache_key(spec.fingerprint, job->whole_spec, item.unit);
  const std::string unit_name =
      job->whole_spec ? spec.name
                      : spec.name + "[" + std::to_string(item.unit) + "]";

  // Cache first: a hit materializes byte-identical artifacts without
  // simulating (the serve-side twin of --resume trusting checkpoints).
  ResultCache::Materialized materialized;
  bool hit = cache_->materialize(key, dir, &materialized);
  std::vector<std::string> files;
  std::uint64_t events = 0;
  std::uint64_t stored_bytes = 0;
  if (hit) {
    files = materialized.files;
    job->progress->point_resumed(item.unit, unit_name);
  } else {
    job->progress->point_started(item.unit, unit_name);
    try {
      if (job->whole_spec) {
        int rc = 0;
        if (spec.kind == spec::SpecKind::kGoodputSurface) {
          rc = spec::run_goodput_surface(spec, 1, dir);
        } else {
          rc = spec::run_fundamental_diagram(spec, 1, dir);
        }
        if (rc != 0) {
          throw std::runtime_error("spec run exited with code " +
                                   std::to_string(rc));
        }
        files = {spec.outputs.csv, spec.outputs.manifest};
      } else {
        const spec::PointArtifacts artifacts =
            spec::run_campaign_point(spec, job->points[item.unit], dir);
        files = artifacts.files;
        events = artifacts.events_dispatched;
      }
    } catch (const std::exception& error) {
      job->progress->point_failed(item.unit, unit_name, error.what());
      std::lock_guard<std::mutex> lock(mutex_);
      fail_locked(job, "unit " + std::to_string(item.unit) + " (" +
                           unit_name + "): " + error.what());
      return;
    }
    stored_bytes = cache_->store(key, dir, files);
    job->progress->point_finished(item.unit, unit_name, events);
  }

  std::lock_guard<std::mutex> lock(mutex_);
  if (hit) {
    stats_.counter("serve.cache.hits").inc();
    stats_.counter("serve.cache.bytes_served").inc(materialized.bytes);
  } else {
    stats_.counter("serve.cache.misses").inc();
    stats_.counter("serve.cache.bytes_written").inc(stored_bytes);
    stats_.counter("serve.units.executed").inc();
  }
  // Cancelled (or failed) while we were running: the cache keeps the
  // result, but the job's story is over — no further journaling.
  if (terminal(job->state) || job->unit_done[item.unit]) return;

  obs::JsonValue record = jobj();
  record.object.emplace_back("record", jstr("point_done"));
  record.object.emplace_back("job", jstr(job->id));
  record.object.emplace_back("unit", jnum(static_cast<double>(item.unit)));
  record.object.emplace_back("cached", jbool(hit));
  obs::JsonValue file_list = jarr();
  for (const std::string& name : files) file_list.array.push_back(jstr(name));
  record.object.emplace_back("files", std::move(file_list));
  journal_->append(record);

  job->unit_done[item.unit] = true;
  ++job->units_done;
  if (hit) ++job->cache_hits;
  job->files.insert(job->files.end(), files.begin(), files.end());
  if (job->units_done == job->units_total) finalize_locked(job);
}

void JobService::finalize_locked(const std::shared_ptr<Job>& job) {
  if (job->spec.kind == spec::SpecKind::kCampaign) {
    // Rebuild the campaign CSV/summary from the on-disk point manifests
    // — the same single writer cavenet-run uses, so fresh, cached and
    // crash-resumed jobs all serialize byte-identically.
    spec::write_campaign_outputs(job->spec, job->points,
                                 job_dir_locked(job->id));
    job->files.push_back(job->spec.outputs.csv);
    job->files.push_back(job->spec.outputs.manifest);
  }
  job->state = JobState::kDone;
  if (job->progress) job->progress->campaign_finished();

  obs::JsonValue record = jobj();
  record.object.emplace_back("record", jstr("job_done"));
  record.object.emplace_back("job", jstr(job->id));
  obs::JsonValue file_list = jarr();
  for (const std::string& name : job->files) {
    file_list.array.push_back(jstr(name));
  }
  record.object.emplace_back("files", std::move(file_list));
  journal_->append(record);

  stats_.counter("serve.jobs.done").inc();
  jobs_cv_.notify_all();
}

void JobService::fail_locked(const std::shared_ptr<Job>& job,
                             const std::string& error) {
  if (terminal(job->state)) return;
  job->state = JobState::kFailed;
  job->error = error;
  queue_.cancel(job->id);

  obs::JsonValue record = jobj();
  record.object.emplace_back("record", jstr("job_failed"));
  record.object.emplace_back("job", jstr(job->id));
  record.object.emplace_back("error", jstr(error));
  journal_->append(record);

  stats_.counter("serve.jobs.failed").inc();
  jobs_cv_.notify_all();
}

bool JobService::cancel(const std::string& job_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const std::shared_ptr<Job>& job : jobs_) {
    if (job->id != job_id) continue;
    if (terminal(job->state)) return true;  // idempotent
    job->state = JobState::kCancelled;
    queue_.cancel(job_id);

    obs::JsonValue record = jobj();
    record.object.emplace_back("record", jstr("job_cancelled"));
    record.object.emplace_back("job", jstr(job_id));
    journal_->append(record);

    stats_.counter("serve.jobs.cancelled").inc();
    jobs_cv_.notify_all();
    return true;
  }
  return false;
}

bool JobService::wait(const std::string& job_id, double timeout_s) {
  std::unique_lock<std::mutex> lock(mutex_);
  std::shared_ptr<Job> job;
  for (const std::shared_ptr<Job>& candidate : jobs_) {
    if (candidate->id == job_id) {
      job = candidate;
      break;
    }
  }
  if (!job) return false;
  return jobs_cv_.wait_for(
      lock, std::chrono::duration<double>(timeout_s),
      [&job] { return terminal(job->state); });
}

obs::JsonValue JobService::job_status_locked(const Job& job) const {
  obs::JsonValue status = jobj();
  status.object.emplace_back("job", jstr(job.id));
  status.object.emplace_back("name", jstr(job.spec.name));
  status.object.emplace_back("kind",
                             jstr(std::string(to_string(job.spec.kind))));
  status.object.emplace_back("state",
                             jstr(std::string(to_string(job.state))));
  status.object.emplace_back("fingerprint", jstr(job.spec.fingerprint));
  status.object.emplace_back("units",
                             jnum(static_cast<double>(job.units_total)));
  status.object.emplace_back("units_done",
                             jnum(static_cast<double>(job.units_done)));
  status.object.emplace_back("cache_hits",
                             jnum(static_cast<double>(job.cache_hits)));
  if (!job.error.empty()) {
    status.object.emplace_back("error", jstr(job.error));
  }
  obs::JsonValue files = jarr();
  for (const std::string& name : job.files) files.array.push_back(jstr(name));
  status.object.emplace_back("files", std::move(files));
  return status;
}

obs::JsonValue JobService::job_status(const std::string& job_id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const std::shared_ptr<Job>& job : jobs_) {
    if (job->id == job_id) return job_status_locked(*job);
  }
  throw std::out_of_range("serve: unknown job " + job_id);
}

std::vector<std::string> JobService::job_ids() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> ids;
  ids.reserve(jobs_.size());
  for (const std::shared_ptr<Job>& job : jobs_) ids.push_back(job->id);
  return ids;
}

obs::StatsSnapshot JobService::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  stats_.gauge("serve.queue.depth")
      .set(static_cast<double>(queue_.depth()));
  const ResultCache::Totals totals = cache_->totals();
  stats_.gauge("serve.cache.entries").set(static_cast<double>(totals.entries));
  stats_.gauge("serve.cache.bytes").set(static_cast<double>(totals.bytes));
  stats_.gauge("serve.jobs.total").set(static_cast<double>(jobs_.size()));
  return stats_.snapshot();
}

HttpResponse JobService::handle(const HttpRequest& request) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stats_.counter("serve.http.requests").inc();
  }
  HttpResponse response;
  const std::vector<std::string> segments = request.segments();

  if (request.path == "/v1/healthz") {
    response.body = "{\"ok\": true}\n";
    return response;
  }
  if (request.path == "/v1/stats") {
    response.body = stats().to_json() + "\n";
    return response;
  }
  if (segments.size() < 2 || segments[0] != "v1" || segments[1] != "jobs") {
    response.status = 404;
    response.body = json_error_body("no such route: " + request.path);
    return response;
  }

  // POST /v1/jobs — submit; GET /v1/jobs — list.
  if (segments.size() == 2) {
    if (request.method == "POST") {
      std::string id;
      try {
        id = submit(request.body);
      } catch (const std::exception& error) {
        response.status = 422;
        response.body = json_error_body(error.what());
        return response;
      }
      response.status = 201;
      response.body = obs::to_json(job_status(id)) + "\n";
      return response;
    }
    if (request.method == "GET") {
      std::lock_guard<std::mutex> lock(mutex_);
      obs::JsonValue listing = jobj();
      obs::JsonValue entries = jarr();
      for (const std::shared_ptr<Job>& job : jobs_) {
        entries.array.push_back(job_status_locked(*job));
      }
      listing.object.emplace_back("jobs", std::move(entries));
      response.body = obs::to_json(listing) + "\n";
      return response;
    }
    response.status = 405;
    response.body = json_error_body("method not allowed");
    return response;
  }

  // Everything below addresses one job.
  const std::string& job_id = segments[2];
  std::shared_ptr<Job> job;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const std::shared_ptr<Job>& candidate : jobs_) {
      if (candidate->id == job_id) {
        job = candidate;
        break;
      }
    }
  }
  if (!job) {
    response.status = 404;
    response.body = json_error_body("unknown job " + job_id);
    return response;
  }

  if (segments.size() == 3) {
    if (request.method == "GET") {
      std::lock_guard<std::mutex> lock(mutex_);
      response.body = obs::to_json(job_status_locked(*job)) + "\n";
      return response;
    }
    if (request.method == "DELETE") {
      cancel(job_id);
      std::lock_guard<std::mutex> lock(mutex_);
      response.body = obs::to_json(job_status_locked(*job)) + "\n";
      return response;
    }
    response.status = 405;
    response.body = json_error_body("method not allowed");
    return response;
  }

  if (segments[3] == "events" && segments.size() == 4) {
    // Chunked JSONL: the job's progress stream so far, then (with
    // ?follow=1) everything new until the job is terminal.
    const bool follow = request.query_param("follow", "0") == "1";
    auto offset = std::make_shared<std::size_t>(0);
    response.content_type = "application/jsonl";
    response.chunks = [this, job, offset, follow](std::string* chunk) {
      // Read the terminal flag before the snapshot: a job finalizes (last
      // progress lines included) under mutex_, so a snapshot taken after
      // seeing it terminal holds every line, and the stream ends only
      // once such a snapshot has nothing new.
      bool done;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        done = terminal(job->state) || stopped_;
      }
      const std::string text = job->progress ? job->progress->jsonl() : "";
      if (*offset < text.size()) {
        *chunk = text.substr(*offset);
        *offset = text.size();
        return true;
      }
      if (done || !follow) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      return true;  // empty chunk: skipped on the wire, loop again
    };
    return response;
  }

  if (segments[3] == "results") {
    if (request.method != "GET") {
      response.status = 405;
      response.body = json_error_body("method not allowed");
      return response;
    }
    std::vector<std::string> files;
    std::string dir;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      files = job->files;
      dir = job_dir_locked(job_id);
    }
    if (segments.size() == 4) {
      obs::JsonValue listing = jobj();
      listing.object.emplace_back("job", jstr(job_id));
      obs::JsonValue entries = jarr();
      for (const std::string& name : files) {
        obs::JsonValue entry = jobj();
        entry.object.emplace_back("name", jstr(name));
        std::error_code ec;
        const auto size = fs::file_size(fs::path(dir) / name, ec);
        entry.object.emplace_back("bytes",
                                  jnum(ec ? 0.0 : static_cast<double>(size)));
        entries.array.push_back(std::move(entry));
      }
      listing.object.emplace_back("files", std::move(entries));
      response.body = obs::to_json(listing) + "\n";
      return response;
    }
    // GET .../results/<name>: whitelist-only — the name must match one
    // of the job's recorded artifacts exactly, so path traversal has no
    // surface.
    std::string name = segments[4];
    for (std::size_t i = 5; i < segments.size(); ++i) {
      name += "/" + segments[i];
    }
    if (std::find(files.begin(), files.end(), name) == files.end()) {
      response.status = 404;
      response.body = json_error_body("no such artifact: " + name);
      return response;
    }
    try {
      response.body = slurp_file(fs::path(dir) / name);
      response.content_type = artifact_content_type(name);
    } catch (const std::exception& error) {
      response.status = 500;
      response.body = json_error_body(error.what());
    }
    return response;
  }

  response.status = 404;
  response.body = json_error_body("no such route: " + request.path);
  return response;
}

}  // namespace cavenet::serve
