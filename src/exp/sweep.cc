#include "exp/sweep.hh"

#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>

#include "common/json.hh"
#include "common/log.hh"

namespace dmt
{

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Does this job's resolved telemetry write fixed-name files?  Two
 *  workers doing that concurrently would clobber each other's output,
 *  so such sweeps run serial. */
bool
jobWritesTraceFiles(const SweepJob &job)
{
    const TraceOptions &t = job.cfg.trace;
    return t.enabled && (t.chrome || t.counters);
}

SweepCell
runJob(const SweepJob &job)
{
    SweepCell cell;
    const auto start = Clock::now();
    try {
        cell.result = runWorkloadJob(job.cfg, job.workload,
                                     job.max_retired, job.sample);
        cell.ok = true;
    } catch (const SimError &err) {
        cell.error = err.what();
    }
    cell.wall_seconds = secondsSince(start);
    return cell;
}

} // namespace

int
hardwareJobs()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

void
SweepStats::jsonOn(JsonWriter &w) const
{
    w.beginObject();
    w.key("pool_width").value(pool_width);
    w.key("jobs_total").value(jobs_total);
    w.key("jobs_failed").value(jobs_failed);
    w.key("retired_total").value(retired_total);
    w.key("wall_seconds").value(wall_seconds);
    w.key("busy_seconds").value(busy_seconds);
    w.key("throughput_ips").value(throughput());
    w.key("parallelism").value(parallelism());
    w.endObject();
}

SweepRunner::SweepRunner(int pool)
    : pool_(pool > 0 ? pool : hardwareJobs())
{
}

size_t
SweepRunner::add(SweepJob job)
{
    DMT_ASSERT(!ran_, "SweepRunner::add after run()");
    if (job.label.empty())
        job.label = job.workload;
    jobs_.push_back(std::move(job));
    return jobs_.size() - 1;
}

size_t
SweepRunner::add(const SimConfig &cfg, const std::string &workload,
                 u64 max_retired, std::string label)
{
    SweepJob job;
    job.label = std::move(label);
    job.workload = workload;
    job.cfg = cfg;
    job.max_retired = max_retired;
    return add(std::move(job));
}

const std::vector<SweepCell> &
SweepRunner::run(const Progress &progress)
{
    DMT_ASSERT(!ran_, "SweepRunner::run called twice");
    ran_ = true;

    const size_t total = jobs_.size();
    cells_.assign(total, SweepCell{});

    int width = pool_;
    if (width > static_cast<int>(total))
        width = static_cast<int>(total ? total : 1);
    for (const SweepJob &job : jobs_) {
        if (jobWritesTraceFiles(job)) {
            if (width > 1) {
                warn("sweep: file-writing trace sinks enabled; "
                     "running serial to keep one file per sweep");
            }
            width = 1;
            break;
        }
    }
    if (width < 1)
        width = 1;
    pool_ = width;
    stats_.pool_width = width;
    stats_.jobs_total = total;

    const auto sweep_start = Clock::now();
    std::atomic<size_t> next{0};
    std::atomic<size_t> done{0};
    std::mutex progress_mu;

    auto worker = [&]() {
        for (;;) {
            const size_t i = next.fetch_add(1);
            if (i >= total)
                return;
            // The cell slot is exclusively this worker's; only the
            // progress callback needs the lock.
            cells_[i] = runJob(jobs_[i]);
            const size_t n = done.fetch_add(1) + 1;
            if (progress) {
                std::lock_guard<std::mutex> lock(progress_mu);
                progress(jobs_[i], cells_[i], n, total);
            }
        }
    };

    if (width == 1) {
        worker();
    } else {
        std::vector<std::thread> threads;
        threads.reserve(static_cast<size_t>(width));
        for (int t = 0; t < width; ++t)
            threads.emplace_back(worker);
        for (std::thread &t : threads)
            t.join();
    }

    stats_.wall_seconds = secondsSince(sweep_start);
    for (const SweepCell &cell : cells_) {
        stats_.busy_seconds += cell.wall_seconds;
        if (cell.ok)
            stats_.retired_total += cell.result.retired;
        else
            ++stats_.jobs_failed;
    }
    return cells_;
}

} // namespace dmt
