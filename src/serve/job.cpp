#include "serve/job.hpp"

#include "common/log.hpp"

namespace spmrt {
namespace serve {

const char *
jobStatusName(JobStatus status)
{
    switch (status) {
      case JobStatus::Ok:
        return "ok";
      case JobStatus::CacheHit:
        return "cache_hit";
      case JobStatus::Shed:
        return "shed";
      case JobStatus::Cancelled:
        return "cancelled";
      case JobStatus::Quarantined:
        return "quarantined";
      case JobStatus::Hang:
        return "hang";
      case JobStatus::CheckerViolation:
        return "checker_violation";
      case JobStatus::DigestMismatch:
        return "digest_mismatch";
      case JobStatus::BudgetExceeded:
        return "budget_exceeded";
      case JobStatus::DeadlineExceeded:
        return "deadline_exceeded";
      case JobStatus::SetupFailure:
        return "setup_failure";
    }
    return "unknown";
}

bool
jobStatusIsFailure(JobStatus status)
{
    switch (status) {
      case JobStatus::Hang:
      case JobStatus::CheckerViolation:
      case JobStatus::DigestMismatch:
      case JobStatus::BudgetExceeded:
      case JobStatus::DeadlineExceeded:
      case JobStatus::SetupFailure:
        return true;
      default:
        return false;
    }
}

bool
jobStatusRetryable(JobStatus status)
{
    switch (status) {
      case JobStatus::Hang:
      case JobStatus::BudgetExceeded:
      case JobStatus::DeadlineExceeded:
        return true;
      default:
        return false;
    }
}

uint32_t
backoffDelayMs(const RetryPolicy &policy, uint64_t seed, uint32_t attempt)
{
    SPMRT_ASSERT(attempt >= 1, "backoff attempt is 1-based");
    // Exponential from the base, saturating (shift-safe) at the cap.
    uint64_t delay = policy.backoffBaseMs;
    uint32_t doublings = attempt - 1;
    while (doublings-- > 0 && delay < policy.backoffMaxMs)
        delay *= 2;
    if (delay > policy.backoffMaxMs)
        delay = policy.backoffMaxMs;
    // Seeded jitter in [0, jitterMs]: a fresh stream per (seed, attempt)
    // keeps the whole schedule a pure function of its inputs.
    if (policy.jitterMs != 0) {
        Xoshiro256StarStar rng(hash64(seed ^ (0x9e3779b97f4a7c15ULL *
                                              (attempt + 1))));
        delay += rng.nextBounded(static_cast<uint64_t>(policy.jitterMs) + 1);
    }
    return static_cast<uint32_t>(delay);
}

namespace {

/** Minimal JSON string escaping (quotes, backslashes, control bytes). */
std::string
jsonEscape(const std::string &raw)
{
    std::string out;
    out.reserve(raw.size() + 8);
    for (char c : raw) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\r':
            out += "\\r";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20)
                out += log::format("\\u%04x", c);
            else
                out += c;
        }
    }
    return out;
}

} // namespace

std::string
JobReport::toJson() const
{
    std::string backoffs = "[";
    for (size_t i = 0; i < backoffMs.size(); ++i) {
        if (i != 0)
            backoffs += ",";
        backoffs += log::format("%u", backoffMs[i]);
    }
    backoffs += "]";
    return log::format(
        "{\"id\":%llu,\"name\":\"%s\",\"status\":\"%s\","
        "\"digest\":\"0x%016llx\",\"cycles\":%llu,\"attempts\":%u,"
        "\"from_cache\":%s,\"quarantined\":%s,\"backoff_ms\":%s,"
        "\"wall_ms\":%.3f,\"build_ms\":%.3f,\"prepare_ms\":%.3f,"
        "\"run_ms\":%.3f,\"digest_ms\":%.3f,"
        "\"error\":\"%s\",\"dump\":\"%s\"}",
        static_cast<unsigned long long>(id), jsonEscape(name).c_str(),
        jobStatusName(status), static_cast<unsigned long long>(digest),
        static_cast<unsigned long long>(cycles), attempts,
        fromCache ? "true" : "false", quarantined ? "true" : "false",
        backoffs.c_str(), wallMs, buildMs, prepareMs, runMs, digestMs,
        jsonEscape(error).c_str(),
        jsonEscape(dump).c_str());
}

} // namespace serve
} // namespace spmrt
