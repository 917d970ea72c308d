#include "obs/journal.h"

#include <algorithm>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "common/parse.h"

namespace qs {
namespace obs {
namespace {

/// Labels may feed from error messages; whitespace would break the
/// one-line key=value grammar, so it is folded to '_' and the label is
/// truncated to a bounded class tag -- journals record error *classes*,
/// not payloads.
constexpr std::size_t kMaxLabel = 48;

std::string sanitize_label(const std::string& s) {
  std::string out = s.substr(0, kMaxLabel);
  for (char& c : out)
    if (c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '=') c = '_';
  return out;
}

std::uint64_t parse_u64(const std::string& value, const std::string& line) {
  return parse_number<std::uint64_t>(value, "Journal", line);
}

}  // namespace

const char* to_string(JournalEventType type) {
  switch (type) {
    case JournalEventType::kSubmitted:
      return "submitted";
    case JournalEventType::kDispatched:
      return "dispatched";
    case JournalEventType::kCompleted:
      return "completed";
    case JournalEventType::kFailed:
      return "failed";
    case JournalEventType::kCancelled:
      return "cancelled";
    case JournalEventType::kExpired:
      return "expired";
    case JournalEventType::kRecalibrated:
      return "recalibrated";
    case JournalEventType::kPaused:
      return "paused";
    case JournalEventType::kResumed:
      return "resumed";
    case JournalEventType::kShutdown:
      return "shutdown";
    case JournalEventType::kSnapshot:
      return "snapshot";
  }
  return "unknown";
}

namespace {

bool type_from_string(const std::string& name, JournalEventType& out) {
  for (int t = 0; t <= static_cast<int>(JournalEventType::kSnapshot); ++t) {
    const auto candidate = static_cast<JournalEventType>(t);
    if (name == to_string(candidate)) {
      out = candidate;
      return true;
    }
  }
  return false;
}

}  // namespace

std::string JournalEvent::serialize() const {
  // Fixed key order; optional fields are emitted exactly when nonzero /
  // nonempty -- a pure function of the value, so serialization stays
  // deterministic.
  std::ostringstream os;
  os << "t=" << time_ns << " type=" << to_string(type) << " job=" << job;
  if (!tenant.empty()) os << " tenant=" << sanitize_label(tenant);
  if (!detail.empty()) os << " detail=" << sanitize_label(detail);
  if (seed != 0) os << " seed=" << seed;
  if (epoch != 0) os << " epoch=" << epoch;
  if (deadline_ns != 0) os << " deadline=" << deadline_ns;
  if (digest != 0) os << " digest=" << digest;
  if (type == JournalEventType::kSnapshot) {
    os << " submitted=" << counters.submitted
       << " completed=" << counters.completed << " failed=" << counters.failed
       << " cancelled=" << counters.cancelled
       << " expired=" << counters.expired << " queued=" << counters.queued
       << " running=" << counters.running
       << " recalibrations=" << counters.recalibrations
       << " stale=" << counters.stale_hits
       << " stored=" << counters.results_stored
       << " cepoch=" << counters.calib_epoch;
  }
  return os.str();
}

JournalEvent JournalEvent::parse(const std::string& line) {
  JournalEvent event;
  std::istringstream is(line);
  std::string token;
  bool saw_type = false;
  while (is >> token) {
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos)
      throw std::runtime_error("Journal: malformed token '" + token +
                               "' in line: " + line);
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    if (key == "t") {
      event.time_ns = parse_u64(value, line);
    } else if (key == "type") {
      if (!type_from_string(value, event.type))
        throw std::runtime_error("Journal: unknown event type '" + value +
                                 "' in line: " + line);
      saw_type = true;
    } else if (key == "job") {
      event.job = parse_u64(value, line);
    } else if (key == "tenant") {
      event.tenant = value;
    } else if (key == "detail") {
      event.detail = value;
    } else if (key == "seed") {
      event.seed = parse_u64(value, line);
    } else if (key == "epoch") {
      event.epoch = parse_u64(value, line);
    } else if (key == "deadline") {
      event.deadline_ns = parse_u64(value, line);
    } else if (key == "digest") {
      event.digest = parse_u64(value, line);
    } else if (key == "submitted") {
      event.counters.submitted = parse_u64(value, line);
    } else if (key == "completed") {
      event.counters.completed = parse_u64(value, line);
    } else if (key == "failed") {
      event.counters.failed = parse_u64(value, line);
    } else if (key == "cancelled") {
      event.counters.cancelled = parse_u64(value, line);
    } else if (key == "expired") {
      event.counters.expired = parse_u64(value, line);
    } else if (key == "queued") {
      event.counters.queued = parse_u64(value, line);
    } else if (key == "running") {
      event.counters.running = parse_u64(value, line);
    } else if (key == "recalibrations") {
      event.counters.recalibrations = parse_u64(value, line);
    } else if (key == "stale") {
      event.counters.stale_hits = parse_u64(value, line);
    } else if (key == "stored") {
      event.counters.results_stored = parse_u64(value, line);
    } else if (key == "cepoch") {
      event.counters.calib_epoch = parse_u64(value, line);
    } else {
      throw std::runtime_error("Journal: unknown field '" + key +
                               "' in line: " + line);
    }
  }
  if (!saw_type)
    throw std::runtime_error("Journal: event line without a type: " + line);
  return event;
}

void Journal::set_header(std::string key, std::string value) {
  MutexLock lock(mutex_);
  for (auto& [k, v] : header_) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  header_.emplace_back(std::move(key), std::move(value));
}

std::string Journal::header(const std::string& key) const {
  MutexLock lock(mutex_);
  for (const auto& [k, v] : header_)
    if (k == key) return v;
  return {};
}

void Journal::record(JournalEvent event) {
  MutexLock lock(mutex_);
  events_.push_back(std::move(event));
}

std::size_t Journal::size() const {
  MutexLock lock(mutex_);
  return events_.size();
}

namespace {

/// Canonical total order. The serialized-line tiebreak makes the order
/// a pure function of the event multiset: events identical in every
/// field serialize identically, so their relative order is irrelevant
/// to write().
void sort_events(std::vector<JournalEvent>& events,
                 std::vector<std::string>& lines) {
  lines.reserve(events.size());
  for (const JournalEvent& e : events) lines.push_back(e.serialize());
  std::vector<std::size_t> index(events.size());
  for (std::size_t i = 0; i < index.size(); ++i) index[i] = i;
  // kSnapshot sorts after EVERY other event at its cut time (its
  // counters were read after the tick's transitions), not merely after
  // job-0 service events -- hence the explicit is-snapshot rank ahead
  // of the job id.
  const auto key = [&](std::size_t i) {
    return std::make_tuple(
        events[i].time_ns,
        events[i].type == JournalEventType::kSnapshot ? 1 : 0, events[i].job,
        static_cast<int>(events[i].type), std::cref(lines[i]));
  };
  std::sort(index.begin(), index.end(),
            [&](std::size_t a, std::size_t b) { return key(a) < key(b); });
  std::vector<JournalEvent> sorted_events;
  std::vector<std::string> sorted_lines;
  sorted_events.reserve(events.size());
  sorted_lines.reserve(events.size());
  for (std::size_t i : index) {
    sorted_events.push_back(std::move(events[i]));
    sorted_lines.push_back(std::move(lines[i]));
  }
  events = std::move(sorted_events);
  lines = std::move(sorted_lines);
}

}  // namespace

std::vector<JournalEvent> Journal::events() const {
  std::vector<JournalEvent> copy;
  {
    MutexLock lock(mutex_);
    copy = events_;
  }
  std::vector<std::string> lines;
  sort_events(copy, lines);
  return copy;
}

void Journal::write(std::ostream& os) const {
  std::vector<JournalEvent> copy;
  std::vector<std::pair<std::string, std::string>> header;
  {
    MutexLock lock(mutex_);
    copy = events_;
    header = header_;
  }
  std::vector<std::string> lines;
  sort_events(copy, lines);
  os << "QSJ1\n";
  for (const auto& [k, v] : header) os << "H " << k << "=" << v << "\n";
  for (const std::string& line : lines) os << "E " << line << "\n";
  os << "F count=" << lines.size() << "\n";
}

std::string Journal::str() const {
  std::ostringstream os;
  write(os);
  return os.str();
}

std::string Journal::Parsed::header_value(const std::string& key) const {
  for (const auto& [k, v] : header)
    if (k == key) return v;
  return {};
}

Journal::Parsed Journal::read(std::istream& is) {
  Parsed out;
  std::string line;
  if (!std::getline(is, line) || line != "QSJ1")
    throw std::runtime_error("Journal::read: missing QSJ1 magic");
  bool saw_footer = false;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    if (line.rfind("H ", 0) == 0) {
      const std::size_t eq = line.find('=', 2);
      if (eq == std::string::npos)
        throw std::runtime_error("Journal::read: malformed header: " + line);
      out.header.emplace_back(line.substr(2, eq - 2), line.substr(eq + 1));
    } else if (line.rfind("E ", 0) == 0) {
      out.events.push_back(JournalEvent::parse(line.substr(2)));
    } else if (line.rfind("F count=", 0) == 0) {
      const std::uint64_t count = parse_u64(line.substr(8), line);
      if (count != out.events.size())
        throw std::runtime_error(
            "Journal::read: footer count " + std::to_string(count) +
            " != " + std::to_string(out.events.size()) + " events (truncated"
            " journal?)");
      saw_footer = true;
    } else {
      throw std::runtime_error("Journal::read: unrecognized line: " + line);
    }
  }
  if (!saw_footer)
    throw std::runtime_error("Journal::read: missing footer (truncated?)");
  return out;
}

}  // namespace obs
}  // namespace qs
