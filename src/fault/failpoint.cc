#include "fault/failpoint.h"

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "common/check.h"
#include "common/string_util.h"
#include "obs/macros.h"

namespace freshsel::fault {

std::string_view TriggerModeName(TriggerMode mode) {
  switch (mode) {
    case TriggerMode::kDisarmed:
      return "disarmed";
    case TriggerMode::kAlways:
      return "always";
    case TriggerMode::kOneShot:
      return "once";
    case TriggerMode::kEveryNth:
      return "nth";
    case TriggerMode::kProbability:
      return "prob";
  }
  return "unknown";
}

Failpoint::Failpoint(std::string name) : name_(std::move(name)) {}

void Failpoint::Arm(const TriggerSpec& spec) {
  if (spec.mode == TriggerMode::kDisarmed) {
    Disarm();
    return;
  }
  FRESHSEL_CHECK(spec.mode != TriggerMode::kEveryNth || spec.every_nth >= 1)
      << "failpoint " << name_ << ": every_nth must be >= 1";
  FRESHSEL_CHECK_PROB(spec.probability);
  MutexLock lock(mutex_);
  spec_ = spec;
  hits_ = 0;
  fires_ = 0;
  rng_ = spec.mode == TriggerMode::kProbability
             ? std::make_unique<Rng>(spec.seed)
             : nullptr;
  armed_.store(true, std::memory_order_relaxed);
}

void Failpoint::Disarm() {
  MutexLock lock(mutex_);
  armed_.store(false, std::memory_order_relaxed);
  spec_ = TriggerSpec{};
  rng_ = nullptr;
}

bool Failpoint::Evaluate() {
  MutexLock lock(mutex_);
  // Arming state may have changed between the fast-path load and here.
  if (!armed_.load(std::memory_order_relaxed)) return false;
  ++hits_;
  bool fire = false;
  switch (spec_.mode) {
    case TriggerMode::kDisarmed:
      break;
    case TriggerMode::kAlways:
      fire = true;
      break;
    case TriggerMode::kOneShot:
      fire = true;
      armed_.store(false, std::memory_order_relaxed);
      break;
    case TriggerMode::kEveryNth:
      fire = hits_ % spec_.every_nth == 0;
      break;
    case TriggerMode::kProbability:
      fire = rng_->Bernoulli(spec_.probability);
      break;
  }
  if (fire) {
    ++fires_;
    FRESHSEL_OBS_COUNT("fault.failpoints.injected", 1);
  }
  return fire;
}

Failpoint::State Failpoint::state() const {
  MutexLock lock(mutex_);
  return State{spec_, hits_, fires_};
}

std::uint64_t Failpoint::fires() const {
  MutexLock lock(mutex_);
  return fires_;
}

std::uint64_t Failpoint::hits() const {
  MutexLock lock(mutex_);
  return hits_;
}

FailpointRegistry& FailpointRegistry::Global() {
  static FailpointRegistry* instance = []() {
    auto* registry = new FailpointRegistry();
    const Status status = registry->ArmFromEnv();
    if (!status.ok()) {
      std::fprintf(stderr, "FRESHSEL_FAILPOINTS ignored: %s\n",
                   status.ToString().c_str());
    }
    return registry;
  }();
  return *instance;
}

Failpoint& FailpointRegistry::Get(std::string_view name) {
  MutexLock lock(mutex_);
  auto it = points_.find(name);
  if (it == points_.end()) {
    it = points_
             .emplace(std::string(name),
                      std::make_unique<Failpoint>(std::string(name)))
             .first;
  }
  return *it->second;
}

Failpoint* FailpointRegistry::Lookup(std::string_view name) {
  MutexLock lock(mutex_);
  auto it = points_.find(name);
  return it == points_.end() ? nullptr : it->second.get();
}

namespace {

Status ParseOneSpec(const std::string& clause, std::string* name,
                    TriggerSpec* spec) {
  const std::size_t eq = clause.find('=');
  if (eq == std::string::npos || eq == 0 || eq + 1 >= clause.size()) {
    return Status::InvalidArgument("failpoint clause must be name=mode: '" +
                                   clause + "'");
  }
  *name = clause.substr(0, eq);
  if (!IsValidFailpointName(*name)) {
    return Status::InvalidArgument(
        "failpoint name '" + *name +
        "' must follow subsystem.site ([a-z0-9_]+, two or more "
        "'.'-separated segments)");
  }
  const std::vector<std::string> parts = Split(clause.substr(eq + 1), ':');
  const std::string& mode = parts[0];
  auto parse_u64 = [](const std::string& text,
                      std::uint64_t* out) -> Status {
    const char* begin = text.data();
    const char* end = begin + text.size();
    auto [ptr, ec] = std::from_chars(begin, end, *out);
    if (ec != std::errc() || ptr != end || text.empty()) {
      return Status::InvalidArgument("malformed integer: '" + text + "'");
    }
    return Status::OK();
  };
  if (mode == "off") {
    if (parts.size() != 1) {
      return Status::InvalidArgument("mode 'off' takes no argument: '" +
                                     clause + "'");
    }
    *spec = TriggerSpec{};
    return Status::OK();
  }
  if (mode == "always" || mode == "once") {
    if (parts.size() != 1) {
      return Status::InvalidArgument("mode '" + mode +
                                     "' takes no argument: '" + clause + "'");
    }
    *spec = mode == "always" ? TriggerSpec::Always() : TriggerSpec::OneShot();
    return Status::OK();
  }
  if (mode == "nth") {
    if (parts.size() != 2) {
      return Status::InvalidArgument("mode 'nth' needs nth:N: '" + clause +
                                     "'");
    }
    std::uint64_t n = 0;
    FRESHSEL_RETURN_IF_ERROR(parse_u64(parts[1], &n));
    if (n < 1) {
      return Status::InvalidArgument("nth:N needs N >= 1: '" + clause + "'");
    }
    *spec = TriggerSpec::EveryNth(n);
    return Status::OK();
  }
  if (mode == "prob") {
    if (parts.size() != 2 && parts.size() != 3) {
      return Status::InvalidArgument("mode 'prob' needs prob:P[:SEED]: '" +
                                     clause + "'");
    }
    char* parse_end = nullptr;
    const double p = std::strtod(parts[1].c_str(), &parse_end);
    if (parse_end != parts[1].c_str() + parts[1].size() || parts[1].empty() ||
        !(p >= 0.0 && p <= 1.0)) {
      return Status::InvalidArgument(
          "prob:P needs a probability in [0, 1]: '" + clause + "'");
    }
    std::uint64_t seed = 0;
    if (parts.size() == 3) {
      FRESHSEL_RETURN_IF_ERROR(parse_u64(parts[2], &seed));
    }
    *spec = TriggerSpec::Probability(p, seed);
    return Status::OK();
  }
  return Status::InvalidArgument(
      "unknown failpoint mode '" + mode +
      "' (expected off|always|once|nth:N|prob:P[:SEED])");
}

}  // namespace

Status FailpointRegistry::ArmFromSpec(std::string_view spec) {
  // Validate every clause before arming anything: a bad spec must not
  // leave the registry half-armed.
  std::string normalized(spec);
  for (char& c : normalized) {
    if (c == ',') c = ';';
  }
  std::vector<std::pair<std::string, TriggerSpec>> parsed;
  for (const std::string& raw : Split(normalized, ';')) {
    std::string clause;
    for (char c : raw) {
      if (c != ' ' && c != '\t') clause.push_back(c);
    }
    if (clause.empty()) continue;
    std::string name;
    TriggerSpec trigger;
    FRESHSEL_RETURN_IF_ERROR(ParseOneSpec(clause, &name, &trigger));
    parsed.emplace_back(std::move(name), trigger);
  }
  for (const auto& [name, trigger] : parsed) {
    Get(name).Arm(trigger);
  }
  return Status::OK();
}

Status FailpointRegistry::ArmFromEnv() {
  const char* env = std::getenv("FRESHSEL_FAILPOINTS");
  if (env == nullptr || env[0] == '\0') return Status::OK();
  return ArmFromSpec(env);
}

void FailpointRegistry::DisarmAll() {
  MutexLock lock(mutex_);
  for (auto& [name, point] : points_) point->Disarm();
}

std::vector<FailpointRegistry::Entry> FailpointRegistry::Snapshot() const {
  MutexLock lock(mutex_);
  std::vector<Entry> entries;
  entries.reserve(points_.size());
  for (const auto& [name, point] : points_) {
    entries.push_back(Entry{name, point->state()});
  }
  return entries;  // std::map iteration is already name-sorted.
}

std::uint64_t FailpointRegistry::TotalFires() const {
  MutexLock lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& [name, point] : points_) total += point->fires();
  return total;
}

}  // namespace freshsel::fault
