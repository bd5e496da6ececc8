#include "churn_gen.h"

#include <algorithm>

#include "support/rng.h"
#include "support/units.h"

namespace perfbench {

namespace {

using mlsc::serve::EventKind;
using mlsc::serve::ServeEvent;

constexpr std::uint64_t kBootstrapSeed = 0x626f6f74ull;

class Generator {
 public:
  explicit Generator(const ChurnParams& params)
      : rng_(kBootstrapSeed), params_(params) {}

  /// Switches to the seed that draws the timed events.
  void reseed(std::uint64_t seed) { rng_ = mlsc::Rng(seed ^ 0x636875726eull); }

  ServeEvent make_resident(const std::string& app) {
    ServeEvent e = stamp(EventKind::kRegister);
    e.id = resident_id(app);
    e.workload = app;
    e.size_factor = params_.size_factor;
    e.clients = 2;
    return e;
  }

  /// A churning tenant of `app`: one of four size-factor steps (so a few
  /// tenants share a data key and can cluster together), 1-3 clients.
  ServeEvent make_register(const std::string& app) {
    ServeEvent e = stamp(EventKind::kRegister);
    e.id = "w" + std::to_string(next_id_++);
    e.workload = app;
    e.size_factor = params_.size_factor *
                    (1.0 + 1e-6 * static_cast<double>(1 + rng_.next_below(4)));
    e.clients = 1 + static_cast<std::uint32_t>(rng_.next_below(3));
    live_.push_back({e.id, app});
    return e;
  }

  /// Event `index` of the timed stream.  Kinds follow a fixed 20-event
  /// cycle (6 departures each followed by a registration of the same
  /// app, 5 scales, 3 faults), so every seed has the same event mix and
  /// the churning set keeps its size and app composition; the seed picks
  /// which tenants leave, client counts and fault targets.
  ServeEvent next(std::size_t index) {
    static constexpr char kCycle[] = "DRSDRSFDRSDRFDRSDRSF";
    switch (kCycle[index % (sizeof kCycle - 1)]) {
      case 'D': {
        ServeEvent e = stamp(EventKind::kDepart);
        const std::size_t pick = rng_.next_below(live_.size());
        e.id = live_[pick].id;
        departed_app_ = live_[pick].app;
        live_.erase(live_.begin() + static_cast<std::ptrdiff_t>(pick));
        return e;
      }
      case 'R':
        return make_register(departed_app_);
      case 'S': {
        ServeEvent e = stamp(EventKind::kScale);
        e.id = live_[rng_.next_below(live_.size())].id;
        e.clients = 1 + static_cast<std::uint32_t>(rng_.next_below(4));
        return e;
      }
      default:
        return make_fault();
    }
  }

  /// Fail-stops a client (at most three down at once) or recovers one.
  ServeEvent make_fault() {
    ServeEvent e = stamp(EventKind::kFault);
    const std::string at = std::to_string(now_ms_) + "ms";
    if (!failed_.empty() && (failed_.size() >= 3 || rng_.next_below(2) == 0)) {
      const std::size_t pick = rng_.next_below(failed_.size());
      e.fault_spec = "recover@" + at + ":l1." + std::to_string(failed_[pick]);
      failed_.erase(failed_.begin() + static_cast<std::ptrdiff_t>(pick));
    } else {
      std::size_t node = 0;
      do {
        node = rng_.next_below(params_.clients);
      } while (std::find(failed_.begin(), failed_.end(), node) !=
               failed_.end());
      e.fault_spec = "fail@" + at + ":l1." + std::to_string(node);
      failed_.push_back(node);
    }
    return e;
  }

 private:
  ServeEvent stamp(EventKind kind) {
    now_ms_ += 2;
    ServeEvent e;
    e.kind = kind;
    e.at = now_ms_ * mlsc::kMillisecond;
    return e;
  }

  mlsc::Rng rng_;
  ChurnParams params_;
  std::uint64_t now_ms_ = 0;
  std::size_t next_id_ = 0;
  struct Tenant {
    std::string id, app;
  };
  std::vector<Tenant> live_;  // churning tenants only
  std::string departed_app_;
  std::vector<std::size_t> failed_;
};

}  // namespace

const std::vector<std::string>& churn_apps() {
  static const std::vector<std::string> apps = {"hf", "astro", "sar",
                                                "wupwise"};
  return apps;
}

std::string resident_id(const std::string& app) { return "r-" + app; }

ChurnParams churn_params(bool quick) {
  ChurnParams params;
  if (quick) {
    params.bootstrap = 16;
    params.events = 40;
    params.max_chunks = 64;
  }
  return params;
}

ChurnStream generate_churn_stream(std::uint64_t seed,
                                  const ChurnParams& params) {
  Generator gen(params);
  ChurnStream stream;
  for (const auto& app : churn_apps()) {
    stream.bootstrap.push_back(gen.make_resident(app));
  }
  // Churning tenants: the apps in turn.
  const auto& apps = churn_apps();
  for (std::size_t i = 0; stream.bootstrap.size() < params.bootstrap; ++i) {
    stream.bootstrap.push_back(gen.make_register(apps[i % apps.size()]));
  }
  gen.reseed(seed);
  for (std::size_t i = 0; i < params.events; ++i) {
    stream.events.push_back(gen.next(i));
  }
  return stream;
}

}  // namespace perfbench
