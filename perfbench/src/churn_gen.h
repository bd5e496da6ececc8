// Seeded churn-stream generator for the churn workload: a bootstrap of
// registrations (set-up) followed by a timed stream of register,
// depart, scale and fault events.  The same seed and parameters give a
// byte-identical stream (serve::event_to_json lines).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "serve/event.h"

namespace perfbench {

struct ChurnParams {
  std::size_t bootstrap = 32;       // registrations before the timed stream
  std::size_t events = 200;         // timed events
  std::uint32_t max_chunks = 256;   // iteration-chunk cap per instance
  double size_factor = 0.0625;      // workload data scale
  std::size_t clients = 16;         // service topology: clients,
  std::size_t io_nodes = 8;         //   I/O nodes
  std::size_t storage_nodes = 4;    //   and storage nodes
};

/// The full-size stream, or a small one for the benchmark's own tests.
ChurnParams churn_params(bool quick);

/// Workloads the stream registers.
const std::vector<std::string>& churn_apps();

/// The bootstrap starts with one resident tenant of each app
/// ("r-<app>", 2 clients) that the churn never departs or scales: a
/// fixed set whose placement the simulator replays.
std::string resident_id(const std::string& app);

/// The bootstrap is the same for every seed (drawn from a fixed seed);
/// `seed` draws the timed events.
struct ChurnStream {
  std::vector<mlsc::serve::ServeEvent> bootstrap;
  std::vector<mlsc::serve::ServeEvent> events;
};

ChurnStream generate_churn_stream(std::uint64_t seed,
                                  const ChurnParams& params);

}  // namespace perfbench
