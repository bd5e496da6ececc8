// mlsc_perfbench: runs one benchmark workload and prints one JSON
// object with its metrics, checks and run metadata.
//
//   mlsc_perfbench --workload paper-map|fine-map|replay-mix|churn
//                  [--seed N] [--seconds S] [--trace 0|1] [--threads N]
//                  [--quick] [--work-dir DIR] [--replica N] [--git-sha SHA]
//   mlsc_perfbench --dump-stream [--seed N] [--quick]
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
// ones.  --work-dir and --replica name the trace session's scratch file
// (one per concurrent copy).  --dump-stream prints the churn workload's
// generated event stream (JSON lines) instead of running anything.
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>

#include "churn_gen.h"
#include "harness.h"
#include "serve/event.h"
#include "support/string_util.h"

namespace {

using namespace perfbench;

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "error: " << error << "\n"
            << "usage: mlsc_perfbench --workload NAME [--seed N] "
               "[--seconds S] [--trace 0|1] [--threads N] [--quick] "
               "[--work-dir DIR] [--replica N] [--git-sha SHA]\n"
               "       mlsc_perfbench --dump-stream [--seed N] [--quick]\n";
  std::exit(3);
}

std::string number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

void print_metrics(const Metrics& metrics) {
  std::cout << "{";
  bool first = true;
  for (const auto& [name, metric] : metrics.items()) {
    std::cout << (first ? "" : ", ") << mlsc::json_quote(name)
              << ": {\"value\": " << number(metric.value)
              << ", \"unit\": " << mlsc::json_quote(metric.unit) << "}";
    first = false;
  }
  std::cout << "}";
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  bool dump_stream = false;
  std::string git_sha = "unknown";
  std::string work_dir = ".";
  std::string replica = "0";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(arg + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        options.workload = value();
      } else if (arg == "--seed") {
        options.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value());
      } else if (arg == "--trace") {
        options.trace = std::stoi(value()) != 0;
      } else if (arg == "--threads") {
        options.threads = std::stoul(value());
      } else if (arg == "--quick") {
        options.quick = true;
      } else if (arg == "--work-dir") {
        work_dir = value();
      } else if (arg == "--replica") {
        replica = std::to_string(std::stoul(value()));
      } else if (arg == "--git-sha") {
        git_sha = value();
      } else if (arg == "--dump-stream") {
        dump_stream = true;
      } else {
        usage("unknown argument '" + arg + "'");
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }

  options.trace_file = work_dir + "/perfbench_trace." + replica + ".json";

  if (dump_stream) {
    const ChurnStream stream = generate_churn_stream(
        options.seed, churn_params(options.quick));
    std::cout << mlsc::serve::stream_header_json(options.seed, "perfbench")
              << "\n";
    for (const auto& event : stream.bootstrap) {
      std::cout << mlsc::serve::event_to_json(event) << "\n";
    }
    for (const auto& event : stream.events) {
      std::cout << mlsc::serve::event_to_json(event) << "\n";
    }
    return 0;
  }

  // Cap the engine's per-client virtual-time trace events so collecting
  // traced runs stays cheap; must precede the first trace session.
  setenv("MLSC_TRACE_CLIENT_EVENTS", "256", 1);

  RunResult result;
  try {
    if (options.workload == "paper-map") {
      result = run_paper_map(options);
    } else if (options.workload == "fine-map") {
      result = run_fine_map(options);
    } else if (options.workload == "replay-mix") {
      result = run_replay_mix(options);
    } else if (options.workload == "churn") {
      result = run_churn(options);
    } else {
      usage("unknown workload '" + options.workload + "'");
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }

  if (options.trace) complete_layer_metrics(result.metrics);

  std::cout << "{\"workload\": " << mlsc::json_quote(options.workload)
            << ", \"seed\": " << options.seed
            << ", \"trace\": " << (options.trace ? 1 : 0)
            << ", \"attempted\": " << result.checks.attempted()
            << ", \"failed\": " << result.checks.failed()
            << ", \"failures\": [";
  for (std::size_t i = 0; i < result.checks.messages().size(); ++i) {
    std::cout << (i ? ", " : "")
              << mlsc::json_quote(result.checks.messages()[i]);
  }
  std::cout << "], \"metrics\": ";
  print_metrics(result.metrics);
  std::cout << ", \"exact\": {";
  bool first = true;
  for (const auto& [name, value] : result.exact) {
    std::cout << (first ? "" : ", ") << mlsc::json_quote(name) << ": "
              << number(value);
    first = false;
  }
  std::cout << "}, \"meta\": {\"nproc\": "
            << std::thread::hardware_concurrency()
            << ", \"build_type\": " << mlsc::json_quote(PERFBENCH_BUILD_TYPE)
            << ", \"git_sha\": " << mlsc::json_quote(git_sha);
  for (const auto& [key, value] : result.notes) {
    std::cout << ", " << mlsc::json_quote(key) << ": "
              << mlsc::json_quote(value);
  }
  std::cout << "}}\n";
  return 0;
}
