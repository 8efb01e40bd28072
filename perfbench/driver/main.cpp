// perfbench_driver — runs one benchmark workload against the paintplace
// library and prints a raw JSON report (samples, tallies, checks, per-layer
// table) as its last stdout line. perfbench/run.py builds this, derives the
// metrics and applies the statistics; see perfbench/README.md.
//
//   perfbench_driver --workload interactive --seed 1 --seconds 40 --trace 0
//                    [--setups 3] [--rates 300,600] [--shares 0.5,0.5]
//                    [--cycles 3] [--hot-fraction 0.33]
//                    [--hot-set 12] [--heatmap-every 32] [--tolerance 0]
//                    [--spans out.json]
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <sstream>
#include <string>

#include "bench.h"

using namespace perfbench;

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr, "perfbench_driver: %s\n", why.c_str());
  std::exit(2);
}

std::vector<double> parse_list(const std::string& s) {
  std::vector<double> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) out.push_back(std::stod(item));
  return out;
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string val = argv[++i];
    if (key == "--workload") opt.workload = val;
    else if (key == "--seed") opt.seed = std::stoull(val);
    else if (key == "--seconds") opt.seconds = std::stod(val);
    else if (key == "--trace") opt.trace = val == "1";
    else if (key == "--setups") opt.setups = std::stoi(val);
    else if (key == "--rates") opt.rates = parse_list(val);
    else if (key == "--shares") opt.shares = parse_list(val);
    else if (key == "--cycles") opt.cycles = std::stoi(val);
    else if (key == "--hot-fraction") opt.hot_fraction = std::stod(val);
    else if (key == "--hot-set") opt.hot_set = std::stoll(val);
    else if (key == "--heatmap-every") opt.heatmap_every = std::stod(val);
    else if (key == "--tolerance") opt.tolerance = std::stod(val);
    else if (key == "--spans") opt.spans_path = val;
    else usage("unknown option " + key);
  }
  if (opt.seconds <= 0 || opt.setups < 1 || opt.cycles < 1 || opt.hot_set < 1 ||
      opt.heatmap_every < 1) {
    usage("--seconds, --setups, --cycles, --hot-set and --heatmap-every must be positive");
  }
  if (opt.workload == "swarm" && (opt.rates.empty() || opt.rates.size() != opt.shares.size())) {
    usage("swarm needs --rates and as many --shares");
  }
  for (std::size_t k = 0; k < opt.rates.size(); ++k) {
    if (!(opt.rates[k] > 0) || !(opt.shares[k] > 0)) usage("rates and shares must be positive");
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  RunReport rep;
  try {
    if (opt.workload == "interactive") rep = run_interactive(opt);
    else if (opt.workload == "swarm") rep = run_swarm(opt);
    else if (opt.workload == "train") rep = run_train(opt);
    else if (opt.workload == "label") rep = run_label(opt);
    else usage("unknown workload " + opt.workload);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s failed: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }
  if (opt.trace && !opt.spans_path.empty()) Spans::instance().write(opt.spans_path);

  Json out;
  out.str("workload", opt.workload)
      .integer("seed", static_cast<std::int64_t>(opt.seed))
      .boolean("traced", opt.trace)
      .nums("setup_s", rep.setup_s)
      .num("peak_rss_mb", peak_rss_mb())
      .integer("attempted", static_cast<std::int64_t>(rep.attempted))
      .integer("failed", static_cast<std::int64_t>(rep.failed))
      .boolean("checks_ok", rep.checks.all_ok())
      .objs("checks", rep.checks.to_json())
      .obj("layers", layers_json(rep.layers))
      .obj("raw", rep.raw);
  std::printf("%s\n", out.render().c_str());
  return 0;
}
