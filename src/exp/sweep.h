// Parallel scenario sweep runner.
//
// Every figure in the paper is a grid of independent simulations (loads x
// protocols). Each scenario owns its own Simulator, fabric, and RNG, so the
// sweep is embarrassingly parallel: SweepRunner fans the configs out over a
// fixed pool of worker threads and returns results in submission order,
// making the output bit-identical to a sequential loop regardless of thread
// count or completion order. sweep_to_json() turns a labelled sweep into a
// machine-readable BENCH_*.json document alongside the stdout tables.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "workload/scenario.h"

namespace pase::exp {

// Worker-thread count resolution, first match wins:
//   1. `requested` if nonzero (e.g. a --threads=N flag);
//   2. the PASE_THREADS environment variable if set and positive;
//   3. std::thread::hardware_concurrency() (at least 1).
unsigned resolve_threads(unsigned requested = 0);

class SweepRunner {
 public:
  // threads == 0 defers to resolve_threads().
  explicit SweepRunner(unsigned threads = 0);

  unsigned threads() const { return threads_; }

  // Runs every config (each in its own Simulator) and returns the results in
  // submission order. Never runs more workers than scenarios. If a scenario
  // throws, the first exception (by submission order) is rethrown after all
  // workers finish.
  std::vector<workload::ScenarioResult> run(
      const std::vector<workload::ScenarioConfig>& configs) const;

 private:
  unsigned threads_;
};

// One labelled cell of a sweep grid, e.g. {"PASE load=0.7", cfg}.
struct SweepCase {
  std::string label;
  workload::ScenarioConfig config;
};

// Renders one scenario record: the JSON object sweep_to_json writes for each
// cell. `counts` (printed as integers) and then `measures` (printed shortest
// round-trip) follow the record's own fields, in order; the scale bench adds
// grid coordinates and host measurements there.
std::string scenario_record(
    const SweepCase& c, const workload::ScenarioResult& r,
    const std::vector<std::pair<std::string, long long>>& counts = {},
    const std::vector<std::pair<std::string, double>>& measures = {});

// Wraps rendered records in the sweep document:
// {"name": ..., "scenarios": [...]}.
std::string sweep_document(const std::string& name,
                           const std::vector<std::string>& records);

// Renders a completed sweep as a JSON document (see EXPERIMENTS.md for the
// schema). `results` must be positionally parallel to `cases`.
std::string sweep_to_json(
    const std::string& name, const std::vector<SweepCase>& cases,
    const std::vector<workload::ScenarioResult>& results);

// Writes sweep_to_json() to `path`. Returns false on I/O failure.
bool write_sweep_json(const std::string& path, const std::string& name,
                      const std::vector<SweepCase>& cases,
                      const std::vector<workload::ScenarioResult>& results);

}  // namespace pase::exp
