#include "fleet/grid.hpp"

#include <algorithm>

#include "common/fnv1a.hpp"
#include "common/logging.hpp"
#include "predictor/factory.hpp"
#include "sim/experiment.hpp"
#include "workloads/workload.hpp"

namespace vpsim
{
namespace fleet
{

namespace
{

std::vector<std::uint64_t>
parseAxis(const Options &options, const std::string &name)
{
    std::vector<std::uint64_t> values;
    for (const std::string &item : options.getList(name)) {
        char *end = nullptr;
        const std::uint64_t value =
            std::strtoull(item.c_str(), &end, 0);
        fatalIf(end == item.c_str() || *end != '\0',
                "--" + name + ": bad value '" + item + "'");
        values.push_back(value);
    }
    fatalIf(values.empty(), "--" + name + " must not be empty");
    return values;
}

} // namespace

void
declareFleetOptions(Options &options,
                    const std::map<std::string, std::string> &defaults)
{
    const auto declare = [&](const std::string &name,
                             const std::string &fallback,
                             const std::string &help) {
        const auto it = defaults.find(name);
        options.declare(name,
                        it == defaults.end() ? fallback : it->second,
                        help);
    };

    declareStandardOptions(options, 20000);

    // Grid axes. Defaults sweep the paper's headline axes (predictor ×
    // fetch rate) at two table sizes; the soak bench overrides these to
    // reach >= 10^4 cells.
    declare("predictors", "stride,2-delta",
            "comma-separated predictor kinds forming one grid axis");
    declare("table-sizes", "0,1024",
            "comma-separated predictor table capacities "
            "(0 = infinite) forming one grid axis");
    declare("window-sizes", "40",
            "comma-separated instruction window sizes forming one "
            "grid axis");
    declare("fetch-rates", "4,8,16,32,40",
            "comma-separated fetch/issue rates forming one grid axis");
    declare("vp-penalties", "1",
            "comma-separated value-misprediction penalties forming "
            "one grid axis");

    // Fleet execution knobs (all excluded from the fingerprint).
    declare("fleet-workers", "4",
            "worker processes (isolated fault domains); 0 runs every "
            "cell in-process — the reference mode fleets must match "
            "byte for byte");
    declare("fleet-shard-cells", "64",
            "cells per shard the planner aims for (smaller shards "
            "lose less work per worker death)");
    declare("fleet-worker-timeout", "300",
            "seconds without a worker heartbeat before the supervisor "
            "declares it hung and kills it");
    declare("fleet-max-attempts", "3",
            "attempts per shard before it is bisected (multi-cell) or "
            "its cell quarantined as NaN (single-cell)");
    declare("fleet-retry-base-ms", "200",
            "base delay of the exponential retry backoff");
    declare("fleet-worker-mem-mb", "128",
            "estimated peak RSS per worker, used by --mem-budget to "
            "shrink the worker count");
    declare("poison-cell", "-1",
            "testing only: the worker evaluating this global cell "
            "index crashes (exercises bisection quarantine); the cell "
            "ends as NaN in every mode");

    // Internal plumbing the supervisor passes to its workers. Declared
    // like any option so parse/fingerprint machinery stays uniform.
    declare("fleet-worker", "0",
            "internal: run as a fleet worker over --fleet-cells");
    declare("fleet-cells", "",
            "internal: inclusive global cell range 'first-last' this "
            "worker evaluates");
    declare("fleet-heartbeat-fd", "-1",
            "internal: pipe fd the worker writes heartbeats to");
    declare("fleet-fault", "",
            "internal: fault the supervisor imposed on this worker "
            "(kill9/hang/enospc)");

    options.addValidator([](const Options &parsed) -> std::string {
        if (parsed.getInt("fleet-workers") < 0)
            return "--fleet-workers must be >= 0 (0 = in-process "
                   "reference mode)";
        if (parsed.getInt("fleet-shard-cells") <= 0)
            return "--fleet-shard-cells must be positive";
        if (parsed.getInt("fleet-max-attempts") <= 0)
            return "--fleet-max-attempts must be positive";
        if (parsed.getDouble("fleet-worker-timeout") <= 0.0)
            return "--fleet-worker-timeout SEC must be positive";
        if (parsed.getInt("fleet-retry-base-ms") <= 0)
            return "--fleet-retry-base-ms must be positive";
        if (parsed.getInt("fleet-worker-mem-mb") <= 0)
            return "--fleet-worker-mem-mb must be positive";
        return "";
    });
    options.addValidator([](const Options &parsed) -> std::string {
        if (parsed.getBool("fleet-worker") &&
            parsed.getString("fleet-cells").empty())
            return "--fleet-worker 1 requires --fleet-cells FIRST-LAST";
        return "";
    });
}

FleetGrid::FleetGrid(const Options &options)
{
    workloadNames = options.getList("benchmarks");
    if (workloadNames.empty())
        workloadNames = vpsim::workloadNames();
    validateBenchmarkNames(workloadNames);

    std::vector<PredictorKind> predictors;
    std::vector<std::string> predictor_names =
        options.getList("predictors");
    fatalIf(predictor_names.empty(),
            "--predictors must not be empty");
    for (const std::string &name : predictor_names)
        predictors.push_back(predictorKindFromString(name));

    const std::vector<std::uint64_t> tables =
        parseAxis(options, "table-sizes");
    const std::vector<std::uint64_t> windows =
        parseAxis(options, "window-sizes");
    const std::vector<std::uint64_t> rates =
        parseAxis(options, "fetch-rates");
    const std::vector<std::uint64_t> penalties =
        parseAxis(options, "vp-penalties");
    for (const std::uint64_t window : windows)
        fatalIf(window == 0, "--window-sizes values must be positive");
    for (const std::uint64_t rate : rates)
        fatalIf(rate == 0, "--fetch-rates values must be positive");

    // Column nesting (outer to inner): predictor, table, window,
    // fetch rate, penalty. The order is part of the grid's identity —
    // cell indices, the CSV layout, and the result store all depend
    // on it.
    for (std::size_t p = 0; p < predictors.size(); ++p) {
        for (const std::uint64_t table : tables) {
            for (const std::uint64_t window : windows) {
                for (const std::uint64_t rate : rates) {
                    for (const std::uint64_t penalty : penalties) {
                        Column column;
                        column.config.predictorKind = predictors[p];
                        column.config.tableCapacity =
                            static_cast<std::size_t>(table);
                        column.config.windowSize =
                            static_cast<unsigned>(window);
                        column.config.fetchRate =
                            static_cast<unsigned>(rate);
                        column.config.vpPenalty =
                            static_cast<unsigned>(penalty);
                        column.label =
                            predictor_names[p] + "/t" +
                            std::to_string(table) + "/w" +
                            std::to_string(window) + "/bw" +
                            std::to_string(rate) + "/p" +
                            std::to_string(penalty);
                        columns.push_back(column);
                    }
                }
            }
        }
    }
    fatalIf(columns.empty(), "fleet grid has no columns");

    fleetFingerprint = resultFingerprint(options);
    fingerprintHash = fnv1a(fleetFingerprint);
}

} // namespace fleet
} // namespace vpsim
