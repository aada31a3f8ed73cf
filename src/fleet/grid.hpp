/**
 * @file
 * The fleet's experiment grid: the full cross-product the paper's
 * figures sample slices of.
 *
 * A FleetGrid is (workload × predictor × table size × window × fetch
 * rate × misprediction penalty): one row per workload, one column per
 * machine configuration, cells indexed row-major by a single global
 * cell index. Every other fleet component speaks cell indices — the
 * planner shards them, workers evaluate them, the result store keys
 * them — so the grid is the one place that knows what a cell *means*
 * (an ideal-machine VP speedup at that configuration, stored as
 * speedup − 1.0, the same convention the ablation benches use).
 *
 * The grid also owns the fleet's identity: fleetHash() hashes the
 * result-defining option fingerprint (resultFingerprint(): axes,
 * workloads, trace length, seed — not execution knobs like worker
 * count or retry limits), and every shard result file carries it, so a
 * resumed fleet can never merge cells computed under a different
 * experiment definition, while a 1-worker and a 16-worker fleet of the
 * same experiment share one result store namespace.
 */

#ifndef VPSIM_FLEET_GRID_HPP
#define VPSIM_FLEET_GRID_HPP

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/options.hpp"
#include "core/ideal_machine.hpp"

namespace vpsim
{
namespace fleet
{

/**
 * Declare every option a fleet binary understands: the standard
 * experiment options (declareStandardOptions, including --result-store
 * and --resume), the grid axes, and the fleet execution knobs.
 * @p defaults overrides per-option default values (bench/fleet_soak
 * ships soak-sized axes this way).
 */
void declareFleetOptions(
    Options &options,
    const std::map<std::string, std::string> &defaults = {});

/** The dense experiment grid derived from parsed fleet options. */
class FleetGrid
{
  public:
    explicit FleetGrid(const Options &options);

    std::size_t rows() const { return workloadNames.size(); }
    std::size_t cols() const { return columns.size(); }
    std::uint32_t cells() const
    {
        return static_cast<std::uint32_t>(rows() * cols());
    }

    /** Workload (row) names, in reporting order. */
    const std::vector<std::string> &workloads() const
    {
        return workloadNames;
    }

    /** Human-readable column label, e.g. "stride/t0/w40/bw8/p1". */
    const std::string &columnLabel(std::size_t col) const
    {
        return columns[col].label;
    }

    /** Machine configuration of column @p col. */
    const IdealMachineConfig &columnConfig(std::size_t col) const
    {
        return columns[col].config;
    }

    std::size_t rowOf(std::uint32_t cell) const
    {
        return cell / cols();
    }
    std::size_t colOf(std::uint32_t cell) const
    {
        return cell % cols();
    }

    /** Result-defining fingerprint (axes + workloads + trace knobs). */
    const std::string &fingerprint() const { return fleetFingerprint; }

    /** FNV-1a of fingerprint(): the result store / manifest identity. */
    std::uint64_t fleetHash() const { return fingerprintHash; }

  private:
    struct Column
    {
        std::string label;
        IdealMachineConfig config;
    };

    std::vector<std::string> workloadNames;
    std::vector<Column> columns;
    std::string fleetFingerprint;
    std::uint64_t fingerprintHash = 0;
};

} // namespace fleet
} // namespace vpsim

#endif // VPSIM_FLEET_GRID_HPP
