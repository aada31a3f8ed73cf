/**
 * @file
 * Signed run manifests: provenance sidecars for emitted CSV data.
 *
 * Every bench that writes `--csv FILE` also writes `FILE.manifest.json`
 * describing exactly how the data was produced: the full experiment
 * fingerprint (every option, defaults applied), the source revision the
 * binary was built from, the self-check configuration
 * (--check-invariants / --cross-check / --job-timeout), and a CRC-32
 * of the CSV's bytes at write time. The manifest body is itself signed
 * with a CRC-32 over a canonical key=value rendering, so any later edit
 * to the manifest or the CSV is detectable — tamper-*evidence* for
 * honest mistakes (truncated copies, stale files mixed into a figure),
 * not cryptographic protection.
 *
 * `scripts/verify_manifest.py` re-derives both checksums and fails on
 * any mismatch; docs/VALIDATION.md documents the schema.
 */

#ifndef VPSIM_SIM_RUN_MANIFEST_HPP
#define VPSIM_SIM_RUN_MANIFEST_HPP

#include <string>

#include "common/options.hpp"

namespace vpsim
{

/**
 * Write `<csv_path>.manifest.json` describing @p csv_path as it exists
 * on disk right now. Called by maybeWriteCsv() after each append, so
 * the manifest always matches the CSV's latest state; a bench that
 * appends several figures leaves one manifest covering the final file.
 * Failure to write the manifest is fatal: a run whose provenance
 * cannot be recorded should not look like it succeeded.
 */
void writeRunManifest(const Options &options,
                      const std::string &csv_path);

/** The revision the binary was built from ("unknown" outside git). */
std::string buildGitDescribe();

} // namespace vpsim

#endif // VPSIM_SIM_RUN_MANIFEST_HPP
