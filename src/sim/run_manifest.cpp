#include "sim/run_manifest.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#include "common/crc32.hpp"
#include "common/logging.hpp"
#include "trace/trace_v3.hpp"

#ifndef VPSIM_GIT_DESCRIBE
#define VPSIM_GIT_DESCRIBE "unknown"
#endif

namespace vpsim
{

namespace
{

constexpr char manifestSchema[] = "vpsim-run-manifest 2";

std::string
jsonEscape(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (const char ch : text) {
        switch (ch) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(ch) < 0x20) {
                char buffer[8];
                std::snprintf(buffer, sizeof(buffer), "\\u%04x", ch);
                out += buffer;
            } else {
                out += ch;
            }
        }
    }
    return out;
}

std::string
hex32(std::uint32_t value)
{
    char buffer[16];
    std::snprintf(buffer, sizeof(buffer), "%08x", value);
    return buffer;
}

} // namespace

std::string
buildGitDescribe()
{
    return VPSIM_GIT_DESCRIBE;
}

void
writeRunManifest(const Options &options, const std::string &csv_path)
{
    // Checksum the CSV exactly as it sits on disk (the bench may have
    // appended to a file older runs started).
    std::ifstream csv(csv_path, std::ios::binary);
    fatalIf(!csv, "cannot read back CSV " + csv_path +
                      " for its manifest");
    std::vector<char> bytes{std::istreambuf_iterator<char>(csv),
                            std::istreambuf_iterator<char>()};
    fatalIf(csv.bad(), "error reading CSV " + csv_path);
    const std::uint32_t csv_crc =
        crc32(bytes.data(), bytes.size());

    const std::string fingerprint = options.fingerprint();
    const std::string invariants =
        options.getString("check-invariants");
    const std::string cross_check = options.getString("cross-check");
    const std::string job_timeout = options.getString("job-timeout");
    const std::uint32_t trace_format = traceFormatVersionV3;
    const std::string salvage_mode =
        options.getBool("salvage-blocks") ? "1" : "0";
    // The signed salvage tally is what makes block-level loss
    // auditable: a figure produced from a damaged trace carries the
    // damage in its provenance instead of passing as clean.
    const SalvageRegistry::Totals salvage = salvageRegistry().totals();

    // Canonical signing string: fixed field order, one key=value per
    // line. scripts/verify_manifest.py rebuilds this byte-for-byte
    // from the parsed JSON, so the two must never diverge.
    std::ostringstream signing;
    signing << "vpsim-manifest-signing-v2\n"
            << "schema=" << manifestSchema << '\n'
            << "gitDescribe=" << buildGitDescribe() << '\n'
            << "traceFormatVersion=" << trace_format << '\n'
            << "checkInvariants=" << invariants << '\n'
            << "crossCheck=" << cross_check << '\n'
            << "jobTimeout=" << job_timeout << '\n'
            << "salvageBlocks=" << salvage_mode << '\n'
            << "salvagedFiles=" << salvage.files << '\n'
            << "salvagedBlocks=" << salvage.blocksQuarantined << '\n'
            << "salvagedRecordsLost=" << salvage.recordsLost << '\n'
            << "fingerprint=" << fingerprint << '\n'
            << "csvFile=" << csv_path << '\n'
            << "csvBytes=" << bytes.size() << '\n'
            << "csvCrc32=" << hex32(csv_crc) << '\n';
    const std::string signed_body = signing.str();
    const std::uint32_t signature =
        crc32(signed_body.data(), signed_body.size());

    const std::string manifest_path = csv_path + ".manifest.json";
    std::ofstream out(manifest_path, std::ios::trunc);
    fatalIf(!out, "cannot write manifest " + manifest_path);
    out << "{\n"
        << "  \"schema\": \"" << jsonEscape(manifestSchema) << "\",\n"
        << "  \"gitDescribe\": \"" << jsonEscape(buildGitDescribe())
        << "\",\n"
        << "  \"traceFormatVersion\": " << trace_format << ",\n"
        << "  \"checkInvariants\": \"" << jsonEscape(invariants)
        << "\",\n"
        << "  \"crossCheck\": \"" << jsonEscape(cross_check) << "\",\n"
        << "  \"jobTimeout\": \"" << jsonEscape(job_timeout) << "\",\n"
        << "  \"salvageBlocks\": \"" << jsonEscape(salvage_mode)
        << "\",\n"
        << "  \"salvagedFiles\": " << salvage.files << ",\n"
        << "  \"salvagedBlocks\": " << salvage.blocksQuarantined
        << ",\n"
        << "  \"salvagedRecordsLost\": " << salvage.recordsLost
        << ",\n"
        << "  \"fingerprint\": \"" << jsonEscape(fingerprint) << "\",\n"
        << "  \"csvFile\": \"" << jsonEscape(csv_path) << "\",\n"
        << "  \"csvBytes\": " << bytes.size() << ",\n"
        << "  \"csvCrc32\": \"" << hex32(csv_crc) << "\",\n"
        << "  \"signature\": \"crc32:" << hex32(signature) << "\"\n"
        << "}\n";
    out.flush();
    fatalIf(!out, "error writing manifest " + manifest_path);
}

} // namespace vpsim
