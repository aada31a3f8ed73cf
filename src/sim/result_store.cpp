#include "sim/result_store.hpp"

#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <system_error>

#include "common/crc32.hpp"
#include "common/fnv1a.hpp"
#include "common/io.hpp"
#include "common/logging.hpp"

namespace vpsim
{

namespace
{

/**
 * Layout version of the shard files, folded into every store hash.
 * Version 1 carried a line of trace-salvage totals after the cells.
 */
constexpr std::uint64_t shardFormatVersion = 2;
/** First line of every shard file; its number is the version above. */
constexpr char shardMagic[] = "vpsim-shard-result 2";

std::string
hex16(std::uint64_t value)
{
    char buffer[24];
    std::snprintf(buffer, sizeof(buffer), "%016" PRIx64, value);
    return buffer;
}

std::uint64_t
doubleBits(double value)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    return bits;
}

double
bitsToDouble(std::uint64_t bits)
{
    double value = 0.0;
    std::memcpy(&value, &bits, sizeof(value));
    return value;
}

/** Split @p text into lines; a missing final newline is an error. */
bool
splitLines(const std::string &text, std::vector<std::string> *lines)
{
    std::string current;
    for (const char ch : text) {
        if (ch == '\n') {
            lines->push_back(current);
            current.clear();
        } else {
            current.push_back(ch);
        }
    }
    return current.empty();
}

bool
parseHexField(const std::string &text, std::uint64_t *out)
{
    if (text.empty())
        return false;
    char *end = nullptr;
    *out = std::strtoull(text.c_str(), &end, 16);
    return end == text.c_str() + text.size();
}

bool
parseDecField(const std::string &text, std::uint64_t *out)
{
    if (text.empty())
        return false;
    char *end = nullptr;
    *out = std::strtoull(text.c_str(), &end, 10);
    return end == text.c_str() + text.size();
}

std::vector<std::string>
splitWords(const std::string &line)
{
    std::vector<std::string> words;
    std::string current;
    for (const char ch : line) {
        if (ch == ' ') {
            words.push_back(current);
            current.clear();
        } else {
            current.push_back(ch);
        }
    }
    words.push_back(current);
    return words;
}

} // namespace

ResultStore::ResultStore(std::string store_dir, std::uint64_t hash)
    : dir(std::move(store_dir)),
      storeHash(fnv1aFold(hash, shardFormatVersion))
{
    fatalIf(dir.empty(), "result store directory must not be empty");
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
        creationStatus = Status::error(
            StatusCode::kIo, "cannot create result store directory " +
                                 dir + ": " + ec.message());
        return;
    }
    const std::string probe =
        dir + "/.probe.tmp." + std::to_string(::getpid());
    io::File file;
    Status probed = file.openForWrite(probe);
    if (probed.isOk())
        probed = file.writeAll("vpsim", 5);
    file.close();
    std::filesystem::remove(probe, ec);
    if (!probed.isOk()) {
        creationStatus = Status::error(
            probed.code(), "result store directory " + dir +
                               " is not writable: " + probed.message());
    }
}

std::string
ResultStore::pathFor(std::uint32_t first_cell,
                     std::uint32_t last_cell) const
{
    return dir + "/shard-" + hex16(storeHash) + "-c" +
           std::to_string(first_cell) + "-c" +
           std::to_string(last_cell) + ".vpshard";
}

Status
ResultStore::store(std::uint32_t first_cell, std::uint32_t last_cell,
                   const ShardResult &result) const
{
    std::string body;
    body += shardMagic;
    body += '\n';
    body += "fleet " + hex16(storeHash) + '\n';
    body += "cells " + std::to_string(result.cells.size()) + '\n';
    for (const auto &[index, value] : result.cells) {
        body += std::to_string(index) + ' ' +
                hex16(doubleBits(value)) + '\n';
    }
    char footer[24];
    std::snprintf(footer, sizeof(footer), "crc32 %08x\n",
                  crc32(body.data(), body.size()));
    body += footer;

    const std::string path = pathFor(first_cell, last_cell);
    const std::string temp =
        path + ".tmp." + std::to_string(::getpid());
    io::File file;
    Status written = file.openForWrite(temp);
    if (written.isOk())
        written = file.writeAll(body.data(), body.size());
    if (written.isOk())
        written = file.sync();
    file.close();
    if (written.isOk())
        written = io::renameFile(temp, path);
    if (!written.isOk()) {
        (void)io::removeFile(temp);
        return Status::wrap(written.code(),
                            "cannot publish shard result " + path,
                            written);
    }
    return Status::ok();
}

Status
ResultStore::parseFile(const std::string &path, ShardResult *out) const
{
    std::error_code ec;
    const std::uintmax_t size = std::filesystem::file_size(path, ec);
    if (ec) {
        return Status::error(StatusCode::kIo, "cannot stat " + path +
                                                  ": " + ec.message());
    }
    std::string text(static_cast<std::size_t>(size), '\0');
    io::File file;
    Status read = file.openForRead(path);
    if (read.isOk() && !text.empty())
        read = file.readExact(text.data(), text.size());
    file.close();
    if (!read.isOk())
        return read;

    const auto corrupt = [&path](const std::string &why) {
        return Status::error(StatusCode::kCorrupt,
                             "corrupt shard result " + path + ": " +
                                 why);
    };

    std::vector<std::string> lines;
    if (!splitLines(text, &lines) || lines.size() < 4)
        return corrupt("truncated");

    // Footer first: nothing above it is trustworthy until the CRC
    // over those bytes checks out.
    const std::string &crc_line = lines.back();
    if (crc_line.rfind("crc32 ", 0) != 0)
        return corrupt("missing crc footer");
    std::uint64_t declared_crc = 0;
    if (!parseHexField(crc_line.substr(6), &declared_crc))
        return corrupt("bad crc footer");
    const std::size_t body_bytes = text.size() - crc_line.size() - 1;
    const std::uint32_t actual_crc = crc32(text.data(), body_bytes);
    if (actual_crc != static_cast<std::uint32_t>(declared_crc))
        return corrupt("crc mismatch");

    if (lines[0] != shardMagic)
        return corrupt("bad magic");
    std::uint64_t declared_hash = 0;
    if (lines[1].rfind("fleet ", 0) != 0 ||
        !parseHexField(lines[1].substr(6), &declared_hash))
        return corrupt("bad fleet line");
    if (declared_hash != storeHash) {
        return corrupt("store hash " + hex16(declared_hash) +
                       " does not match " + hex16(storeHash));
    }
    std::uint64_t cell_count = 0;
    if (lines[2].rfind("cells ", 0) != 0 ||
        !parseDecField(lines[2].substr(6), &cell_count))
        return corrupt("bad cell count line");
    if (lines.size() != cell_count + 4)
        return corrupt("line count does not match cell count");

    ShardResult result;
    result.cells.reserve(static_cast<std::size_t>(cell_count));
    std::uint64_t previous = 0;
    for (std::uint64_t i = 0; i < cell_count; ++i) {
        const std::vector<std::string> words =
            splitWords(lines[3 + i]);
        std::uint64_t index = 0;
        std::uint64_t bits = 0;
        if (words.size() != 2 || !parseDecField(words[0], &index) ||
            !parseHexField(words[1], &bits))
            return corrupt("bad cell line " + std::to_string(i));
        if (i > 0 && index <= previous)
            return corrupt("cell indices not strictly ascending");
        previous = index;
        result.cells.emplace_back(static_cast<std::uint32_t>(index),
                                  bitsToDouble(bits));
    }

    *out = std::move(result);
    return Status::ok();
}

Status
ResultStore::load(std::uint32_t first_cell, std::uint32_t last_cell,
                  ShardResult *out) const
{
    panicIf(out == nullptr, "ResultStore::load needs an output");
    const std::string path = pathFor(first_cell, last_cell);
    Status parsed = parseFile(path, out);
    if (!parsed.isOk())
        return parsed;
    for (const auto &[index, value] : out->cells) {
        if (index < first_cell || index > last_cell) {
            return Status::error(
                StatusCode::kCorrupt,
                "corrupt shard result " + path + ": cell " +
                    std::to_string(index) + " outside range [" +
                    std::to_string(first_cell) + ", " +
                    std::to_string(last_cell) + "]");
        }
    }
    return Status::ok();
}

ResultStore::ScanReport
ResultStore::mergeAll(std::map<std::uint32_t, double> *cells) const
{
    panicIf(cells == nullptr, "ResultStore::mergeAll needs an output");
    ScanReport report;
    const std::string prefix = "shard-" + hex16(storeHash) + "-";
    std::error_code ec;
    std::vector<std::filesystem::path> candidates;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir, ec)) {
        if (ec)
            break;
        if (!entry.is_regular_file(ec))
            continue;
        const std::string name = entry.path().filename().string();
        if (name.rfind(prefix, 0) != 0 ||
            name.find(".vpshard") == std::string::npos ||
            name.find(".tmp.") != std::string::npos)
            continue;
        candidates.push_back(entry.path());
    }
    // Deterministic merge order (directory iteration order is not).
    std::sort(candidates.begin(), candidates.end());

    for (const std::filesystem::path &path : candidates) {
        ShardResult result;
        const Status parsed = parseFile(path.string(), &result);
        if (!parsed.isOk()) {
            const std::filesystem::path quarantine =
                path.parent_path() /
                (".corrupt-" + path.filename().string());
            std::filesystem::rename(path, quarantine, ec);
            if (ec)
                std::filesystem::remove(path, ec);
            warn("quarantined corrupt shard result " + path.string() +
                 ": " + parsed.message());
            ++report.filesQuarantined;
            continue;
        }
        for (const auto &[index, value] : result.cells) {
            if (cells->emplace(index, value).second)
                ++report.cellsMerged;
        }
        ++report.filesMerged;
    }
    return report;
}

std::uint64_t
ResultStore::removeAll() const
{
    const std::string prefix = "shard-" + hex16(storeHash) + "-";
    std::error_code ec;
    std::uint64_t removed = 0;
    std::vector<std::filesystem::path> victims;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir, ec)) {
        if (ec)
            break;
        if (!entry.is_regular_file(ec))
            continue;
        const std::string name = entry.path().filename().string();
        if (name.rfind(prefix, 0) != 0)
            continue;
        victims.push_back(entry.path());
    }
    for (const std::filesystem::path &path : victims) {
        if (std::filesystem::remove(path, ec) && !ec)
            ++removed;
        ec.clear();
    }
    return removed;
}

} // namespace vpsim
