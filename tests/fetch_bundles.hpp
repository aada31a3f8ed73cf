/**
 * @file
 * Test helper: gather fetch bundles into one list of records, each
 * tagged with its front-end fate, so fetch tests can assert per
 * instruction.
 */

#ifndef VPSIM_TESTS_FETCH_BUNDLES_HPP
#define VPSIM_TESTS_FETCH_BUNDLES_HPP

#include <cstddef>
#include <vector>

#include "fetch/fetch_engine.hpp"

namespace vpsim
{

/** One fetched record plus its front-end fate. */
struct FetchedRecord
{
    TraceRecord record;
    /** The branch predictor got this control instruction wrong. */
    bool mispredicted = false;
    /** Fetched down the mispredicted path. */
    bool wrongPath = false;
    /** Trace position of the record (correct path only). */
    SeqNum position = invalidSeqNum;
};

/**
 * Fetch the bundle for cycle @p now and append its records to @p out.
 * @return The bundle's size.
 */
inline std::size_t
fetchInto(TraceFetchBase &engine, Cycle now, unsigned width,
          std::vector<FetchedRecord> &out)
{
    const FetchBundle bundle = engine.fetch(now, width);
    for (std::size_t i = 0; i < bundle.records.size(); ++i)
        out.push_back({bundle.records[i], false, bundle.wrongPath,
                       bundle.wrongPath ? invalidSeqNum : bundle.first + i});
    if (bundle.endsInMispredict)
        out.back().mispredicted = true;
    return bundle.records.size();
}

} // namespace vpsim

#endif // VPSIM_TESTS_FETCH_BUNDLES_HPP
