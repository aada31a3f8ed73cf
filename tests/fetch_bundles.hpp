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
    for (const TraceRecord &record : bundle.records)
        out.push_back({record, false, bundle.wrongPath});
    if (bundle.endsInMispredict)
        out.back().mispredicted = true;
    return bundle.records.size();
}

} // namespace vpsim

#endif // VPSIM_TESTS_FETCH_BUNDLES_HPP
