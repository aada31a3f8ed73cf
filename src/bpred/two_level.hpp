/**
 * @file
 * 2-level adaptive branch predictor in a PAp configuration with an
 * integrated BTB, as configured in the paper's Section 5: first level of
 * 2K entries, 2-way set associative, a 4-bit history register per branch,
 * and a per-address pattern table of 2-bit saturating counters (Yeh &
 * Patt [27]). The BTB is allowed to deliver multiple predictions per
 * cycle ([18]), which the fetch engines exploit.
 */

#ifndef VPSIM_BPRED_TWO_LEVEL_HPP
#define VPSIM_BPRED_TWO_LEVEL_HPP

#include <array>
#include <vector>

#include "bpred/branch_predictor.hpp"
#include "common/sat_counter.hpp"

namespace vpsim
{

/** Configuration of the 2-level PAp BTB. */
struct TwoLevelConfig
{
    /** Total first-level entries (paper: 2K). */
    std::size_t entries = 2048;
    /** Set associativity (paper: 2-way). */
    std::size_t ways = 2;
    /** Per-branch history register width (paper: 4 bits). */
    unsigned historyBits = 4;
    /** Pattern-table counter width (2-bit counters). */
    unsigned counterBits = 2;
    /**
     * Return-address-stack depth (0 disables). Calls (jal with the link
     * register) push; returns (jalr through the link register) pop.
     * Standard front-end equipment by 1998 and necessary for the BTB to
     * reach the paper's ~86% average accuracy on call-heavy code.
     */
    std::size_t rasEntries = 16;
};

/** 2-level PAp predictor with an embedded BTB. */
class TwoLevelPApPredictor : public BranchPredictor
{
  public:
    explicit TwoLevelPApPredictor(const TwoLevelConfig &config = {});

    BranchPrediction predict(const TraceRecord &record) override;
    void update(const TraceRecord &record,
                const BranchPrediction &prediction) override;
    std::string name() const override { return "2-level-PAp"; }
    void reset() override;

    /** @name Statistics */
    /// @{
    std::uint64_t predictions() const { return numPredictions; }
    std::uint64_t correctPredictions() const { return numCorrect; }
    std::uint64_t btbMisses() const { return numBtbMisses; }
    /** Overall control-flow prediction accuracy. */
    double accuracy() const;
    /// @}

  private:
    struct Entry
    {
        bool valid = false;
        Addr tag = 0;
        Addr target = 0;
        /** Branch history register (low historyBits bits). */
        unsigned history = 0;
        /** Per-address pattern table, one counter per history pattern. */
        std::vector<SatCounter> pattern;
        /** LRU stamp. */
        std::uint64_t lastUse = 0;
    };

    Entry *find(Addr pc);
    Entry &allocate(Addr pc);
    std::size_t setIndex(Addr pc) const;

    static bool isCall(const TraceRecord &record);
    static bool isReturn(const TraceRecord &record);

    TwoLevelConfig cfg;
    std::size_t numSets;
    std::vector<Entry> entries; // numSets x ways
    std::uint64_t useClock = 0;
    /** Return address stack (circular, silently wraps). */
    std::vector<Addr> ras;
    std::size_t rasTop = 0;

    std::uint64_t numPredictions = 0;
    std::uint64_t numCorrect = 0;
    std::uint64_t numBtbMisses = 0;
};

} // namespace vpsim

#endif // VPSIM_BPRED_TWO_LEVEL_HPP
