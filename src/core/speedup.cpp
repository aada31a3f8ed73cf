#include "core/speedup.hpp"

namespace vpsim
{

double
arithmeticMean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double sum = 0.0;
    for (const double value : values)
        sum += value;
    return sum / static_cast<double>(values.size());
}

double
vpSpeedup(Cycle base_cycles, Cycle vp_cycles)
{
    if (vp_cycles == 0)
        return 1.0;
    return static_cast<double>(base_cycles) /
           static_cast<double>(vp_cycles);
}

} // namespace vpsim
