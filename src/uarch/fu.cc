#include "uarch/fu.hh"

namespace dmt
{

FuPool::FuPool(bool unlimited_, const FuParams &params_, int lat_div_)
    : unlimited(unlimited_), params(params_), lat_div(lat_div_)
{
}

} // namespace dmt
