#include "casm/program.hh"

#include "common/log.hh"

namespace dmt
{

Addr
Program::symbol(const std::string &name) const
{
    auto it = symbols.find(name);
    if (it == symbols.end())
        fatal("undefined symbol '%s'", name.c_str());
    return it->second;
}

bool
Program::hasSymbol(const std::string &name) const
{
    return symbols.count(name) != 0;
}

} // namespace dmt
