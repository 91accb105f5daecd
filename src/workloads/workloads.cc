#include "workloads/workloads.hh"

#include "common/log.hh"
#include "workloads/generator.hh"

namespace dmt
{

const std::vector<WorkloadInfo> &
workloadSuite()
{
    static const std::vector<WorkloadInfo> suite = {
        {"go", "099.go", "branchy position evaluation, deep heuristics",
         &buildGo},
        {"m88ksim", "124.m88ksim",
         "instruction-interpreter dispatch loop, call per step",
         &buildM88ksim},
        {"gcc", "126.gcc", "recursive IR tree construction and walking",
         &buildGcc},
        {"compress", "129.compress",
         "LZW-style hash-table compression loop", &buildCompress},
        {"li", "130.li", "recursive cons-cell interpreter with marking",
         &buildLi},
        {"ijpeg", "132.ijpeg", "nested-loop block transforms",
         &buildIjpeg},
        {"perl", "134.perl", "string hashing and opcode dispatch",
         &buildPerl},
        {"vortex", "147.vortex", "object-database lookups and updates",
         &buildVortex},
    };
    return suite;
}

Program
buildWorkload(const std::string &name)
{
    if (isGenSpec(name))
        return buildGenWorkload(name);
    for (const WorkloadInfo &w : workloadSuite()) {
        if (name == w.name)
            return w.build();
    }
    fatal("unknown workload '%s'", name.c_str());
}

bool
resolveWorkload(const std::string &name, std::string *canonical,
                std::string *err)
{
    if (isGenSpec(name)) {
        GenParams p;
        std::string gerr;
        if (!parseGenSpec(name, &p, &gerr)) {
            *err = "workload spec \"" + name + "\": " + gerr;
            return false;
        }
        *canonical = p.canonicalSpec();
        return true;
    }
    for (const WorkloadInfo &w : workloadSuite()) {
        if (name == w.name) {
            *canonical = name;
            return true;
        }
    }
    *err = "unknown workload \"" + name + "\"";
    return false;
}

std::string
canonicalWorkloadName(const std::string &name)
{
    std::string canonical, err;
    if (!resolveWorkload(name, &canonical, &err))
        fatal("%s", err.c_str());
    return canonical;
}

} // namespace dmt
