/**
 * @file
 * The host-speed calibration kernel, in a file of its own so nothing
 * the simulator's build does can change its code: a small switch-
 * dispatched interpreter over a fixed random program, branchy and
 * L1-resident like the simulator's hot loops.  On the 4-vCPU VM this
 * benchmark was built on, a detail_suite pass drifted over 1.5x with
 * the host's other load while the pass time divided by this kernel's
 * time moved about a third as much (interquartile range of 30 s
 * window medians 14% raw, 5% calibrated).
 */

#include <cstdint>
#include <vector>

#include "harness.hh"

namespace dmtbench
{

namespace
{

volatile std::uint64_t g_sink;

const std::vector<std::uint8_t> &
kernelProgram()
{
    static const std::vector<std::uint8_t> ops = [] {
        std::vector<std::uint8_t> v(4096);
        std::uint64_t x = 7;
        for (std::uint8_t &op : v) {
            x = x * 6364136223846793005ull + 1;
            op = static_cast<std::uint8_t>((x >> 60) & 7);
        }
        return v;
    }();
    return ops;
}

} // namespace

double
calibrationKernelS()
{
    const std::vector<std::uint8_t> &ops = kernelProgram();
    std::uint64_t a = 1, b = 2, c = 3;
    size_t pc = 0;
    const double t0 = nowS();
    for (int i = 0; i < 200000; ++i) {
        switch (ops[pc]) {
          case 0: a += b; break;
          case 1: b ^= a >> 3; break;
          case 2: c = c * 5 + a; break;
          case 3: if (a & 1) pc = (pc + 7) & 4095; break;
          case 4: a = (a << 1) | (c & 1); break;
          case 5: b += c; break;
          case 6: if (b & 2) c ^= b; break;
          default: a ^= c; break;
        }
        pc = (pc + 1) & 4095;
    }
    const double t = nowS() - t0;
    g_sink = a + b + c;
    return t;
}

} // namespace dmtbench
