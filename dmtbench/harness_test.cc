/**
 * @file
 * The benchmark's own tests: the statistics its metrics are built
 * from, failure accounting, the seeded request stream, spans, the
 * hermetic-environment check and the result line.  Run with
 * `ctest --test-dir <build dir>` or the dmtbench_test binary.
 */

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hh"
#include "harness.hh"

using namespace dmtbench;

namespace
{

int g_failures = 0;

#define CHECK(cond)                                                         \
    do {                                                                    \
        if (!(cond)) {                                                      \
            std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,     \
                         __LINE__, #cond);                                  \
            ++g_failures;                                                   \
        }                                                                   \
    } while (0)

bool
near(double a, double b)
{
    return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
}

std::vector<double>
oneTo(size_t n)
{
    std::vector<double> v;
    for (size_t i = n; i >= 1; --i) // descending: helpers must sort
        v.push_back(static_cast<double>(i));
    return v;
}

void
testSupportedTail()
{
    // Fewer than ten samples: no percentile has ten beyond it.
    Tail t = supportedTail(oneTo(9));
    CHECK(t.pct == 0.0 && t.n == 9);
    // 20 samples: p50 leaves 10 beyond, p75 only 5.
    t = supportedTail(oneTo(20));
    CHECK(t.pct == 50.0 && t.value == 10.0 && t.n == 20);
    // 100 samples: p90 leaves exactly 10 beyond, p95 only 5.
    t = supportedTail(oneTo(100));
    CHECK(t.pct == 90.0 && t.value == 90.0 && t.n == 100);
    t = supportedTail(oneTo(99));
    CHECK(t.pct == 75.0 && t.n == 99);
    t = supportedTail(oneTo(1000));
    CHECK(t.pct == 99.0 && t.value == 990.0);
    t = supportedTail(oneTo(10000));
    CHECK(t.pct == 99.9 && t.value == 9990.0);
}

void
testMedianAggregation()
{
    CHECK(median({}) == 0.0);
    CHECK(median({3.0, 1.0, 2.0}) == 2.0);
    CHECK(median({4.0, 1.0, 3.0, 2.0}) == 2.5);
    CHECK(percentile({5.0, 1.0, 3.0, 2.0, 4.0}, 50.0) == 3.0);

    OpTimes t;
    CHECK(t.sumOfMedians() == 0.0 && t.minReps() == 0);
    for (double s : {1.0, 5.0, 3.0})
        t.add("go/dmt6", s);
    for (double s : {30.0, 10.0})
        t.add("go/base", s);
    CHECK(t.median("go/dmt6") == 3.0);
    CHECK(t.median("go/base") == 20.0);
    CHECK(t.median("li/base") == 0.0);
    // One pass = the sum of per-kind medians, never a median across
    // kinds (which would be 5 here).
    CHECK(t.sumOfMedians() == 23.0);
    CHECK(t.minReps() == 2);
}

void
testCpiErr()
{
    // |1.1-1|/1 = 10%, |0.9-1|/1 = 10%, |2-2.5|/2.5 = 20%: mean 13.33%.
    CHECK(near(cpiErrPct({1.1, 0.9, 2.0}, {1.0, 1.0, 2.5}), 40.0 / 3.0));
    // The committed phase errors of compress, perl and ijpeg average
    // to the figure phase_whole reports.
    CHECK(near(cpiErrPct({0.727216596445, 0.527383184967, 0.27239723709},
                         {0.63613041951, 0.476327559689, 0.254293334197}),
               (14.3187896918 + 10.718595689 + 7.11929903699) / 3.0));
    CHECK(std::isnan(cpiErrPct({}, {})));
    CHECK(std::isnan(cpiErrPct({1.0}, {1.0, 2.0})));
}

void
testInjectedMismatch()
{
    Tally t;
    t.attempt();
    CHECK(t.expectSame("go/dmt6", "{\"cycles\":100}", "{\"cycles\":100}"));
    t.attempt();
    CHECK(!t.expectSame("go/dmt6", "{\"cycles\":100}", "{\"cycles\":101}"));
    CHECK(t.attempted() == 2 && t.failed() == 1);

    // A failed operation makes the whole run incorrect.
    Report rep;
    rep.tally = t;
    for (const MetricDef &d : endToEndMetrics())
        rep.set(d.name, 1.5);
    bool correct = true;
    resultLine(rep, endToEndMetrics(), false, &correct);
    CHECK(!correct);
}

void
testRequestStream()
{
    const auto a = requestStream(7, 40, 5);
    const auto b = requestStream(7, 40, 5);
    const auto c = requestStream(8, 40, 5);
    CHECK(a == b);
    CHECK(a != c);
    CHECK(a.size() == 200);
    std::vector<int> seen(40, 0);
    for (size_t j : a)
        ++seen[j];
    for (int n : seen)
        CHECK(n == 5);
}

void
testSpans()
{
    Spans sp;
    sp.setPass(0);
    sp.beginOp();
    {
        Spans::Scope off(sp, "dmt.DmtEngine.run");
    }
    CHECK(sp.spans().empty());

    sp.setRecording(true);
    for (int pass = 0; pass < 3; ++pass) {
        sp.setPass(pass);
        sp.beginOp();
        Spans::Scope root(sp, "op");
        {
            Spans::Scope a(sp, "layer.a");
            Spans::Scope b(sp, "layer.b");
        }
        Spans::Scope c(sp, "layer.a");
    }
    CHECK(sp.spans().size() == 12);
    CHECK(sp.spans()[1].parent == 0 && sp.spans()[2].parent == 1);
    CHECK(sp.spans()[3].parent == 0 && sp.spans()[0].parent == -1);
    CHECK(sp.spans()[4].op != sp.spans()[0].op);
    // Self times add up to each operation's root span.
    CHECK(sp.worstSelfGap() < 1e-9);
    CHECK(sp.medianPassSelf("layer.b") > 0.0);
    CHECK(sp.probeSelf("layer.b") == 0.0);

    Spans other;
    other.setRecording(true);
    other.beginOp();
    {
        Spans::Scope r(other, "op");
        Spans::Scope x(other, "layer.a");
    }
    sp.absorb(other);
    CHECK(sp.spans().size() == 14);
    CHECK(sp.spans()[13].parent == 12);
    CHECK(sp.spans()[12].op > sp.spans()[8].op);
    CHECK(sp.worstSelfGap() < 1e-9);
}

void
testEnvironmentAndOptions()
{
    char a[] = "PATH=/usr/bin", b[] = "DMT_FAULT=all", c[] = "HOME=/";
    char *with[] = {a, b, c, nullptr};
    char *without[] = {a, c, nullptr};
    CHECK(firstDmtVariable(with) == "DMT_FAULT");
    CHECK(firstDmtVariable(without).empty());

    Options o;
    std::string err;
    const char *good[] = {"dmtbench", "--workload", "serve_grid", "--seed",
                          "12",       "--seconds",  "10",         "--trace",
                          "1"};
    CHECK(parseOptions(9, const_cast<char **>(good), &o, &err));
    CHECK(o.workload == "serve_grid" && o.seed == 12 && o.trace);
    const char *bad[] = {"dmtbench", "--workload", "x",  "--seed",
                         "-3",       "--seconds",  "10", "--trace",
                         "0"};
    CHECK(!parseOptions(9, const_cast<char **>(bad), &o, &err));
    const char *missing[] = {"dmtbench", "--workload", "x"};
    CHECK(!parseOptions(3, const_cast<char **>(missing), &o, &err));
}

void
testResultLine()
{
    Report rep;
    rep.tally.attempt();
    rep.set("setup_s", 0.25);
    bool correct = true;
    // An end-to-end metric that was never measured is an error...
    resultLine(rep, endToEndMetrics(), false, &correct);
    CHECK(!correct);
    // ...while an unused layer reads 0.
    const std::string line = resultLine(rep, perLayerMetrics(), true,
                                        &correct);
    CHECK(correct);
    CHECK(line.rfind("{\"correct\": true, \"attempted\": 1, \"failed\": 0, "
                     "\"metrics\": {\"workloads.build_ms\": {\"value\": 0, "
                     "\"unit\": \"ms\"}",
                     0)
          == 0);
    rep.set("setup_s", NAN);
    for (const MetricDef &d : endToEndMetrics())
        if (std::string(d.name) != "setup_s")
            rep.set(d.name, 1.0);
    resultLine(rep, endToEndMetrics(), false, &correct);
    CHECK(!correct);
    rep.set("setup_s", 0.123456789012345678);
    CHECK(resultLine(rep, endToEndMetrics(), false, &correct)
              .find("\"setup_s\": {\"value\": 0.12345678901234568, "
                    "\"unit\": \"s\"}")
          != std::string::npos);
    CHECK(correct);
}

/** BENCHMARK.json lists exactly the metrics dmtbench prints. */
void
testSpecMatchesBinary()
{
    std::ifstream f(DMTBENCH_SPEC);
    std::stringstream text;
    text << f.rdbuf();
    dmt::JsonValue spec;
    std::string err;
    CHECK(dmt::JsonValue::parse(text.str(), &spec, &err));
    const auto same = [&](const char *key,
                          const std::vector<MetricDef> &defs) {
        const dmt::JsonValue *list = spec.find(key);
        CHECK(list && list->elements().size() == defs.size());
        if (!list || list->elements().size() != defs.size())
            return;
        for (size_t i = 0; i < defs.size(); ++i) {
            const dmt::JsonValue &m = list->elements()[i];
            CHECK(m.find("name")->asString() == defs[i].name);
            CHECK(m.find("unit")->asString() == defs[i].unit);
        }
    };
    same("end_to_end", endToEndMetrics());
    same("per_layer", perLayerMetrics());
}

} // namespace

int
main()
{
    testSpecMatchesBinary();
    testSupportedTail();
    testMedianAggregation();
    testCpiErr();
    testInjectedMismatch();
    testRequestStream();
    testSpans();
    testEnvironmentAndOptions();
    testResultLine();
    if (g_failures) {
        std::fprintf(stderr, "%d check(s) failed\n", g_failures);
        return 1;
    }
    std::printf("dmtbench_test: all checks passed\n");
    return 0;
}
