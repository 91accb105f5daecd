#include "exp/report.hh"

#include <cstdio>

#include "common/json.hh"
#include "common/log.hh"
#include "common/strutil.hh"
#include "exp/runner.hh"
#include "uarch/config.hh"

namespace dmt
{

u64
canonicalHash(const RunResult &r)
{
    return fnv1aHash(r.jsonString());
}

u64
canonicalHash(const SimConfig &cfg)
{
    JsonWriter w;
    cfg.jsonOn(w);
    return fnv1aHash(w.str());
}

std::string
hashHex(u64 h)
{
    return strprintf("%016llx", static_cast<unsigned long long>(h));
}

Report::Report(std::string title_, std::string paper_note_)
    : title(std::move(title_)), paper_note(std::move(paper_note_))
{
}

void
Report::columns(const std::vector<std::string> &names)
{
    cols = names;
}

void
Report::row(const std::string &label, const std::vector<double> &values)
{
    DMT_ASSERT(values.size() + 1 == cols.size(),
               "row width mismatch: %zu values for %zu columns",
               values.size(), cols.size());
    rows.push_back({label, values, false});
}

void
Report::averageRow(const std::string &label)
{
    if (rows.empty())
        return;
    std::vector<double> avg(rows.front().values.size(), 0.0);
    int n = 0;
    for (const Row &r : rows) {
        if (r.is_average)
            continue;
        for (size_t i = 0; i < avg.size(); ++i)
            avg[i] += r.values[i];
        ++n;
    }
    for (double &v : avg)
        v /= n;
    rows.push_back({label, avg, true});
}

std::string
Report::render() const
{
    std::string out;
    out += "\n== " + title + "\n";
    if (!paper_note.empty())
        out += "   paper: " + paper_note + "\n";

    const int label_w = 12;
    const int col_w = 12;

    out += strprintf("%-*s", label_w, cols.empty() ? "" :
                     cols.front().c_str());
    for (size_t i = 1; i < cols.size(); ++i)
        out += strprintf("%*s", col_w, cols[i].c_str());
    out += "\n";
    out += std::string(label_w + col_w * (cols.size() - 1), '-') + "\n";

    for (const Row &r : rows) {
        if (r.is_average)
            out += std::string(label_w + col_w * (cols.size() - 1), '-')
                + "\n";
        out += strprintf("%-*s", label_w, r.label.c_str());
        for (double v : r.values)
            out += strprintf("%*.2f", col_w, v);
        out += "\n";
    }
    return out;
}

void
Report::print() const
{
    std::fputs(render().c_str(), stdout);
    std::fflush(stdout);
}

void
Report::jsonOn(JsonWriter &w) const
{
    w.beginObject();
    w.key("title").value(std::string_view(title));
    w.key("paper_note").value(std::string_view(paper_note));
    w.key("columns").beginArray();
    for (const std::string &c : cols)
        w.value(std::string_view(c));
    w.endArray();
    w.key("rows").beginArray();
    for (const Row &r : rows) {
        w.beginObject();
        w.key("label").value(std::string_view(r.label));
        w.key("is_average").value(r.is_average);
        w.key("values").beginArray();
        for (double v : r.values)
            w.value(v);
        w.endArray();
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

} // namespace dmt
