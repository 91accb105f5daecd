/**
 * @file
 * Plain-text table rendering for the figure benches: fixed-width
 * columns, a title block quoting the paper's series, and a footer for
 * averages.
 */

#ifndef DMT_EXP_REPORT_HH
#define DMT_EXP_REPORT_HH

#include <string>
#include <string_view>
#include <vector>

#include "common/record.hh"
#include "common/types.hh"

namespace dmt
{

class JsonWriter;
struct RunResult;
struct SimConfig;

// ---- canonical hashing -------------------------------------------------
//
// Golden tooling and the serve-layer result cache both need a compact,
// stable identity for "this exact result" / "this exact machine".  The
// contract: hash the *canonical JSON* form (jsonOn through JsonWriter),
// which already excludes host-timing fields (wall_s, minstr_per_s,
// func_wall_s), with fnv1aHash (common/record.hh) — the same digest
// checkpoints use for program images.  Equal hashes ⇔ byte-identical
// canonical documents (modulo 64-bit collisions, irrelevant at cache
// scale).

/** Canonical digest of a RunResult (over jsonString()). */
u64 canonicalHash(const RunResult &r);

/** Canonical digest of a SimConfig (over its jsonOn() document). */
u64 canonicalHash(const SimConfig &cfg);

/** Fixed-width lowercase hex rendering of a 64-bit digest. */
std::string hashHex(u64 h);

/** Simple fixed-width table. */
class Report
{
  public:
    /**
     * @param title figure name, e.g. "Figure 4: speedup vs threads"
     * @param paper_note what the paper reports, for side-by-side reading
     */
    Report(std::string title, std::string paper_note);

    /** Define columns (first column is the row label). */
    void columns(const std::vector<std::string> &names);

    /** Add a data row. */
    void row(const std::string &label, const std::vector<double> &values);

    /** Append an "average" row over all rows added so far. */
    void averageRow(const std::string &label = "average");

    /** Render everything. */
    std::string render() const;

    /** Render and print to stdout. */
    void print() const;

    /** Serialize the table (title, columns, rows) as JSON. */
    void jsonOn(JsonWriter &w) const;

  private:
    std::string title;
    std::string paper_note;
    std::vector<std::string> cols;
    struct Row
    {
        std::string label;
        std::vector<double> values;
        bool is_average = false;
    };
    std::vector<Row> rows;
};

} // namespace dmt

#endif // DMT_EXP_REPORT_HH
