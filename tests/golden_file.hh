/**
 * @file
 * The one regenerate-or-compare step behind every golden-file test.
 * A test renders what this build produces for each checked-in file;
 * with DMT_UPDATE_GOLDEN set (and not "0") the files are rewritten from
 * that output and the test is skipped, otherwise each file is read
 * back and compared.
 */

#ifndef DMT_TESTS_GOLDEN_FILE_HH
#define DMT_TESTS_GOLDEN_FILE_HH

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

namespace dmt
{

/** A checked-in golden file and the bytes this build produces for it. */
struct GoldenFile
{
    std::string path;
    std::string fresh;
};

/**
 * Regenerate or compare @p files.  With DMT_UPDATE_GOLDEN set, writes
 * every file and skips the calling test; otherwise calls @p compare
 * with each file's index and checked-in text.  A missing file fails.
 */
inline void
checkGoldenFiles(
    const std::vector<GoldenFile> &files,
    const std::function<void(size_t, const std::string &)> &compare)
{
    const char *update = std::getenv("DMT_UPDATE_GOLDEN");
    if (update && *update && std::string(update) != "0") {
        for (const GoldenFile &f : files) {
            std::ofstream out(f.path);
            ASSERT_TRUE(out.good()) << f.path;
            out << f.fresh;
        }
        GTEST_SKIP() << files.size() << " golden file(s) regenerated";
    }

    for (size_t i = 0; i < files.size(); ++i) {
        std::ifstream in(files[i].path);
        ASSERT_TRUE(in.good())
            << files[i].path
            << " missing; regenerate with DMT_UPDATE_GOLDEN=1";
        std::ostringstream buf;
        buf << in.rdbuf();
        compare(i, buf.str());
    }
}

/** Whole-document form: the file must equal @p got byte for byte. */
inline void
checkGoldenBytes(const std::string &path, const std::string &got)
{
    checkGoldenFiles({{path, got}}, [&](size_t, const std::string &want) {
        EXPECT_EQ(want, got)
            << "run drifted from " << path
            << "; if intentional, regenerate with DMT_UPDATE_GOLDEN=1";
    });
}

} // namespace dmt

#endif // DMT_TESTS_GOLDEN_FILE_HH
