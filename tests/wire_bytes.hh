/**
 * @file
 * Helpers for the wire-format tests: byte-exact comparison against
 * a checked-in file under tests/golden/, and in-place edits of a
 * serialized document.
 */

#ifndef RANA_TESTS_WIRE_BYTES_HH_
#define RANA_TESTS_WIRE_BYTES_HH_

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

namespace rana {

/**
 * Whether `actual` equals tests/golden/`name` byte for byte. On a
 * mismatch the actual bytes are saved under the test temp directory
 * (the failure message names the file), so a deliberate format
 * change can be reviewed with diff and copied over the golden.
 */
inline ::testing::AssertionResult
matchesGolden(const std::string &actual, const std::string &name)
{
    std::ifstream in(std::string(RANA_GOLDEN_DIR) + "/" + name,
                     std::ios::binary);
    std::ostringstream expected;
    expected << in.rdbuf();
    if (in && expected.str() == actual)
        return ::testing::AssertionSuccess();
    const std::string saved = ::testing::TempDir() + name;
    std::ofstream(saved, std::ios::binary) << actual;
    return ::testing::AssertionFailure()
           << name << " differs from the golden bytes; actual output "
           << "saved to " << saved;
}

/**
 * `text` with the first integer after member `key` (a scalar or the
 * first array element) replaced by `value`.
 */
inline std::string
replaceNumberAfter(std::string text, const std::string &key,
                   const std::string &value)
{
    const std::size_t at = text.find("\"" + key + "\":");
    if (at == std::string::npos) {
        ADD_FAILURE() << "no member " << key;
        return text;
    }
    const std::size_t begin = text.find_first_of("0123456789", at);
    const std::size_t end = text.find_first_not_of("0123456789", begin);
    return text.replace(begin, end - begin, value);
}

} // namespace rana

#endif // RANA_TESTS_WIRE_BYTES_HH_
