// Small string helpers used by report rendering, the SQL front end and the text formats.
#ifndef DFP_SRC_UTIL_STR_H_
#define DFP_SRC_UTIL_STR_H_

#include <cstdarg>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

namespace dfp {

// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

// Lowercases ASCII.
std::string ToLower(std::string_view text);

// "12.3%"-style percentage with one decimal place; `share` in [0, 1].
std::string PercentString(double share);

// Left-pads (align right) or right-pads (align left) to the given width.
std::string PadLeft(const std::string& text, size_t width);
std::string PadRight(const std::string& text, size_t width);

// Exactly 16 lowercase hex digits: the fingerprint and bit-pattern field of every dfp text
// format and report.
std::string HexU64(uint64_t value);

// Inverse of HexU64. Anything but exactly 16 lowercase hex digits throws dfp::Error naming the
// token and the `line` it came from.
uint64_t ParseHexU64(const std::string& token, const std::string& line);

// A stream over one line of a dfp text file. Extracting an unsigned field from it fails on a
// leading '-', where a plain istream would read "-1" as the type's maximum and let a corrupt
// count or id pass a range check that only tests an upper bound.
std::istringstream FieldStream(const std::string& line);

// Checks the first line of a dfp text file against `<prefix><version>` — each format has one
// current version, which this build writes and reads. A header with the right prefix and any
// other version throws dfp::Error naming the version found and asking to regenerate the file
// with this build; any other first line throws "not a <kind> file".
void CheckFormatHeader(const std::string& header, const std::string& prefix, int version,
                       const std::string& kind);

// Matches a SQL LIKE pattern ('%' any run, '_' any single char) against `text`.
bool LikeMatch(std::string_view text, std::string_view pattern);

}  // namespace dfp

#endif  // DFP_SRC_UTIL_STR_H_
