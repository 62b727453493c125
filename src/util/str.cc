#include "src/util/str.h"

#include <cctype>
#include <cstdio>
#include <locale>

#include "src/util/check.h"

namespace dfp {

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out(static_cast<size_t>(needed), '\0');
  std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  va_end(args_copy);
  return out;
}

std::string ToLower(std::string_view text) {
  std::string out(text);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

std::string PercentString(double share) {
  return StrFormat("%.1f%%", share * 100.0);
}

std::string PadLeft(const std::string& text, size_t width) {
  if (text.size() >= width) {
    return text;
  }
  return std::string(width - text.size(), ' ') + text;
}

std::string PadRight(const std::string& text, size_t width) {
  if (text.size() >= width) {
    return text;
  }
  return text + std::string(width - text.size(), ' ');
}

std::string HexU64(uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx", static_cast<unsigned long long>(value));
  return buffer;
}

uint64_t ParseHexU64(const std::string& token, const std::string& line) {
  if (token.size() != 16 || token.find_first_not_of("0123456789abcdef") != std::string::npos) {
    throw Error("malformed hex field '" + token + "' in line: '" + line + "'");
  }
  uint64_t value = 0;
  for (char c : token) {
    value = (value << 4) | static_cast<uint64_t>(c <= '9' ? c - '0' : c - 'a' + 10);
  }
  return value;
}

namespace {

// The classic number parser, except that an unsigned extraction fails on a leading '-'.
class UnsignedNumGet : public std::num_get<char> {
 protected:
  iter_type do_get(iter_type in, iter_type end, std::ios_base& io, std::ios_base::iostate& err,
                   unsigned short& value) const override {
    return GetUnsigned(in, end, io, err, value);
  }
  iter_type do_get(iter_type in, iter_type end, std::ios_base& io, std::ios_base::iostate& err,
                   unsigned int& value) const override {
    return GetUnsigned(in, end, io, err, value);
  }
  iter_type do_get(iter_type in, iter_type end, std::ios_base& io, std::ios_base::iostate& err,
                   unsigned long& value) const override {
    return GetUnsigned(in, end, io, err, value);
  }
  iter_type do_get(iter_type in, iter_type end, std::ios_base& io, std::ios_base::iostate& err,
                   unsigned long long& value) const override {
    return GetUnsigned(in, end, io, err, value);
  }

 private:
  template <typename T>
  iter_type GetUnsigned(iter_type in, iter_type end, std::ios_base& io,
                        std::ios_base::iostate& err, T& value) const {
    if (in != end && *in == '-') {
      err = std::ios_base::failbit;
      return in;
    }
    return std::num_get<char>::do_get(in, end, io, err, value);
  }
};

}  // namespace

std::istringstream FieldStream(const std::string& line) {
  static const std::locale strict(std::locale::classic(), new UnsignedNumGet);
  std::istringstream stream(line);
  stream.imbue(strict);
  return stream;
}

void CheckFormatHeader(const std::string& header, const std::string& prefix, int version,
                       const std::string& kind) {
  if (header.compare(0, prefix.size(), prefix) != 0) {
    throw Error("not a " + kind + " file");
  }
  const std::string current = std::to_string(version);
  const std::string found = header.substr(prefix.size());
  if (found != current) {
    throw Error(kind + " file has version v" + found + " but this build reads only v" + current +
                ": regenerate with this build");
  }
}

bool LikeMatch(std::string_view text, std::string_view pattern) {
  // Iterative wildcard matching with backtracking over the last '%'.
  size_t t = 0;
  size_t p = 0;
  size_t star_p = std::string_view::npos;
  size_t star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() && (pattern[p] == '_' || pattern[p] == text[t])) {
      ++t;
      ++p;
    } else if (p < pattern.size() && pattern[p] == '%') {
      star_p = p++;
      star_t = t;
    } else if (star_p != std::string_view::npos) {
      p = star_p + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') {
    ++p;
  }
  return p == pattern.size();
}

}  // namespace dfp
