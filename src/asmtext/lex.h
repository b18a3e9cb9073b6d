// Lexical helpers of the assembly parser: ASCII character classes (the C
// locale's, without locale lookups), case-insensitive matching in place,
// operand splitting over string views, and numeric literals. Nothing here
// allocates except the error paths.
#ifndef LFI_ASMTEXT_LEX_H_
#define LFI_ASMTEXT_LEX_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "support/result.h"

namespace lfi::asmtext::lex {

inline bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }
inline bool IsDigit(char c) { return c >= '0' && c <= '9'; }
inline char ToLower(char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c + ('a' - 'A')) : c;
}
inline bool IsAlpha(char c) { return ToLower(c) >= 'a' && ToLower(c) <= 'z'; }
inline bool IsXDigit(char c) {
  return IsDigit(c) || (ToLower(c) >= 'a' && ToLower(c) <= 'f');
}
inline bool IsIdentChar(char c) {
  return IsAlpha(c) || IsDigit(c) || c == '_' || c == '.' || c == '$';
}

inline std::string_view Trim(std::string_view s) {
  while (!s.empty() && IsSpace(s.front())) s.remove_prefix(1);
  while (!s.empty() && IsSpace(s.back())) s.remove_suffix(1);
  return s;
}

// Case-insensitive comparison against a lowercase literal.
inline bool EqualsLower(std::string_view s, std::string_view lower) {
  if (s.size() != lower.size()) return false;
  for (size_t k = 0; k < s.size(); ++k) {
    if (ToLower(s[k]) != lower[k]) return false;
  }
  return true;
}

inline bool ContainsLower(std::string_view s, std::string_view lower) {
  for (size_t k = 0; k + lower.size() <= s.size(); ++k) {
    if (EqualsLower(s.substr(k, lower.size()), lower)) return true;
  }
  return false;
}

inline std::string LowerCopy(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = ToLower(c);
  return out;
}

// Calls `fn(piece)` for each comma-separated piece of `s`, trimmed; commas
// inside [...] do not split, and an empty last piece is dropped. Stops
// early when `fn` returns false.
template <typename Fn>
void SplitOperands(std::string_view s, Fn&& fn) {
  int depth = 0;
  size_t start = 0;
  for (size_t k = 0; k < s.size(); ++k) {
    if (s[k] == '[') ++depth;
    if (s[k] == ']') --depth;
    if (s[k] == ',' && depth == 0) {
      if (!fn(Trim(s.substr(start, k - start)))) return;
      start = k + 1;
    }
  }
  const auto last = Trim(s.substr(start));
  if (!last.empty()) fn(last);
}

// A numeric literal: optional `#`, optional sign, then decimal digits or
// `0x` and hex digits. The magnitude must fit in 64 bits; the value is
// its two's-complement reading.
struct Number {
  enum class Status { kOk, kInvalid, kOverflow };
  Status status = Status::kInvalid;
  int64_t value = 0;
  bool ok() const { return status == Status::kOk; }
};

inline Number ParseNumber(std::string_view s) {
  Number n;
  s = Trim(s);
  if (!s.empty() && s.front() == '#') s.remove_prefix(1);
  if (s.empty()) return n;
  bool neg = false;
  if (s.front() == '-') {
    neg = true;
    s.remove_prefix(1);
  } else if (s.front() == '+') {
    s.remove_prefix(1);
  }
  if (s.empty()) return n;
  uint64_t v = 0;
  bool overflow = false;
  if (s.size() > 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X')) {
    for (char c : s.substr(2)) {
      if (!IsXDigit(c)) return n;
      const uint64_t d = IsDigit(c) ? c - '0' : ToLower(c) - 'a' + 10;
      overflow |= v > (UINT64_MAX >> 4);
      v = v * 16 + d;
    }
  } else {
    for (char c : s) {
      if (!IsDigit(c)) return n;
      const uint64_t d = static_cast<uint64_t>(c - '0');
      overflow |= v > (UINT64_MAX - d) / 10;
      v = v * 10 + d;
    }
  }
  n.status = overflow ? Number::Status::kOverflow : Number::Status::kOk;
  n.value = static_cast<int64_t>(neg ? 0 - v : v);
  return n;
}

// The error for `tok`, which failed ParseNumber (or a range check) as
// `n`: its own message on overflow, `bad` otherwise.
inline Status BadNumber(const Number& n, std::string_view tok,
                        std::string bad) {
  if (n.status == Number::Status::kOverflow) {
    return Status::Fail("numeric literal overflows 64 bits: " +
                        std::string(tok));
  }
  return Status::Fail(std::move(bad));
}

}  // namespace lfi::asmtext::lex

#endif  // LFI_ASMTEXT_LEX_H_
