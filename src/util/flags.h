#ifndef WEBEVO_UTIL_FLAGS_H_
#define WEBEVO_UTIL_FLAGS_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "util/status.h"

namespace webevo {

/// Minimal command-line flag parser for the tools and examples:
/// `--name=value`; bare `--name` is a boolean true and never takes the
/// next argument as its value; everything else is a positional
/// argument.
///
/// No registration step — callers query by name with typed accessors
/// and defaults, and can Validate() against a list of known names.
class FlagParser {
 public:
  /// Parses argv. Later duplicates override earlier ones.
  FlagParser(int argc, const char* const* argv);

  bool Has(const std::string& name) const;

  /// Typed accessors; return `fallback` when absent or malformed.
  std::string GetString(const std::string& name,
                        const std::string& fallback) const;
  int64_t GetInt(const std::string& name, int64_t fallback) const;
  double GetDouble(const std::string& name, double fallback) const;
  bool GetBool(const std::string& name, bool fallback) const;

  const std::vector<std::string>& positional() const {
    return positional_;
  }

  /// InvalidArgument naming the first flag not in `known` (catches
  /// typos like --capasity).
  Status Validate(const std::vector<std::string>& known) const;

  /// InvalidArgument naming the first of `names` given bare (`--name`
  /// with no value): for flags that take a value, such as a path, the
  /// bare form's implicit "true" is a usage error, not a value.
  Status RequireValues(const std::vector<std::string>& names) const;

 private:
  std::map<std::string, std::string> flags_;
  std::set<std::string> bare_;  // flags whose last occurrence was bare
  std::vector<std::string> positional_;
};

}  // namespace webevo

#endif  // WEBEVO_UTIL_FLAGS_H_
