#include "util/flags.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>

namespace webevo {

FlagParser::FlagParser(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    std::string body = arg.substr(2);
    auto eq = body.find('=');
    if (eq != std::string::npos) {
      bare_.erase(body.substr(0, eq));
      flags_[body.substr(0, eq)] = body.substr(eq + 1);
    } else {
      bare_.insert(body);
      flags_[body] = "true";
    }
  }
}

bool FlagParser::Has(const std::string& name) const {
  return flags_.count(name) > 0;
}

std::string FlagParser::GetString(const std::string& name,
                                  const std::string& fallback) const {
  auto it = flags_.find(name);
  return it == flags_.end() ? fallback : it->second;
}

int64_t FlagParser::GetInt(const std::string& name,
                           int64_t fallback) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  char* end = nullptr;
  errno = 0;
  long long v = std::strtoll(it->second.c_str(), &end, 10);
  if (end == it->second.c_str() || *end != '\0') return fallback;
  // strtoll clamps out-of-range input to LLONG_MIN/LLONG_MAX and only
  // reports it through errno; a silently saturated value is as wrong
  // as an unparsable one (mirrors GetDouble's non-finite rejection).
  if (errno == ERANGE) return fallback;
  return v;
}

double FlagParser::GetDouble(const std::string& name,
                             double fallback) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  char* end = nullptr;
  double v = std::strtod(it->second.c_str(), &end);
  if (end == it->second.c_str() || *end != '\0') return fallback;
  // strtod happily parses "nan", "inf", and overflowing exponents;
  // none of those is an acceptable rate/probability/latency, so treat
  // non-finite values exactly like unparsable ones.
  if (!std::isfinite(v)) return fallback;
  return v;
}

bool FlagParser::GetBool(const std::string& name, bool fallback) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  return fallback;
}

Status FlagParser::Validate(const std::vector<std::string>& known) const {
  for (const auto& [name, value] : flags_) {
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      return Status::InvalidArgument("unknown flag --" + name);
    }
  }
  return Status::Ok();
}

Status FlagParser::RequireValues(const std::vector<std::string>& names) const {
  for (const std::string& name : names) {
    if (bare_.count(name) > 0) {
      return Status::InvalidArgument("flag --" + name + " needs a value (--" +
                                     name + "=<value>)");
    }
  }
  return Status::Ok();
}

}  // namespace webevo
