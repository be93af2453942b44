#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"

namespace freshsel::cli {

/// Minimal command-line argument map for the freshsel CLI:
/// `command [positional...] --flag value --other=value`. The first
/// non-flag token is the command; later non-flag tokens are positionals
/// (subcommand words, file paths - `report show run.json`). Flags may
/// appear in either `--k v` or `--k=v` form. A flag followed by another
/// flag (or by the end of the line) is boolean-style and stores "true":
/// `select --strict --seed 7`.
class ArgMap {
 public:
  /// Parses argv[1..argc).
  static Result<ArgMap> Parse(int argc, const char* const* argv);

  const std::string& command() const { return command_; }
  /// Non-flag tokens after the command, in order. Commands that take no
  /// positionals reject a non-empty list themselves (alongside their
  /// unread-flag check), so a stray token still fails loudly.
  const std::vector<std::string>& positionals() const { return positionals_; }
  bool Has(const std::string& key) const { return flags_.count(key) > 0; }

  /// String flag with a default.
  std::string GetString(const std::string& key,
                        const std::string& fallback) const;

  /// Integer flag; InvalidArgument when present but malformed.
  Result<std::int64_t> GetInt(const std::string& key,
                              std::int64_t fallback) const;

  /// Double flag; InvalidArgument when present but malformed.
  Result<double> GetDouble(const std::string& key, double fallback) const;

  /// Boolean flag: absent -> fallback; bare `--flag`, "true" or "1" ->
  /// true; "false" or "0" -> false; anything else is InvalidArgument.
  Result<bool> GetBool(const std::string& key, bool fallback) const;

  /// Flags that were provided but never read (typo detection).
  std::vector<std::string> UnreadFlags() const;

 private:
  std::string command_;
  std::vector<std::string> positionals_;
  std::map<std::string, std::string> flags_;
  mutable std::map<std::string, bool> read_;
};

}  // namespace freshsel::cli
