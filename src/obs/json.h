#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace freshsel::obs {

/// Escapes `text` for inclusion inside a JSON string literal (quotes not
/// added).
std::string JsonEscape(std::string_view text);

/// Minimal streaming JSON writer for the obs serializers (metrics
/// snapshots, trace events, run reports). Emits compact one-line JSON;
/// commas and quoting are handled by the writer, nesting correctness is on
/// the caller (unbalanced Begin/End pairs are a bug, checked in debug
/// builds by the matching End* asserts).
///
/// Doubles are written with enough digits to round-trip; non-finite values
/// become null (JSON has no inf/nan).
class JsonWriter {
 public:
  void BeginObject();
  void EndObject();
  void BeginArray();
  void EndArray();

  /// Object key; must be followed by exactly one value (or Begin*).
  void Key(std::string_view key);

  void String(std::string_view value);
  void Double(double value);
  void Uint(std::uint64_t value);
  void Int(std::int64_t value);
  void Bool(bool value);
  void Null();

  /// Splices `json` verbatim as one value (comma/key handling still
  /// applies). `json` must itself be a complete, valid JSON value - the
  /// writer does not re-validate it. Used to embed an already-serialized
  /// document (e.g. a RunReport) inside a larger one without re-parsing.
  void RawValue(std::string_view json);

  /// Shorthand: Key(key) + value.
  void Field(std::string_view key, std::string_view value);
  void Field(std::string_view key, double value);
  void Field(std::string_view key, std::uint64_t value);

  const std::string& str() const { return out_; }
  std::string TakeString() { return std::move(out_); }

 private:
  /// Writes the separating comma when a value follows a previous sibling.
  void BeforeValue();

  std::string out_;
  /// One entry per open scope: true once the scope has at least one child.
  std::vector<bool> has_child_;
  bool after_key_ = false;
};

}  // namespace freshsel::obs
