#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"

namespace freshsel::obs {

/// One parsed JSON document node (the read-side counterpart of JsonWriter).
///
/// Objects keep their members in *document order* in a flat vector instead
/// of a hash map: iteration stays deterministic (the `nondeterminism` lint
/// rule bans unordered containers on obs output paths) and lookups on the
/// small objects the obs schemas produce are cheaper than hashing anyway.
///
/// Numbers are held as doubles; when the literal is a plain unsigned
/// integer the exact `uint64` is kept alongside, so counter values above
/// 2^53 survive a parse -> re-serialize round trip bit-identically.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  using Member = std::pair<std::string, JsonValue>;

  JsonValue() = default;

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  /// Value accessors; calling the wrong one for the kind returns the
  /// neutral value (false / 0.0 / empty) rather than trapping, so readers
  /// can express "field absent or wrong type -> default" in one line.
  bool AsBool() const { return is_bool() && bool_; }
  double AsDouble() const { return is_number() ? number_ : 0.0; }
  /// Exact unsigned value when the literal was a plain non-negative
  /// integer; otherwise the double truncated toward zero (0 for negatives
  /// and non-numbers).
  std::uint64_t AsUint64() const;
  const std::string& AsString() const;

  /// Array elements (empty for non-arrays).
  const std::vector<JsonValue>& items() const { return items_; }
  /// Object members in document order (empty for non-objects).
  const std::vector<Member>& members() const { return members_; }

  /// Object member lookup; nullptr when absent or not an object. Linear
  /// scan - obs documents have small objects and deterministic layouts.
  const JsonValue* Find(std::string_view key) const;

  /// Typed member shorthands: the member's value, or `fallback` when the
  /// member is absent or has a different kind.
  double NumberOr(std::string_view key, double fallback) const;
  std::uint64_t UintOr(std::string_view key, std::uint64_t fallback) const;
  std::string StringOr(std::string_view key, std::string_view fallback) const;

  static JsonValue MakeNull() { return JsonValue(); }
  static JsonValue MakeBool(bool value);
  static JsonValue MakeNumber(double value);
  static JsonValue MakeUint(std::uint64_t value);
  static JsonValue MakeString(std::string value);
  static JsonValue MakeArray(std::vector<JsonValue> items);
  static JsonValue MakeObject(std::vector<Member> members);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::uint64_t uint_ = 0;
  bool exact_uint_ = false;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<Member> members_;
};

/// Parses one JSON document (RFC 8259 subset: no duplicate-key policy -
/// later members shadow earlier ones in Find). Errors carry the byte
/// offset of the first offending character. Nesting deeper than an
/// internal limit (96 levels) is rejected rather than risking stack
/// overflow on adversarial input.
Result<JsonValue> ParseJson(std::string_view text);

/// Reads `path` and parses its contents.
Result<JsonValue> ParseJsonFile(const std::string& path);

}  // namespace freshsel::obs
