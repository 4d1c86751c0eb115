// Minimal JSON helpers for the observability exporters.
//
// The trace and metrics exporters emit JSON by hand (no third-party JSON
// dependency); these helpers keep the escaping and number formatting in one
// place, byte-stable across runs (no locale, no pointer-derived ordering) so
// that identical simulations produce identical export files.  ValidateJson is
// the strict syntax check tests use to guarantee the emitted documents
// parse; it runs ParseJson, so the two always agree.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace redplane::obs {

/// Escapes `s` for inclusion inside a JSON string literal (quotes not
/// included).
std::string JsonEscape(std::string_view s);

/// Formats a double deterministically: integral values print without a
/// fractional part, everything else with enough digits to be useful for
/// reporting.  NaN/Inf (not representable in JSON) print as 0.
std::string JsonNumber(double v);

/// Strict JSON syntax check over a complete document.  Returns true iff
/// `text` is one valid JSON value (with surrounding whitespace allowed):
/// ParseJson(text).has_value().
bool ValidateJson(std::string_view text);

/// Parsed JSON value.  Objects keep insertion order (a vector of pairs, not
/// a map) so round-trips stay byte-stable; duplicate keys keep the first.
/// Just enough JSON for tools/report.cc and ci artifacts to read the
/// exporters' own output back — not a general-purpose library.
struct JsonValue {
  enum class Type : std::uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  bool IsNull() const { return type == Type::kNull; }
  bool IsNumber() const { return type == Type::kNumber; }
  bool IsString() const { return type == Type::kString; }
  bool IsArray() const { return type == Type::kArray; }
  bool IsObject() const { return type == Type::kObject; }

  /// Object member lookup; null for missing keys or non-objects.
  const JsonValue* Find(std::string_view key) const {
    if (type != Type::kObject) return nullptr;
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
  /// Find(key) as a number, with `fallback` for missing/mistyped members.
  double NumberOr(std::string_view key, double fallback) const {
    const JsonValue* v = Find(key);
    return v != nullptr && v->type == Type::kNumber ? v->number : fallback;
  }
  /// Find(key) as a string, with `fallback` for missing/mistyped members.
  std::string StringOr(std::string_view key, std::string fallback) const {
    const JsonValue* v = Find(key);
    return v != nullptr && v->type == Type::kString ? v->str
                                                    : std::move(fallback);
  }
};

/// Parses one complete JSON document (surrounding whitespace allowed).
/// Returns nullopt on any syntax error.
std::optional<JsonValue> ParseJson(std::string_view text);

}  // namespace redplane::obs
