#include "obs/json.h"

#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

namespace redplane::obs {

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  // Integral values (counters, byte totals) print exactly.
  if (v == std::floor(v) && std::fabs(v) < 9.0e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    return buf;
  }
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

namespace {

/// Recursive-descent parser building JsonValues (RFC 8259 grammar).  A
/// document nests at most 512 values deep, counting the innermost scalar.
class ValueParser {
 public:
  explicit ValueParser(std::string_view text) : text_(text) {}

  std::optional<JsonValue> ParseDocument() {
    SkipWs();
    JsonValue v;
    if (!ParseValue(v)) return std::nullopt;
    SkipWs();
    if (pos_ != text_.size()) return std::nullopt;
    return v;
  }

 private:
  bool AtEnd() const { return pos_ >= text_.size(); }
  char Peek() const { return text_[pos_]; }
  bool Consume(char c) {
    if (AtEnd() || Peek() != c) return false;
    ++pos_;
    return true;
  }
  void SkipWs() {
    while (!AtEnd() && (Peek() == ' ' || Peek() == '\t' || Peek() == '\n' ||
                        Peek() == '\r')) {
      ++pos_;
    }
  }
  bool ConsumeLiteral(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  bool ParseValue(JsonValue& out) {
    if (++depth_ > 512 || AtEnd()) return false;
    bool ok = false;
    switch (Peek()) {
      case '{': ok = ParseObject(out); break;
      case '[': ok = ParseArray(out); break;
      case '"':
        out.type = JsonValue::Type::kString;
        ok = ParseString(out.str);
        break;
      case 't':
        out.type = JsonValue::Type::kBool;
        out.boolean = true;
        ok = ConsumeLiteral("true");
        break;
      case 'f':
        out.type = JsonValue::Type::kBool;
        out.boolean = false;
        ok = ConsumeLiteral("false");
        break;
      case 'n':
        out.type = JsonValue::Type::kNull;
        ok = ConsumeLiteral("null");
        break;
      default:
        out.type = JsonValue::Type::kNumber;
        ok = ParseNumber(out.number);
        break;
    }
    --depth_;
    return ok;
  }

  bool ParseObject(JsonValue& out) {
    out.type = JsonValue::Type::kObject;
    if (!Consume('{')) return false;
    SkipWs();
    if (Consume('}')) return true;
    while (true) {
      SkipWs();
      std::string key;
      if (!ParseString(key)) return false;
      SkipWs();
      if (!Consume(':')) return false;
      SkipWs();
      JsonValue member;
      if (!ParseValue(member)) return false;
      if (out.Find(key) == nullptr) {
        out.object.emplace_back(std::move(key), std::move(member));
      }
      SkipWs();
      if (Consume(',')) continue;
      return Consume('}');
    }
  }

  bool ParseArray(JsonValue& out) {
    out.type = JsonValue::Type::kArray;
    if (!Consume('[')) return false;
    SkipWs();
    if (Consume(']')) return true;
    while (true) {
      SkipWs();
      JsonValue elem;
      if (!ParseValue(elem)) return false;
      out.array.push_back(std::move(elem));
      SkipWs();
      if (Consume(',')) continue;
      return Consume(']');
    }
  }

  bool ParseString(std::string& out) {
    if (!Consume('"')) return false;
    while (!AtEnd()) {
      char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (AtEnd()) return false;
        char e = text_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            unsigned cp = 0;
            for (int i = 0; i < 4; ++i) {
              if (AtEnd()) return false;
              const char h = text_[pos_++];
              unsigned d;
              if (h >= '0' && h <= '9') d = static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') d = static_cast<unsigned>(h - 'a') + 10;
              else if (h >= 'A' && h <= 'F') d = static_cast<unsigned>(h - 'A') + 10;
              else return false;
              cp = cp * 16 + d;
            }
            // UTF-8 encode (surrogate pairs not joined — the exporters only
            // ever emit \u00xx control escapes).
            if (cp < 0x80) {
              out += static_cast<char>(cp);
            } else if (cp < 0x800) {
              out += static_cast<char>(0xC0 | (cp >> 6));
              out += static_cast<char>(0x80 | (cp & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (cp >> 12));
              out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (cp & 0x3F));
            }
            break;
          }
          default: return false;
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return false;
      } else {
        out += c;
      }
    }
    return false;
  }

  bool ParseNumber(double& out) {
    const std::size_t start = pos_;
    Consume('-');
    // int = "0" / [1-9] digit*; frac = "." digit+; exp = [eE] [+-] digit+.
    if (!Consume('0') && !ConsumeDigits()) return false;
    if (Consume('.') && !ConsumeDigits()) return false;
    if (Consume('e') || Consume('E')) {
      if (!Consume('+')) Consume('-');
      if (!ConsumeDigits()) return false;
    }
    out = std::strtod(std::string(text_.substr(start, pos_ - start)).c_str(),
                      nullptr);
    return true;
  }
  /// Consumes one or more decimal digits.
  bool ConsumeDigits() {
    const std::size_t start = pos_;
    while (!AtEnd() && std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    return pos_ > start;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

std::optional<JsonValue> ParseJson(std::string_view text) {
  return ValueParser(text).ParseDocument();
}

bool ValidateJson(std::string_view text) {
  return ParseJson(text).has_value();
}

}  // namespace redplane::obs
