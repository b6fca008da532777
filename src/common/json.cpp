#include "common/json.hpp"

#include <cctype>
#include <cstdlib>

namespace irmc::json {

std::string Escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
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

const Value* Value::Find(const std::string& key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [k, v] : object)
    if (k == key) return &v;
  return nullptr;
}

namespace {

/// Recursive-descent parser state over the input string.
class Parser {
 public:
  Parser(const std::string& text, std::string* error)
      : text_(text), error_(error) {}

  bool ParseDocument(Value* out) {
    SkipWs();
    if (!ParseValue(out)) return false;
    SkipWs();
    if (pos_ != text_.size()) return Fail("trailing characters");
    return true;
  }

 private:
  bool Fail(const char* reason) {
    if (error_ != nullptr)
      *error_ = "offset " + std::to_string(pos_) + ": " + reason;
    return false;
  }

  void SkipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }

  bool Literal(const char* word, std::size_t len) {
    if (text_.compare(pos_, len, word) != 0) return Fail("bad literal");
    pos_ += len;
    return true;
  }

  bool ParseValue(Value* out) {
    if (pos_ >= text_.size()) return Fail("unexpected end of input");
    const char c = text_[pos_];
    switch (c) {
      case '{': return ParseObject(out);
      case '[': return ParseArray(out);
      case '"':
        out->kind = Value::Kind::kString;
        return ParseString(&out->str);
      case 't':
        out->kind = Value::Kind::kBool;
        out->boolean = true;
        return Literal("true", 4);
      case 'f':
        out->kind = Value::Kind::kBool;
        out->boolean = false;
        return Literal("false", 5);
      case 'n':
        out->kind = Value::Kind::kNull;
        return Literal("null", 4);
      default: return ParseNumber(out);
    }
  }

  bool Digit() const {
    return pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9';
  }

  void SkipDigits() {
    while (Digit()) ++pos_;
  }

  /// RFC 8259's number grammar, -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?
  /// [0-9]+)?, matched first; strtod then converts only that span.
  /// strtod alone would also take 0x10, +3, .5, 1., inf and nan.
  bool ParseNumber(Value* out) {
    const std::size_t begin = pos_;
    if (text_[pos_] == '-') ++pos_;
    if (!Digit()) return Fail("expected a value");
    if (text_[pos_] == '0')
      ++pos_;  // no leading zeros: "01" ends at "0"
    else
      SkipDigits();
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (!Digit()) return Fail("expected a digit after '.'");
      SkipDigits();
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-'))
        ++pos_;
      if (!Digit()) return Fail("expected an exponent digit");
      SkipDigits();
    }
    const std::string span = text_.substr(begin, pos_ - begin);
    out->kind = Value::Kind::kNumber;
    out->number = std::strtod(span.c_str(), nullptr);
    return true;
  }

  bool ParseString(std::string* out) {
    ++pos_;  // opening quote
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else
              return Fail("bad \\u escape digit");
          }
          // Our writers only \u-escape control characters; encode the
          // general case as UTF-8 anyway so foreign files survive.
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (code >> 6)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xE0 | (code >> 12)));
            out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: return Fail("bad escape character");
      }
    }
    return Fail("unterminated string");
  }

  bool ParseArray(Value* out) {
    out->kind = Value::Kind::kArray;
    ++pos_;  // '['
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      Value element;
      if (!ParseValue(&element)) return false;
      out->array.push_back(std::move(element));
      SkipWs();
      if (pos_ >= text_.size()) return Fail("unterminated array");
      const char c = text_[pos_++];
      if (c == ']') return true;
      if (c != ',') return Fail("expected ',' or ']'");
      SkipWs();
    }
  }

  bool ParseObject(Value* out) {
    out->kind = Value::Kind::kObject;
    ++pos_;  // '{'
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != '"')
        return Fail("expected object key");
      std::string key;
      if (!ParseString(&key)) return false;
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_++] != ':')
        return Fail("expected ':'");
      SkipWs();
      Value member;
      if (!ParseValue(&member)) return false;
      out->object.emplace_back(std::move(key), std::move(member));
      SkipWs();
      if (pos_ >= text_.size()) return Fail("unterminated object");
      const char c = text_[pos_++];
      if (c == '}') return true;
      if (c != ',') return Fail("expected ',' or '}'");
    }
  }

  const std::string& text_;
  std::string* error_;
  std::size_t pos_ = 0;
};

}  // namespace

bool Parse(const std::string& text, Value* out, std::string* error) {
  *out = Value{};
  return Parser(text, error).ParseDocument(out);
}

}  // namespace irmc::json
