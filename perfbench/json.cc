#include "json.h"

#include <cmath>
#include <cstdlib>
#include <iomanip>
#include <sstream>

namespace perfbench {

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  bool Document(Json* out) {
    if (!Value(out)) return false;
    Space();
    return pos_ == s_.size() || Fail("trailing characters");
  }

  std::string error;

 private:
  bool Fail(const std::string& why) {
    error = why + " at offset " + std::to_string(pos_);
    return false;
  }

  void Space() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\n' ||
                                s_[pos_] == '\t' || s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Literal(const char* word) {
    const std::string w = word;
    if (s_.compare(pos_, w.size(), w) != 0) return Fail("bad literal");
    pos_ += w.size();
    return true;
  }

  bool Value(Json* out) {
    Space();
    if (pos_ >= s_.size()) return Fail("unexpected end");
    const char c = s_[pos_];
    if (c == '{') return Object(out);
    if (c == '[') return Array(out);
    if (c == '"') {
      out->kind = Json::Kind::kString;
      return String(&out->string);
    }
    if (c == 't' || c == 'f') {
      out->kind = Json::Kind::kBool;
      out->boolean = c == 't';
      return Literal(c == 't' ? "true" : "false");
    }
    if (c == 'n') {
      out->kind = Json::Kind::kNull;
      return Literal("null");
    }
    const char* begin = s_.c_str() + pos_;
    char* end = nullptr;
    out->number = std::strtod(begin, &end);
    if (end == begin || !std::isfinite(out->number)) return Fail("bad number");
    out->kind = Json::Kind::kNumber;
    pos_ += static_cast<size_t>(end - begin);
    return true;
  }

  bool String(std::string* out) {
    ++pos_;  // opening quote
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\') {
        if (pos_ >= s_.size()) break;
        const char e = s_[pos_++];
        switch (e) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'u':
            // Only ASCII escapes occur in the program's output.
            if (pos_ + 4 > s_.size()) return Fail("bad escape");
            c = static_cast<char>(std::strtol(s_.substr(pos_, 4).c_str(),
                                              nullptr, 16));
            pos_ += 4;
            break;
          default: c = e;
        }
      }
      out->push_back(c);
    }
    if (pos_ >= s_.size()) return Fail("unterminated string");
    ++pos_;  // closing quote
    return true;
  }

  bool Array(Json* out) {
    out->kind = Json::Kind::kArray;
    ++pos_;
    Space();
    if (pos_ < s_.size() && s_[pos_] == ']') return ++pos_, true;
    for (;;) {
      out->array.emplace_back();
      if (!Value(&out->array.back())) return false;
      Space();
      if (pos_ < s_.size() && s_[pos_] == ',') {
        ++pos_;
      } else if (pos_ < s_.size() && s_[pos_] == ']') {
        ++pos_;
        return true;
      } else {
        return Fail("expected , or ]");
      }
    }
  }

  bool Object(Json* out) {
    out->kind = Json::Kind::kObject;
    ++pos_;
    Space();
    if (pos_ < s_.size() && s_[pos_] == '}') return ++pos_, true;
    for (;;) {
      Space();
      if (pos_ >= s_.size() || s_[pos_] != '"') return Fail("expected key");
      std::string key;
      if (!String(&key)) return false;
      Space();
      if (pos_ >= s_.size() || s_[pos_] != ':') return Fail("expected :");
      ++pos_;
      out->object.emplace_back(std::move(key), Json());
      if (!Value(&out->object.back().second)) return false;
      Space();
      if (pos_ < s_.size() && s_[pos_] == ',') {
        ++pos_;
      } else if (pos_ < s_.size() && s_[pos_] == '}') {
        ++pos_;
        return true;
      } else {
        return Fail("expected , or }");
      }
    }
  }

  const std::string& s_;
  size_t pos_ = 0;
};

}  // namespace

const Json* Json::Find(const std::string& key) const {
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

bool ParseJson(const std::string& text, Json* out, std::string* error) {
  Parser p(text);
  *out = Json();
  if (p.Document(out)) return true;
  if (error != nullptr) *error = p.error;
  return false;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream ss;
  ss << std::setprecision(17) << v;
  return ss.str();
}

}  // namespace perfbench
