#ifndef PERFBENCH_JSON_H_
#define PERFBENCH_JSON_H_
// A small JSON reader of the benchmark's own, for the program's run reports
// and the server's response lines. It shares no code with the program's
// serializer, so a response that the program writes wrongly and reads back
// the same wrong way still fails the checks.

#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Json {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Json> array;
  std::vector<std::pair<std::string, Json>> object;

  /// Member `key` of an object; null when absent or not an object.
  const Json* Find(const std::string& key) const;
};

/// Parses one JSON document (surrounding whitespace allowed). On failure
/// returns false and says why in `error`.
bool ParseJson(const std::string& text, Json* out, std::string* error);

/// Formats a double with round-trip precision.
std::string JsonNumber(double v);

}  // namespace perfbench

#endif  // PERFBENCH_JSON_H_
