// The repo's one JSON layer: a small document value type with a strict
// parser and a writer, shared by every surface that speaks JSON — the
// campaign report (CampaignReport::json()), the scenario files
// (scenarios/serialize), the job API (api::Job / api::JobResult), the
// perfbench harness, and the `pte` CLI.  It replaces
// the hand-rolled string assembly (and its per-binary json_escape
// copies) that used to live in each of those places.
//
// Numbers keep their integer identity: values parsed without a fraction
// or exponent are stored exactly as int64/uint64 (seeds and state counts
// survive the round trip bit-for-bit), everything else as double.  The
// writer renders doubles with the shortest representation that parses
// back to the same value, and — deliberately — emits `null` for NaN and
// infinities: "runs_per_second": nan is not JSON, and a consumer is
// better served by an explicit null than by a parse error.
//
// The parser is strict (no comments, no trailing commas, no garbage
// after the document), reports 1-based line:column positions in every
// JsonError, and bounds nesting depth so adversarial input fails cleanly
// instead of overflowing the stack.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace ptecps::util {

/// Parse and access errors.  `line`/`column` are 1-based and only set by
/// the parser (0 for shape errors raised by the accessors).
class JsonError : public std::runtime_error {
 public:
  explicit JsonError(const std::string& message, std::size_t line = 0,
                     std::size_t column = 0);
  std::size_t line() const { return line_; }
  std::size_t column() const { return column_; }

 private:
  std::size_t line_ = 0;
  std::size_t column_ = 0;
};

class Json {
 public:
  enum class Type { kNull, kBool, kInt, kUint, kDouble, kString, kArray, kObject };
  using Array = std::vector<Json>;
  /// Objects preserve insertion order (reports stay diffable); lookup is
  /// linear — documents here are small.
  using Member = std::pair<std::string, Json>;
  using Object = std::vector<Member>;

  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}
  Json(bool b) : value_(b) {}
  Json(double d) : value_(d) {}
  Json(int i) : value_(static_cast<std::int64_t>(i)) {}
  Json(long i) : value_(static_cast<std::int64_t>(i)) {}
  Json(long long i) : value_(static_cast<std::int64_t>(i)) {}
  Json(unsigned u) : value_(static_cast<std::uint64_t>(u)) {}
  Json(unsigned long u) : value_(static_cast<std::uint64_t>(u)) {}
  Json(unsigned long long u) : value_(static_cast<std::uint64_t>(u)) {}
  Json(const char* s) : value_(std::string(s)) {}
  Json(std::string s) : value_(std::move(s)) {}
  Json(std::string_view s) : value_(std::string(s)) {}
  Json(Array a) : value_(std::move(a)) {}
  Json(Object o) : value_(std::move(o)) {}

  static Json array() { return Json(Array{}); }
  static Json object() { return Json(Object{}); }

  Type type() const;
  /// "null", "bool", "number", "string", "array", "object" — for errors.
  std::string type_name() const;

  bool is_null() const { return type() == Type::kNull; }
  bool is_bool() const { return type() == Type::kBool; }
  bool is_number() const {
    const Type t = type();
    return t == Type::kInt || t == Type::kUint || t == Type::kDouble;
  }
  bool is_string() const { return type() == Type::kString; }
  bool is_array() const { return type() == Type::kArray; }
  bool is_object() const { return type() == Type::kObject; }

  // -- accessors (throw JsonError naming the actual type on mismatch) ------
  bool as_bool() const;
  /// Any number, integers coerced.
  double as_double() const;
  /// Integral numbers only (a double with a fractional part or an
  /// out-of-range value throws).
  std::int64_t as_int() const;
  std::uint64_t as_uint() const;
  const std::string& as_string() const;
  const Array& as_array() const;
  Array& as_array();
  const Object& as_object() const;
  Object& as_object();

  // -- building ------------------------------------------------------------
  /// Append (or replace) a member; `*this` must be an object.
  Json& set(std::string key, Json value);
  /// Append an element; `*this` must be an array.
  Json& push_back(Json value);

  // -- object lookup -------------------------------------------------------
  /// nullptr when `*this` is not an object or lacks the key.
  const Json* find(std::string_view key) const;
  /// Member that must exist (throws JsonError naming the key otherwise).
  const Json& at(std::string_view key) const;

  /// Structural equality; numbers compare by VALUE across the int /
  /// uint / double representations (Json(1) == parse("1") even though
  /// the parser stores non-negative integers as uint).
  bool operator==(const Json& other) const;

  // -- text ----------------------------------------------------------------
  /// Strict parse of exactly one document (trailing non-space → error).
  static Json parse(std::string_view text);
  /// indent < 0: compact one-liner; indent >= 0: pretty-printed with that
  /// many spaces per level and a trailing newline at top level.
  std::string dump(int indent = -1) const;

  /// Canonical rendering for content addressing: object keys sorted by
  /// byte value, no insignificant whitespace (`{"a":1,"b":[2,3]}`), and
  /// the writer's usual shortest-round-trip doubles.  Two documents that
  /// are structurally equal (key order, whitespace, and float spelling
  /// aside) canonicalize to identical bytes — the form the scenario
  /// digest hashes.
  std::string dump_canonical() const;

  /// JSON string-escape `s` (no surrounding quotes).
  static std::string escape(std::string_view s);

 private:
  void dump_to(std::string& out, int indent, int depth) const;
  void dump_canonical_to(std::string& out, int depth) const;

  std::variant<std::nullptr_t, bool, std::int64_t, std::uint64_t, double, std::string,
               Array, Object>
      value_;
};

/// Strict schema reading over one Json object: typed getters mark their
/// key consumed (absent keys return the fallback), every error names the
/// path it happened at ("scenario.loss.p: expected number, got string"),
/// and finish() rejects leftover keys — a typo'd document fails loudly
/// instead of silently running defaults.  Shared by the scenario-file
/// and job readers.
class JsonReader {
 public:
  /// Throws JsonError unless `j` is an object.  `j` must outlive the
  /// reader.  `context` prefixes every diagnostic.
  JsonReader(const Json& j, std::string context);

  /// nullptr when absent; marks the key consumed either way.
  const Json* optional(std::string_view key);

  double number(std::string_view key, double fallback);
  bool boolean(std::string_view key, bool fallback);
  std::uint64_t uinteger(std::string_view key, std::uint64_t fallback);
  std::string string(std::string_view key, std::string fallback);

  [[noreturn]] void fail(std::string_view key, const std::string& message) const;

  /// Throws JsonError listing any key no getter consumed.
  void finish() const;

  const std::string& context() const { return context_; }

 private:
  template <typename T, typename Fn>
  T get(std::string_view key, T fallback, Fn convert);

  const Json::Object* members_ = nullptr;
  std::string context_;
  std::vector<bool> consumed_;
};

}  // namespace ptecps::util
