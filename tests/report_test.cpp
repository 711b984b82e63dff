// Round-trips the JSON bench-report emitter (core/report.h): a report is
// serialized, re-parsed by a minimal JSON parser, and every field compared
// against the source. Also covers string escaping, integral-vs-float number
// formatting, empty containers, and the write_json file path.

#include "core/report.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "test_common.h"

namespace rhtm::test {
namespace {

// ------------------------------------------------- a minimal JSON parser --
// Just enough JSON (objects, arrays, strings, numbers, literals) to parse
// the emitter's own output. Throws std::runtime_error on malformed input.

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;  // preserves order

  [[nodiscard]] const JsonValue* get(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    if (pos_ != s_.size()) throw std::runtime_error("trailing garbage");
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) ++pos_;
  }

  char peek() {
    skip_ws();
    if (pos_ >= s_.size()) throw std::runtime_error("unexpected end");
    return s_[pos_];
  }

  void expect(char c) {
    if (peek() != c) throw std::runtime_error(std::string("expected ") + c);
    ++pos_;
  }

  JsonValue value() {
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': {
        JsonValue v;
        v.kind = JsonValue::Kind::kString;
        v.string = string();
        return v;
      }
      case 't':
      case 'f': {
        JsonValue v;
        v.kind = JsonValue::Kind::kBool;
        v.boolean = s_[pos_] == 't';
        pos_ += v.boolean ? 4 : 5;
        return v;
      }
      case 'n': {
        pos_ += 4;
        return {};
      }
      default: return number();
    }
  }

  JsonValue object() {
    expect('{');
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      std::string key = (peek(), string());
      expect(':');
      v.object.emplace_back(std::move(key), value());
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue array() {
    expect('[');
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.array.push_back(value());
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\') {
        if (pos_ >= s_.size()) throw std::runtime_error("bad escape");
        const char e = s_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (pos_ + 4 > s_.size()) throw std::runtime_error("bad \\u");
            const unsigned code = static_cast<unsigned>(
                std::stoul(s_.substr(pos_, 4), nullptr, 16));
            pos_ += 4;
            if (code > 0x7f) throw std::runtime_error("non-ascii \\u unsupported");
            out += static_cast<char>(code);
            break;
          }
          default: throw std::runtime_error("bad escape char");
        }
      } else {
        out += c;
      }
    }
    if (pos_ >= s_.size()) throw std::runtime_error("unterminated string");
    ++pos_;  // closing quote
    return out;
  }

  JsonValue number() {
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) || s_[pos_] == '-' ||
            s_[pos_] == '+' || s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) throw std::runtime_error("bad number");
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    v.number = std::stod(s_.substr(start, pos_ - start));
    return v;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

// ------------------------------------------------------------------ tests --

report::BenchReport sample_report() {
  report::BenchReport rep;
  rep.scenario = "report_test_scenario";
  rep.substrate = "sim";
  rep.seconds = 0.01;
  rep.wall_seconds = 1.5;
  rep.set_meta("workload", "unit \"quoted\" \\ and\nnewline\ttab");
  rep.set_meta("write_percent", "20");

  report::TableData& sweep = rep.add_table("sweep table");
  report::SeriesData& htm = sweep.add_series("HTM");
  htm.add_point(1).set("total_ops", 12345).set("abort_ratio", 0.0625);
  htm.add_point(2).set("total_ops", 9007199254740992.0).set("abort_ratio", 0.5);
  report::SeriesData& tl2 = sweep.add_series("TL2");
  tl2.add_point(1).set("total_ops", 42);

  report::TableData& wide = rep.add_table("wide table", report::TableStyle::kWide,
                                          "tx_words", "fast_pct");
  wide.add_series("RH1").add_point(32).set("fast_pct", 99.125).set("rh2_pct", 0);

  // Open-loop service shape: latency percentiles, drop accounting and
  // offered-vs-achieved rate, fractional and integral mixed.
  report::TableData& open = rep.add_table("open-loop table", report::TableStyle::kSweep,
                                          "offered_rate", "achieved_per_sec");
  open.add_series("RH1-Fast")
      .add_point(20000)
      .set("offered_per_sec", 19987.25)
      .set("achieved_per_sec", 19501.5)
      .set("drop_rate", 0.0243)
      .set("p50_us", 12.5)
      .set("p99_us", 181.375)
      .set("p999_us", 905.0)
      .set("dropped", 486);
  return rep;
}

void expect_number(const JsonValue& v, double want) {
  CHECK(v.kind == JsonValue::Kind::kNumber);
  CHECK(v.number == want);
}

void expect_string(const JsonValue* v, const std::string& want) {
  CHECK(v != nullptr);
  if (v != nullptr) {
    CHECK(v->kind == JsonValue::Kind::kString);
    CHECK(v->string == want);
  }
}

void test_roundtrip() {
  const report::BenchReport rep = sample_report();
  const std::string json = rep.to_json();
  JsonValue root;
  try {
    root = JsonParser(json).parse();
  } catch (const std::exception& e) {
    std::printf("    parse error: %s\n%s\n", e.what(), json.c_str());
    CHECK(false);
    return;
  }

  expect_string(root.get("schema"), report::kSchemaId);
  expect_string(root.get("scenario"), rep.scenario);
  expect_string(root.get("substrate"), rep.substrate);
  expect_number(*root.get("seconds"), rep.seconds);
  expect_number(*root.get("wall_seconds"), rep.wall_seconds);

  const JsonValue* meta = root.get("meta");
  CHECK(meta != nullptr && meta->kind == JsonValue::Kind::kObject);
  CHECK_EQ(meta->object.size(), rep.meta.size());
  for (const auto& [k, v] : rep.meta) expect_string(meta->get(k), v);

  const JsonValue* tables = root.get("tables");
  CHECK(tables != nullptr && tables->kind == JsonValue::Kind::kArray);
  CHECK_EQ(tables->array.size(), rep.tables.size());
  for (std::size_t t = 0; t < rep.tables.size(); ++t) {
    const report::TableData& want = rep.tables[t];
    const JsonValue& got = tables->array[t];
    expect_string(got.get("title"), want.title);
    expect_string(got.get("x"), want.x_name);
    expect_string(got.get("primary_metric"), want.primary_metric);
    expect_string(got.get("style"),
                  want.style == report::TableStyle::kSweep ? "sweep" : "wide");
    const JsonValue* series = got.get("series");
    CHECK(series != nullptr && series->kind == JsonValue::Kind::kArray);
    CHECK_EQ(series->array.size(), want.series.size());
    for (std::size_t s = 0; s < want.series.size(); ++s) {
      const report::SeriesData& ws = want.series[s];
      const JsonValue& gs = series->array[s];
      expect_string(gs.get("name"), ws.name);
      const JsonValue* points = gs.get("points");
      CHECK(points != nullptr && points->kind == JsonValue::Kind::kArray);
      CHECK_EQ(points->array.size(), ws.points.size());
      for (std::size_t p = 0; p < ws.points.size(); ++p) {
        const report::Point& wp = ws.points[p];
        const JsonValue& gp = points->array[p];
        expect_number(*gp.get("x"), wp.x);
        const JsonValue* metrics = gp.get("metrics");
        CHECK(metrics != nullptr && metrics->kind == JsonValue::Kind::kObject);
        CHECK_EQ(metrics->object.size(), wp.metrics.size());
        for (const report::Metric& m : wp.metrics) {
          const JsonValue* gm = metrics->get(m.name);
          CHECK(gm != nullptr);
          if (gm != nullptr) expect_number(*gm, m.value);
        }
      }
    }
  }
}

void test_integral_formatting() {
  // Integral doubles must serialize without a decimal point so the JSON
  // totals are textually identical to the printed table's %lld cells.
  std::string out;
  report::json_number(out, 123456789.0);
  CHECK(out == "123456789");
  out.clear();
  report::json_number(out, 0.0625);
  CHECK(out == "0.0625");
  out.clear();
  report::json_number(out, -17.0);
  CHECK(out == "-17");
  out.clear();
  report::json_number(out, std::nan(""));
  CHECK(out == "0");  // JSON cannot carry NaN; degrade deterministically
}

void test_escaping() {
  std::string out;
  report::json_escape(out, "a\"b\\c\nd\te\x01" "f");
  CHECK(out == "\"a\\\"b\\\\c\\nd\\te\\u0001f\"");
}

void test_empty_report() {
  report::BenchReport rep;
  rep.scenario = "empty";
  rep.substrate = "emul";
  const JsonValue root = JsonParser(rep.to_json()).parse();
  const JsonValue* tables = root.get("tables");
  CHECK(tables != nullptr && tables->kind == JsonValue::Kind::kArray);
  CHECK(tables->array.empty());
  const JsonValue* meta = root.get("meta");
  CHECK(meta != nullptr && meta->object.empty());
}

void test_write_json_file() {
  const report::BenchReport rep = sample_report();
  const std::string path = rep.write_json(".");
  CHECK(path == "./BENCH_report_test_scenario.json");
  std::FILE* f = std::fopen(path.c_str(), "rb");
  CHECK(f != nullptr);
  if (f != nullptr) {
    std::string content;
    char buf[4096];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) content.append(buf, n);
    std::fclose(f);
    CHECK(content == rep.to_json());
  }
  std::remove(path.c_str());
}

void test_open_loop_fields_roundtrip() {
  // The service scenario's tail-latency fields must survive the JSON path
  // bit-exactly: fractional microsecond percentiles and sub-1 drop rates
  // are where a %g/precision regression would silently corrupt the gate.
  const report::BenchReport rep = sample_report();
  const JsonValue root = JsonParser(rep.to_json()).parse();
  const JsonValue* tables = root.get("tables");
  CHECK(tables != nullptr && tables->array.size() == 3);
  const JsonValue& open = tables->array[2];
  expect_string(open.get("x"), "offered_rate");
  expect_string(open.get("primary_metric"), "achieved_per_sec");
  const JsonValue& point = open.get("series")->array[0].get("points")->array[0];
  const JsonValue* metrics = point.get("metrics");
  CHECK(metrics != nullptr);
  expect_number(*metrics->get("offered_per_sec"), 19987.25);
  expect_number(*metrics->get("achieved_per_sec"), 19501.5);
  expect_number(*metrics->get("drop_rate"), 0.0243);
  expect_number(*metrics->get("p50_us"), 12.5);
  expect_number(*metrics->get("p99_us"), 181.375);
  expect_number(*metrics->get("p999_us"), 905.0);
  expect_number(*metrics->get("dropped"), 486);
}

void test_point_set_overwrites() {
  report::Point p;
  p.set("total_ops", 1).set("total_ops", 2);
  CHECK_EQ(p.metrics.size(), 1u);
  CHECK(*p.find("total_ops") == 2);
  CHECK(p.find("missing") == nullptr);
}

void test_timeline_roundtrip() {
  // An empty timeline (--timeline off, the default) must emit NO field at
  // all — the schema stays byte-identical for older readers.
  report::BenchReport rep = sample_report();
  CHECK(rep.to_json().find("\"timeline\"") == std::string::npos);

  report::Point& p0 = rep.timeline.emplace_back();
  p0.x = 0.25;
  p0.set("ops_per_sec", 120000.5).set("abort_rate", 0.125).set("queue_depth", 17);
  report::Point& p1 = rep.timeline.emplace_back();
  p1.x = 0.5;
  p1.set("ops_per_sec", 98000).set("commits_rh1_fast", 24500);

  const JsonValue root = JsonParser(rep.to_json()).parse();
  const JsonValue* timeline = root.get("timeline");
  CHECK(timeline != nullptr && timeline->kind == JsonValue::Kind::kArray);
  CHECK_EQ(timeline->array.size(), rep.timeline.size());
  for (std::size_t i = 0; i < rep.timeline.size(); ++i) {
    const report::Point& want = rep.timeline[i];
    const JsonValue& got = timeline->array[i];
    expect_number(*got.get("t"), want.x);
    const JsonValue* metrics = got.get("metrics");
    CHECK(metrics != nullptr && metrics->kind == JsonValue::Kind::kObject);
    CHECK_EQ(metrics->object.size(), want.metrics.size());
    for (const report::Metric& m : want.metrics) {
      const JsonValue* gm = metrics->get(m.name);
      CHECK(gm != nullptr);
      if (gm != nullptr) expect_number(*gm, m.value);
    }
  }
  // The tables array must be untouched by the timeline's presence.
  const JsonValue* tables = root.get("tables");
  CHECK(tables != nullptr && tables->array.size() == rep.tables.size());
}

}  // namespace
}  // namespace rhtm::test

int main() {
  using rhtm::test::TestCase;
  return rhtm::test::run_tests({
      {"roundtrip", rhtm::test::test_roundtrip},
      {"integral_formatting", rhtm::test::test_integral_formatting},
      {"escaping", rhtm::test::test_escaping},
      {"empty_report", rhtm::test::test_empty_report},
      {"write_json_file", rhtm::test::test_write_json_file},
      {"open_loop_fields_roundtrip", rhtm::test::test_open_loop_fields_roundtrip},
      {"point_set_overwrites", rhtm::test::test_point_set_overwrites},
      {"timeline_roundtrip", rhtm::test::test_timeline_roundtrip},
  });
}
