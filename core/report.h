#pragma once

// Machine-readable bench reporting: the data model every scenario fills and
// the emitter that renders it twice — once as the paper-style human table
// and once as `BENCH_<scenario>.json` so CI can diff runs and accumulate a
// performance trajectory. Both renderings read the *same* stored points, so
// the printed table and the JSON can never disagree.
//
// JSON schema (documented field-by-field in docs/BENCHMARKS.md):
//
//   {
//     "schema": "rhtm-bench-report/v1",
//     "scenario": "fig1_rbtree",
//     "substrate": "emul" | "sim" | "mixed",
//     "seconds": 0.01,                  // per-point measurement time
//     "wall_seconds": 1.23,             // whole-scenario wall clock
//     "meta": { "workload": "...", ... },
//     "tables": [
//       {
//         "title": "...",
//         "style": "sweep" | "wide",
//         "x": "threads",
//         "primary_metric": "total_ops",
//         "series": [
//           { "name": "HTM",
//             "points": [ { "x": 1, "metrics": { "total_ops": 123, ... } } ] }
//         ]
//       }
//     ]
//   }
//
// Metric values are doubles; integral values (total_ops, commit counts)
// serialize without a decimal point, so per-thread totals in the JSON are
// bit-identical to the printed table.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace rhtm::report {

inline constexpr const char* kSchemaId = "rhtm-bench-report/v1";

// ------------------------------------------------------------------- JSON --

/// Appends `s` to `out` as a JSON string literal (quotes included).
inline void json_escape(std::string& out, std::string_view s) {
  out += '"';
  for (const char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(ch));
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  out += '"';
}

/// Appends `v` as a JSON number: integral values print exactly (no decimal
/// point), everything else with enough digits to round-trip a double.
/// Non-finite values (which JSON cannot carry) degrade to 0.
inline void json_number(std::string& out, double v) {
  char buf[40];
  if (!std::isfinite(v)) {
    out += '0';
    return;
  }
  if (v == std::floor(v) && std::fabs(v) <= 9.0e15) {
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof buf, "%.17g", v);
  }
  out += buf;
}

// ------------------------------------------------------------- data model --

/// One named measurement attached to a point (total_ops, abort_ratio, ...).
struct Metric {
  std::string name;
  double value = 0;
};

/// One measured point of one series: an x-axis value plus its metrics.
struct Point {
  double x = 0;
  std::vector<Metric> metrics;

  Point& set(std::string name, double value) {
    for (Metric& m : metrics) {
      if (m.name == name) {
        m.value = value;
        return *this;
      }
    }
    metrics.push_back({std::move(name), value});
    return *this;
  }

  [[nodiscard]] const double* find(std::string_view name) const {
    for (const Metric& m : metrics) {
      if (m.name == name) return &m.value;
    }
    return nullptr;
  }
};

struct SeriesData {
  std::string name;
  std::vector<Point> points;

  Point& add_point(double x) {
    points.emplace_back();
    points.back().x = x;
    return points.back();
  }
};

/// How the human rendering lays the table out. The JSON is identical.
enum class TableStyle {
  kSweep,  ///< rows = x values, one column per series, cell = primary metric
  kWide,   ///< one row per (series, point), one column per metric
};

struct TableData {
  std::string title;
  std::string x_name = "threads";
  std::string primary_metric = "total_ops";
  TableStyle style = TableStyle::kSweep;
  // Deque, not vector: scenarios hold the SeriesData& returned by
  // add_series while registering further series, so references must
  // survive growth. (Point& from add_point is NOT stable across the next
  // add_point on the same series — fill each point before adding another.)
  std::deque<SeriesData> series;

  SeriesData& add_series(std::string name) {
    series.push_back({std::move(name), {}});
    return series.back();
  }

  [[nodiscard]] const SeriesData* find_series(std::string_view name) const {
    for (const SeriesData& s : series) {
      if (s.name == name) return &s;
    }
    return nullptr;
  }

  void print() const {
    if (style == TableStyle::kSweep) {
      print_sweep();
    } else {
      print_wide();
    }
  }

 private:
  /// The paper-style matrix: primary metric per (x, series), plus the abort
  /// ratios as a trailing comment block when the points carry them.
  void print_sweep() const {
    std::printf("# %s\n", title.c_str());
    std::printf("%-8s", x_name.c_str());
    for (const SeriesData& s : series) std::printf(" %14s", s.name.c_str());
    std::printf("\n");
    std::size_t rows = 0;
    for (const SeriesData& s : series) rows = rows > s.points.size() ? rows : s.points.size();
    for (std::size_t row = 0; row < rows; ++row) {
      double x = 0;
      for (const SeriesData& s : series) {
        if (row < s.points.size()) {
          x = s.points[row].x;
          break;
        }
      }
      print_axis_value(x);
      for (const SeriesData& s : series) {
        if (row < s.points.size()) {
          const double* v = s.points[row].find(primary_metric);
          print_cell(v != nullptr ? *v : 0.0);
        }
      }
      std::printf("\n");
    }
    bool any_abort_ratio = false;
    for (const SeriesData& s : series) {
      for (const Point& p : s.points) {
        if (p.find("abort_ratio") != nullptr) any_abort_ratio = true;
      }
    }
    if (any_abort_ratio) {
      std::printf("# abort ratios:\n");
      for (const SeriesData& s : series) {
        std::printf("#   %-14s", s.name.c_str());
        for (const Point& p : s.points) {
          const double* r = p.find("abort_ratio");
          std::printf(" %5.2f", r != nullptr ? *r : 0.0);
        }
        std::printf("\n");
      }
    }
  }

  /// One row per (series, point); columns = the union of metric names in
  /// first-seen order. Used by the breakdown/ablation/micro scenarios.
  void print_wide() const {
    std::printf("# %s\n", title.c_str());
    std::vector<std::string> columns;
    for (const SeriesData& s : series) {
      for (const Point& p : s.points) {
        for (const Metric& m : p.metrics) {
          bool seen = false;
          for (const std::string& c : columns) {
            if (c == m.name) seen = true;
          }
          if (!seen) columns.push_back(m.name);
        }
      }
    }
    std::printf("%-16s %-10s", "series", x_name.c_str());
    for (const std::string& c : columns) std::printf(" %14s", c.c_str());
    std::printf("\n");
    for (const SeriesData& s : series) {
      for (const Point& p : s.points) {
        std::printf("%-16s", s.name.c_str());
        print_axis_value(p.x, 10);
        for (const std::string& c : columns) {
          const double* v = p.find(c);
          print_cell(v != nullptr ? *v : 0.0);
        }
        std::printf("\n");
      }
    }
  }

  static void print_axis_value(double x, int width = 8) {
    if (x == std::floor(x)) {
      std::printf("%-*lld", width, static_cast<long long>(x));
    } else {
      std::printf("%-*.3g", width, x);
    }
  }

  static void print_cell(double v) {
    if (v == std::floor(v) && std::fabs(v) <= 9.0e15) {
      std::printf(" %14lld", static_cast<long long>(v));
    } else {
      std::printf(" %14.3f", v);
    }
  }
};

struct BenchReport {
  std::string scenario;
  std::string substrate;  ///< "emul", "sim", or "mixed" (scenario-pinned parts)
  double seconds = 0;     ///< per-point measurement time the run used
  double wall_seconds = 0;  ///< filled by the registry runner
  std::vector<std::pair<std::string, std::string>> meta;
  std::deque<TableData> tables;  ///< deque: add_table references stay valid
  /// Interval snapshots from the metrics sampler (core/timeseries.h):
  /// x = seconds since sampling started, metrics = per-interval rates and
  /// cumulative totals. Empty (the default, --timeline off) emits no JSON
  /// field at all, so the schema stays byte-compatible with older readers.
  std::vector<Point> timeline;

  TableData& add_table(std::string title, TableStyle style = TableStyle::kSweep,
                       std::string x_name = "threads",
                       std::string primary_metric = "total_ops") {
    tables.emplace_back();
    TableData& t = tables.back();
    t.title = std::move(title);
    t.style = style;
    t.x_name = std::move(x_name);
    t.primary_metric = std::move(primary_metric);
    return t;
  }

  void set_meta(std::string key, std::string value) {
    for (auto& [k, v] : meta) {
      if (k == key) {
        v = std::move(value);
        return;
      }
    }
    meta.emplace_back(std::move(key), std::move(value));
  }

  void print() const {
    for (std::size_t i = 0; i < tables.size(); ++i) {
      if (i != 0) std::printf("\n");
      tables[i].print();
    }
  }

  [[nodiscard]] std::string to_json() const {
    std::string out;
    out.reserve(4096);
    out += "{\n  \"schema\": ";
    json_escape(out, kSchemaId);
    out += ",\n  \"scenario\": ";
    json_escape(out, scenario);
    out += ",\n  \"substrate\": ";
    json_escape(out, substrate);
    out += ",\n  \"seconds\": ";
    json_number(out, seconds);
    out += ",\n  \"wall_seconds\": ";
    json_number(out, wall_seconds);
    out += ",\n  \"meta\": {";
    for (std::size_t i = 0; i < meta.size(); ++i) {
      out += i == 0 ? "\n" : ",\n";
      out += "    ";
      json_escape(out, meta[i].first);
      out += ": ";
      json_escape(out, meta[i].second);
    }
    out += meta.empty() ? "},\n" : "\n  },\n";
    if (!timeline.empty()) {
      out += "  \"timeline\": [";
      for (std::size_t p = 0; p < timeline.size(); ++p) {
        const Point& point = timeline[p];
        out += p == 0 ? "\n" : ",\n";
        out += "    { \"t\": ";
        json_number(out, point.x);
        out += ", \"metrics\": {";
        for (std::size_t m = 0; m < point.metrics.size(); ++m) {
          out += m == 0 ? " " : ", ";
          json_escape(out, point.metrics[m].name);
          out += ": ";
          json_number(out, point.metrics[m].value);
        }
        out += " } }";
      }
      out += "\n  ],\n";
    }
    out += "  \"tables\": [";
    for (std::size_t t = 0; t < tables.size(); ++t) {
      const TableData& table = tables[t];
      out += t == 0 ? "\n" : ",\n";
      out += "    {\n      \"title\": ";
      json_escape(out, table.title);
      out += ",\n      \"style\": ";
      json_escape(out, table.style == TableStyle::kSweep ? "sweep" : "wide");
      out += ",\n      \"x\": ";
      json_escape(out, table.x_name);
      out += ",\n      \"primary_metric\": ";
      json_escape(out, table.primary_metric);
      out += ",\n      \"series\": [";
      for (std::size_t s = 0; s < table.series.size(); ++s) {
        const SeriesData& series = table.series[s];
        out += s == 0 ? "\n" : ",\n";
        out += "        { \"name\": ";
        json_escape(out, series.name);
        out += ", \"points\": [";
        for (std::size_t p = 0; p < series.points.size(); ++p) {
          const Point& point = series.points[p];
          out += p == 0 ? "\n" : ",\n";
          out += "          { \"x\": ";
          json_number(out, point.x);
          out += ", \"metrics\": {";
          for (std::size_t m = 0; m < point.metrics.size(); ++m) {
            out += m == 0 ? " " : ", ";
            json_escape(out, point.metrics[m].name);
            out += ": ";
            json_number(out, point.metrics[m].value);
          }
          out += " } }";
        }
        out += series.points.empty() ? "] }" : "\n        ] }";
      }
      out += table.series.empty() ? "]\n    }" : "\n      ]\n    }";
    }
    out += tables.empty() ? "]\n}\n" : "\n  ]\n}\n";
    return out;
  }

  /// Writes `<dir>/BENCH_<scenario>.json`; returns the path, or "" on error.
  [[nodiscard]] std::string write_json(const std::string& dir) const {
    const std::string path =
        (dir.empty() ? std::string(".") : dir) + "/BENCH_" + scenario + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return "";
    const std::string body = to_json();
    const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
    std::fclose(f);
    return ok ? path : "";
  }
};

}  // namespace rhtm::report
