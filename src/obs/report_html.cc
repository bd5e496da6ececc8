#include "obs/report_html.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>
#include <sstream>
#include <vector>

#include "obs/trace.h"
#include "support/string_util.h"

namespace mlsc::obs {

namespace {

// Categorical palette (validated for adjacent-pair CVD separation and
// normal-vision distance in both modes; the light-mode contrast warning
// on slots 3/4/5 is relieved by the data-table view under each chart).
// Slot order is the stall-category stacking order.
struct Category {
  const char* name;
  const char* css;  // CSS custom property carrying the slot color
};
constexpr Category kStallCategories[] = {
    {"compute", "--series-1"},  {"l1 hit", "--series-2"},
    {"l2 hit", "--series-3"},   {"l3 hit", "--series-4"},
    {"peer hit", "--series-5"}, {"disk", "--series-6"},
    {"sync wait", "--series-7"},
};
constexpr std::size_t kNumCategories =
    sizeof(kStallCategories) / sizeof(kStallCategories[0]);

std::string html_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '&':
        out += "&amp;";
        break;
      case '<':
        out += "&lt;";
        break;
      case '>':
        out += "&gt;";
        break;
      case '"':
        out += "&quot;";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

std::string pct(double fraction) {
  return format_double(std::max(0.0, std::min(1.0, fraction)) * 100.0, 2);
}

const char* kStyle = R"css(
:root {
  color-scheme: light;
  --surface-1: #fcfcfb; --surface-2: #f0efec;
  --text-primary: #0b0b0b; --text-secondary: #52514e;
  --grid: #dddcd8;
  --series-1: #2a78d6; --series-2: #eb6834; --series-3: #1baf7a;
  --series-4: #eda100; --series-5: #e87ba4; --series-6: #008300;
  --series-7: #4a3aa7;
}
@media (prefers-color-scheme: dark) {
  :root {
    color-scheme: dark;
    --surface-1: #1a1a19; --surface-2: #383835;
    --text-primary: #ffffff; --text-secondary: #c3c2b7;
    --grid: #44433f;
    --series-1: #3987e5; --series-2: #d95926; --series-3: #199e70;
    --series-4: #c98500; --series-5: #d55181; --series-6: #008300;
    --series-7: #9085e9;
  }
}
body {
  background: var(--surface-1); color: var(--text-primary);
  font: 14px/1.5 system-ui, sans-serif; margin: 2rem auto;
  max-width: 64rem; padding: 0 1rem;
}
h1 { font-size: 1.4rem; }
h2 { font-size: 1.1rem; margin-top: 2rem; border-bottom: 1px solid var(--grid); padding-bottom: .3rem; }
p.subtitle { color: var(--text-secondary); margin-top: -.5rem; }
table { border-collapse: collapse; margin: .8rem 0; }
th, td { border: 1px solid var(--grid); padding: .25rem .6rem; text-align: right; }
th:first-child, td:first-child { text-align: left; }
th { background: var(--surface-2); }
.bar-row { display: flex; align-items: center; gap: .6rem; margin: 2px 0; }
.bar-label { flex: 0 0 14rem; text-align: right; color: var(--text-secondary);
  overflow: hidden; text-overflow: ellipsis; white-space: nowrap; }
.bar-track { flex: 1 1 auto; display: flex; height: 14px; }
.bar { height: 14px; border-radius: 0 4px 4px 0; background: var(--series-1); }
.seg { height: 14px; margin-right: 2px; }
.seg:first-child { border-radius: 4px 0 0 4px; }
.seg:last-child { border-radius: 0 4px 4px 0; margin-right: 0; }
.bar-value { flex: 0 0 7rem; color: var(--text-secondary); }
.legend { display: flex; flex-wrap: wrap; gap: 1rem; margin: .6rem 0; }
.legend span.swatch { display: inline-block; width: 10px; height: 10px;
  border-radius: 2px; margin-right: .35rem; }
.meta { color: var(--text-secondary); }
.curve { margin: .4rem 0 1rem; }
.curve svg { display: block; }
.heat { display: grid; gap: 1px; margin: .6rem 0 1rem; width: max-content; }
.heat span { width: 8px; height: 8px; display: block;
  background: var(--surface-2); }
)css";

void bar_section(std::ostream& out, const std::string& id,
                 const std::string& heading,
                 const std::vector<std::pair<std::string, double>>& items,
                 const std::string& unit) {
  if (items.empty()) return;
  double max_value = 0.0;
  for (const auto& [name, value] : items) {
    max_value = std::max(max_value, value);
  }
  out << "<section id=\"" << id << "\">\n<h2>" << html_escape(heading)
      << "</h2>\n";
  for (const auto& [name, value] : items) {
    const double frac = max_value > 0.0 ? value / max_value : 0.0;
    out << "<div class=\"bar-row\"><span class=\"bar-label\">"
        << html_escape(name) << "</span><div class=\"bar-track\">"
        << "<div class=\"bar\" style=\"width:" << pct(frac)
        << "%\" title=\"" << html_escape(name) << ": "
        << format_double(value, 3) << " " << unit
        << "\"></div></div><span class=\"bar-value\">"
        << format_double(value, 2) << " " << unit << "</span></div>\n";
  }
  out << "</section>\n";
}

void metadata_section(std::ostream& out, const JsonValue& record) {
  out << "<section id=\"metadata\">\n<h2>Run metadata</h2>\n<table>\n";
  auto row = [&](const std::string& key, const std::string& value) {
    out << "<tr><td>" << html_escape(key) << "</td><td>"
        << html_escape(value) << "</td></tr>\n";
  };
  if (const JsonValue* schema = record.find("schema")) {
    row("schema", schema->string_or(""));
  }
  if (const JsonValue* binary = record.find("binary")) {
    row("binary", binary->string_or(""));
  }
  const JsonValue* metadata = record.find("metadata");
  if (metadata != nullptr && metadata->is_object()) {
    for (const auto& [key, value] : metadata->as_object()) {
      std::string rendered;
      if (value.is_string()) {
        rendered = value.as_string();
      } else if (value.is_number()) {
        const double v = value.as_number();
        rendered = v == std::floor(v) && std::fabs(v) < 1e15
                       ? std::to_string(static_cast<long long>(v))
                       : format_double(v, 4);
      } else if (value.is_array()) {
        std::vector<std::string> parts;
        for (const JsonValue& item : value.as_array()) {
          parts.push_back(item.string_or("?"));
        }
        rendered = join(parts, ", ");
      }
      row(key, rendered);
    }
  }
  out << "</table>\n</section>\n";
}

void phases_section(std::ostream& out, const JsonValue& record) {
  const JsonValue* phases = record.find("phases");
  if (phases == nullptr || !phases->is_array()) return;
  std::vector<std::pair<std::string, double>> items;
  for (const JsonValue& phase : phases->as_array()) {
    const JsonValue* name = phase.find("name");
    const JsonValue* wall = phase.find("wall_ms");
    if (name == nullptr || wall == nullptr || !wall->is_number()) continue;
    items.emplace_back(name->string_or("?"), wall->as_number());
  }
  bar_section(out, "phases", "Phase durations", items, "ms");
}

void html_table(std::ostream& out, const JsonValue& table,
                std::size_t index) {
  const JsonValue* header = table.find("header");
  const JsonValue* rows = table.find("rows");
  if (header == nullptr || rows == nullptr || !header->is_array() ||
      !rows->is_array()) {
    return;
  }
  std::string title =
      table.find("title") != nullptr ? table.find("title")->string_or("")
                                     : "";
  if (title.empty()) title = "table " + std::to_string(index + 1);
  out << "<h3>" << html_escape(title) << "</h3>\n<table>\n<tr>";
  for (const JsonValue& cell : header->as_array()) {
    out << "<th>" << html_escape(cell.string_or("")) << "</th>";
  }
  out << "</tr>\n";
  for (const JsonValue& row : rows->as_array()) {
    out << "<tr>";
    for (const JsonValue& cell : row.as_array()) {
      out << "<td>" << html_escape(cell.string_or("")) << "</td>";
    }
    out << "</tr>\n";
  }
  out << "</table>\n";
}

/// The "% of optimal" panel: every table column named *headroom_pct
/// becomes one bar per row on an absolute 0-100 scale (100 = the run
/// moved provably-minimal bytes across that boundary).  Covers both
/// shapes the observatory emits: long-form tables with a "level" column
/// (mlsc_map, bench data-movement) and wide-form tables with
/// l1_/l2_/l3_headroom_pct columns (bench_headroom).
void headroom_section(std::ostream& out, const JsonValue& record) {
  const JsonValue* tables = record.find("tables");
  if (tables == nullptr || !tables->is_array()) return;

  std::vector<std::pair<std::string, double>> items;
  for (const JsonValue& table : tables->as_array()) {
    const JsonValue* header = table.find("header");
    const JsonValue* rows = table.find("rows");
    if (header == nullptr || rows == nullptr || !header->is_array() ||
        !rows->is_array()) {
      continue;
    }
    const auto& cols = header->as_array();
    std::vector<std::size_t> headroom_cols;
    std::size_t level_col = cols.size();
    for (std::size_t c = 0; c < cols.size(); ++c) {
      const std::string name = cols[c].string_or("");
      if (name.find("headroom_pct") != std::string::npos) {
        headroom_cols.push_back(c);
      } else if (name == "level") {
        level_col = c;
      }
    }
    if (headroom_cols.empty()) continue;

    for (const JsonValue& row : rows->as_array()) {
      const auto& cells = row.as_array();
      if (cells.empty()) continue;
      std::string base = cells[0].string_or("");
      if (level_col != cols.size() && level_col != 0 &&
          level_col < cells.size()) {
        base.append(" ").append(cells[level_col].string_or(""));
      }
      for (std::size_t c : headroom_cols) {
        if (c >= cells.size()) continue;
        const std::string cell = cells[c].string_or("");
        char* end = nullptr;
        const double value = std::strtod(cell.c_str(), &end);
        if (end == cell.c_str()) continue;  // not a number
        std::string label = base;
        const std::string col = cols[c].string_or("");
        if (col != "headroom_pct") {
          // "l2_headroom_pct" -> "... l2"
          label.append(" ").append(col, 0, col.find("_headroom_pct"));
        }
        items.emplace_back(std::move(label), value);
      }
    }
  }
  if (items.empty()) return;

  out << "<section id=\"headroom\">\n<h2>I/O headroom (% of optimal)</h2>\n"
      << "<p class=\"subtitle\">measured bytes crossing each cache "
         "boundary vs. the red-blue-pebble I/O lower bound; 100% means "
         "the run moved provably-minimal data</p>\n";
  for (const auto& [label, value] : items) {
    out << "<div class=\"bar-row\"><span class=\"bar-label\">"
        << html_escape(label) << "</span><div class=\"bar-track\">"
        << "<div class=\"bar\" style=\"width:" << pct(value / 100.0)
        << "%\" title=\"" << html_escape(label) << ": "
        << format_double(value, 2) << "% of optimal\"></div></div>"
        << "<span class=\"bar-value\">" << format_double(value, 1)
        << "%</span></div>\n";
  }
  out << "</section>\n";
}

/// The "Explain" panel (DESIGN.md §18), rendered from the record's
/// "insight" section: per-level miss classification as stacked bars,
/// miss-vs-capacity curves from the reuse-distance profiler (configured
/// capacity marked), and the inter-client eviction-attribution heatmap.
void insight_section(std::ostream& out, const JsonValue& record) {
  const JsonValue* insight = record.find("insight");
  if (insight == nullptr || !insight->is_object()) return;
  const JsonValue* levels = insight->find("levels");
  if (levels == nullptr || !levels->is_array() ||
      levels->as_array().empty()) {
    return;
  }
  const JsonValue* clients = insight->find("num_clients");
  const std::size_t num_clients = static_cast<std::size_t>(
      clients != nullptr ? clients->number_or(0.0) : 0.0);

  out << "<section id=\"insight\">\n<h2>Explain: why does it miss?</h2>\n"
      << "<p class=\"subtitle\">reuse-distance profiler attached to every "
         "cache in one replay: miss classes, miss-vs-capacity curves, and "
         "inter-client eviction attribution</p>\n";

  // Classification stacked bars: one bar per level, split compulsory /
  // capacity / interference.  Palette slots reuse the stall chart's
  // validated series (the data table below is the accessible fallback).
  struct MissClass {
    const char* key;
    const char* css;
  };
  constexpr MissClass kClasses[] = {
      {"compulsory", "--series-1"},
      {"capacity", "--series-4"},
      {"interference", "--series-2"},
  };
  out << "<div class=\"legend\">";
  for (const MissClass& mc : kClasses) {
    out << "<span><span class=\"swatch\" style=\"background:var(" << mc.css
        << ")\"></span>" << mc.key << "</span>";
  }
  out << "</div>\n";
  double max_misses = 0.0;
  for (const JsonValue& level : levels->as_array()) {
    const JsonValue* misses = level.find("misses");
    if (misses != nullptr) {
      max_misses = std::max(max_misses, misses->number_or(0.0));
    }
  }
  for (const JsonValue& level : levels->as_array()) {
    const std::string name =
        level.find("level") != nullptr ? level.find("level")->string_or("?")
                                       : "?";
    const double misses = level.find("misses") != nullptr
                              ? level.find("misses")->number_or(0.0)
                              : 0.0;
    out << "<div class=\"bar-row\"><span class=\"bar-label\">"
        << html_escape(name) << " (" << static_cast<long long>(misses)
        << " misses)</span><div class=\"bar-track\" style=\"width:"
        << pct(max_misses > 0.0 ? misses / max_misses : 0.0)
        << "%;flex-grow:0\">";
    for (const MissClass& mc : kClasses) {
      const JsonValue* count = level.find(mc.key);
      const double value = count != nullptr ? count->number_or(0.0) : 0.0;
      if (value <= 0.0) continue;
      out << "<span class=\"seg\" style=\"width:"
          << pct(misses > 0.0 ? value / misses : 0.0) << "%;background:var("
          << mc.css << ")\" title=\"" << html_escape(name) << " " << mc.key
          << ": " << static_cast<long long>(value) << " ("
          << format_double(misses > 0.0 ? 100.0 * value / misses : 0.0, 1)
          << "%)\"></span>";
    }
    out << "</div><span class=\"bar-value\">"
        << static_cast<long long>(misses) << "</span></div>\n";
  }

  // Miss-vs-capacity curves, one per level: the Mattson profiler's
  // predicted misses at log-spaced capacities (x log-scaled), with the
  // configured capacity marked.  Every point came from the same replay.
  for (const JsonValue& level : levels->as_array()) {
    const JsonValue* curve = level.find("curve");
    if (curve == nullptr || !curve->is_array() ||
        curve->as_array().size() < 2) {
      continue;
    }
    const std::string name =
        level.find("level") != nullptr ? level.find("level")->string_or("?")
                                       : "?";
    const double configured =
        level.find("capacity_chunks") != nullptr
            ? level.find("capacity_chunks")->number_or(0.0)
            : 0.0;
    std::vector<std::pair<double, double>> points;  // (capacity, misses)
    double max_pred = 0.0;
    for (const JsonValue& point : curve->as_array()) {
      if (!point.is_array() || point.as_array().size() != 2) continue;
      const double cap = point.as_array()[0].number_or(0.0);
      const double pred = point.as_array()[1].number_or(0.0);
      if (cap <= 0.0) continue;
      points.emplace_back(cap, pred);
      max_pred = std::max(max_pred, pred);
    }
    if (points.size() < 2 || max_pred <= 0.0) continue;
    const double log_lo = std::log(points.front().first);
    const double log_hi = std::log(points.back().first);
    if (log_hi <= log_lo) continue;
    constexpr double kW = 560.0, kH = 140.0, kPad = 8.0;
    auto x_of = [&](double cap) {
      return kPad + (kW - 2 * kPad) * (std::log(cap) - log_lo) /
                        (log_hi - log_lo);
    };
    auto y_of = [&](double pred) {
      return kH - kPad - (kH - 2 * kPad) * pred / max_pred;
    };
    out << "<h3>" << html_escape(name)
        << " misses vs. capacity (chunks, log scale)</h3>\n"
        << "<div class=\"curve\"><svg width=\"" << kW << "\" height=\""
        << kH << "\" viewBox=\"0 0 " << kW << " " << kH
        << "\" role=\"img\" aria-label=\"" << html_escape(name)
        << " miss-vs-capacity curve\">\n";
    if (configured > 0.0 && configured >= points.front().first &&
        configured <= points.back().first) {
      const double mx = x_of(configured);
      out << "<line x1=\"" << format_double(mx, 1) << "\" y1=\"" << kPad
          << "\" x2=\"" << format_double(mx, 1) << "\" y2=\"" << kH - kPad
          << "\" stroke=\"var(--series-2)\" stroke-dasharray=\"4 3\">"
          << "<title>configured capacity: "
          << static_cast<long long>(configured) << " chunks</title></line>\n";
    }
    out << "<polyline fill=\"none\" stroke=\"var(--series-1)\" "
           "stroke-width=\"2\" points=\"";
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (i != 0) out << " ";
      out << format_double(x_of(points[i].first), 1) << ","
          << format_double(y_of(points[i].second), 1);
    }
    out << "\"/>\n</svg></div>\n<p class=\"meta\">" << html_escape(name)
        << ": " << static_cast<long long>(points.front().second)
        << " misses at " << static_cast<long long>(points.front().first)
        << " chunks &rarr; " << static_cast<long long>(points.back().second)
        << " at " << static_cast<long long>(points.back().first)
        << "; dashed marker = configured ("
        << static_cast<long long>(configured) << ")</p>\n";
  }

  // Eviction-attribution heatmaps: victim rows x evictor columns, cell
  // intensity = eviction count (self-evictions included; the diagonal
  // is ordinary capacity churn, off-diagonal is interference).
  if (num_clients >= 2) {
    for (const JsonValue& level : levels->as_array()) {
      const JsonValue* matrix = level.find("eviction_matrix");
      if (matrix == nullptr || !matrix->is_array() ||
          matrix->as_array().size() != num_clients) {
        continue;
      }
      const std::string name =
          level.find("level") != nullptr
              ? level.find("level")->string_or("?")
              : "?";
      double max_count = 0.0;
      for (const JsonValue& row : matrix->as_array()) {
        if (!row.is_array()) continue;
        for (const JsonValue& cell : row.as_array()) {
          max_count = std::max(max_count, cell.number_or(0.0));
        }
      }
      if (max_count <= 0.0) continue;
      out << "<h3>" << html_escape(name)
          << " eviction attribution (rows: victim, columns: evictor)</h3>\n"
          << "<div class=\"heat\" style=\"grid-template-columns:repeat("
          << num_clients << ",8px)\">\n";
      const auto& rows = matrix->as_array();
      for (std::size_t v = 0; v < rows.size(); ++v) {
        if (!rows[v].is_array()) continue;
        const auto& cells = rows[v].as_array();
        for (std::size_t e = 0; e < cells.size(); ++e) {
          const double count = cells[e].number_or(0.0);
          if (count <= 0.0) {
            out << "<span></span>";
            continue;
          }
          out << "<span style=\"background:var(--series-2);opacity:"
              << format_double(0.15 + 0.85 * count / max_count, 3)
              << "\" title=\"client " << e << " evicted client " << v
              << " x" << static_cast<long long>(count) << "\"></span>";
        }
        out << "\n";
      }
      out << "</div>\n";
    }
  }
  out << "</section>\n";
}

void tables_section(std::ostream& out, const JsonValue& record) {
  const JsonValue* tables = record.find("tables");
  if (tables == nullptr || !tables->is_array() ||
      tables->as_array().empty()) {
    return;
  }
  out << "<section id=\"tables\">\n<h2>Result tables</h2>\n";
  const auto& array = tables->as_array();
  for (std::size_t i = 0; i < array.size(); ++i) {
    html_table(out, array[i], i);
  }
  out << "</section>\n";
}

void histogram_chart(std::ostream& out, const std::string& name,
                     const JsonValue& hist) {
  const JsonValue* bounds = hist.find("bounds");
  const JsonValue* counts = hist.find("counts");
  if (bounds == nullptr || counts == nullptr || !bounds->is_array() ||
      !counts->is_array()) {
    return;
  }
  const auto& bound_array = bounds->as_array();
  const auto& count_array = counts->as_array();
  std::vector<std::pair<std::string, double>> items;
  for (std::size_t i = 0; i < count_array.size(); ++i) {
    const std::string label =
        i < bound_array.size()
            ? "&le; " + format_double(bound_array[i].number_or(0.0), 0)
            : "overflow";
    items.emplace_back(label, count_array[i].number_or(0.0));
  }
  out << "<h3>" << html_escape(name) << "</h3>\n";
  // Empty histograms have NaN quantiles (written as JSON null): render
  // them as "—", not as a number, and skip the zero-width bucket bars.
  if (const JsonValue* quantiles = hist.find("quantiles")) {
    if (quantiles->is_object()) {
      std::vector<std::string> parts;
      for (const auto& [q, value] : quantiles->as_object()) {
        parts.push_back(q + " = " +
                        (value.is_number()
                             ? format_double(value.as_number(), 1)
                             : std::string("—")));
      }
      out << "<p class=\"meta\">" << html_escape(join(parts, ", "))
          << "</p>\n";
    }
  }
  double max_count = 0.0;
  for (const auto& [label, count] : items) {
    max_count = std::max(max_count, count);
  }
  if (max_count <= 0.0) {
    out << "<p class=\"meta\">&mdash; no observations</p>\n";
    return;
  }
  for (const auto& [label, count] : items) {
    const double frac = max_count > 0.0 ? count / max_count : 0.0;
    // Bucket labels are pre-escaped ("&le;"), so emit them raw.
    out << "<div class=\"bar-row\"><span class=\"bar-label\">" << label
        << "</span><div class=\"bar-track\"><div class=\"bar\" style=\""
        << "width:" << pct(frac) << "%\"></div></div>"
        << "<span class=\"bar-value\">"
        << static_cast<long long>(count) << "</span></div>\n";
  }
}

void metrics_section(std::ostream& out, const JsonValue& record) {
  const JsonValue* metrics = record.find("metrics");
  if (metrics == nullptr || !metrics->is_object()) return;
  out << "<section id=\"metrics\">\n<h2>Metrics</h2>\n";

  const JsonValue* counters = metrics->find("counters");
  const JsonValue* gauges = metrics->find("gauges");
  const bool have_counters = counters != nullptr && counters->is_object() &&
                             !counters->as_object().empty();
  const bool have_gauges = gauges != nullptr && gauges->is_object() &&
                           !gauges->as_object().empty();
  if (have_counters || have_gauges) {
    out << "<table>\n<tr><th>instrument</th><th>value</th></tr>\n";
    if (have_counters) {
      for (const auto& [name, value] : counters->as_object()) {
        out << "<tr><td>" << html_escape(name) << "</td><td>"
            << static_cast<long long>(value.number_or(0.0))
            << "</td></tr>\n";
      }
    }
    if (have_gauges) {
      for (const auto& [name, value] : gauges->as_object()) {
        out << "<tr><td>" << html_escape(name) << "</td><td>"
            << (value.is_number() ? format_double(value.as_number(), 4)
                                  : std::string("n/a"))
            << "</td></tr>\n";
      }
    }
    out << "</table>\n";
  }

  const JsonValue* histograms = metrics->find("histograms");
  if (histograms != nullptr && histograms->is_object()) {
    for (const auto& [name, hist] : histograms->as_object()) {
      histogram_chart(out, name, hist);
    }
  }
  out << "</section>\n";
}

void stall_section(std::ostream& out, const JsonValue& trace) {
  const JsonValue* events = trace.find("traceEvents");
  if (events == nullptr || !events->is_array()) return;

  // client index -> per-category microsecond totals.
  std::map<long long, std::vector<double>> clients;
  for (const JsonValue& event : events->as_array()) {
    const JsonValue* ph = event.find("ph");
    const JsonValue* pid = event.find("pid");
    const JsonValue* name = event.find("name");
    const JsonValue* dur = event.find("dur");
    if (ph == nullptr || pid == nullptr || name == nullptr ||
        dur == nullptr || ph->string_or("") != "X" || !pid->is_number()) {
      continue;
    }
    const long long p = static_cast<long long>(pid->as_number());
    if (p < kClientPidBase) continue;  // real-time (host) track
    auto& totals = clients[p - kClientPidBase];
    if (totals.empty()) totals.assign(kNumCategories, 0.0);
    const std::string& category = name->string_or("");
    for (std::size_t c = 0; c < kNumCategories; ++c) {
      if (category == kStallCategories[c].name) {
        totals[c] += dur->number_or(0.0);
        break;
      }
    }
  }
  if (clients.empty()) return;

  double max_total = 0.0;
  for (const auto& [client, totals] : clients) {
    double total = 0.0;
    for (double t : totals) total += t;
    max_total = std::max(max_total, total);
  }

  out << "<section id=\"stall\">\n"
      << "<h2>Per-client I/O stall breakdown</h2>\n"
      << "<p class=\"subtitle\">simulated time per client, split by where "
         "each access was served (trace-derived)</p>\n<div class=\"legend\">";
  for (const Category& category : kStallCategories) {
    out << "<span><span class=\"swatch\" style=\"background:var("
        << category.css << ")\"></span>" << html_escape(category.name)
        << "</span>";
  }
  out << "</div>\n";

  for (const auto& [client, totals] : clients) {
    double total = 0.0;
    for (double t : totals) total += t;
    out << "<div class=\"bar-row stall-client\"><span class=\"bar-label\">"
        << "client " << client << "</span><div class=\"bar-track\" style=\""
        << "width:" << pct(max_total > 0.0 ? total / max_total : 0.0)
        << "%;flex-grow:0\">";
    for (std::size_t c = 0; c < kNumCategories; ++c) {
      if (totals[c] <= 0.0) continue;
      out << "<span class=\"seg\" style=\"width:"
          << pct(total > 0.0 ? totals[c] / total : 0.0)
          << "%;background:var(" << kStallCategories[c].css << ")\" title=\""
          << kStallCategories[c].name << ": "
          << format_double(totals[c] / 1000.0, 3) << " ms ("
          << format_double(total > 0.0 ? 100.0 * totals[c] / total : 0.0, 1)
          << "%)\"></span>";
    }
    out << "</div><span class=\"bar-value\">"
        << format_double(total / 1000.0, 2) << " ms</span></div>\n";
  }

  // Table view of the same data (the accessible fallback — some light
  // palette slots sit below 3:1 contrast on the light surface).
  out << "<table>\n<tr><th>client</th>";
  for (const Category& category : kStallCategories) {
    out << "<th>" << html_escape(category.name) << " (ms)</th>";
  }
  out << "<th>total (ms)</th></tr>\n";
  for (const auto& [client, totals] : clients) {
    double total = 0.0;
    for (double t : totals) total += t;
    out << "<tr><td>client " << client << "</td>";
    for (double t : totals) {
      out << "<td>" << format_double(t / 1000.0, 3) << "</td>";
    }
    out << "<td>" << format_double(total / 1000.0, 3) << "</td></tr>\n";
  }
  out << "</table>\n</section>\n";
}

}  // namespace

std::string render_html_report(const JsonValue& record,
                               const JsonValue* trace) {
  std::ostringstream out;
  const std::string binary =
      record.find("binary") != nullptr
          ? record.find("binary")->string_or("run")
          : "run";
  out << "<!doctype html>\n<html lang=\"en\">\n<head>\n"
      << "<meta charset=\"utf-8\">\n"
      << "<meta name=\"viewport\" content=\"width=device-width, "
         "initial-scale=1\">\n"
      << "<title>mlsc run report &mdash; " << html_escape(binary)
      << "</title>\n<style>" << kStyle << "</style>\n</head>\n<body>\n"
      << "<h1>mlsc run report &mdash; " << html_escape(binary) << "</h1>\n"
      << "<p class=\"subtitle\">Computation mapping for multi-level storage "
         "cache hierarchies &mdash; regression observatory run record"
         "</p>\n";
  metadata_section(out, record);
  phases_section(out, record);
  headroom_section(out, record);
  insight_section(out, record);
  tables_section(out, record);
  metrics_section(out, record);
  if (trace != nullptr) stall_section(out, *trace);
  out << "</body>\n</html>\n";
  return out.str();
}

}  // namespace mlsc::obs
