#include "ledger.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>

namespace perfbench {
namespace {

// A strict reader for the subset of JSON TraceCollector::ToJson emits:
// objects, arrays, strings, numbers and the three literals. Unknown keys
// are skipped, so extra fields in later engine versions stay harmless.
class TraceParser {
 public:
  explicit TraceParser(std::string_view text) : s_(text) {}

  bool Document(std::vector<TraceEvent>* events) {
    if (!Expect('{')) return false;
    if (Peek('}')) return Fail("no traceEvents");
    bool found = false;
    do {
      std::string key;
      if (!String(&key) || !Expect(':')) return false;
      if (key == "traceEvents") {
        found = true;
        if (!Events(events)) return false;
      } else if (!Skip()) {
        return false;
      }
    } while (Consume(','));
    if (!Expect('}')) return false;
    Ws();
    if (i_ != s_.size()) return Fail("trailing bytes");
    return found || Fail("no traceEvents");
  }

  std::string error;

 private:
  bool Fail(const char* what) {
    if (error.empty()) error = std::string(what) + " at byte " + std::to_string(i_);
    return false;
  }
  void Ws() {
    while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\n' ||
                              s_[i_] == '\r' || s_[i_] == '\t')) {
      ++i_;
    }
  }
  bool Peek(char c) {
    Ws();
    return i_ < s_.size() && s_[i_] == c;
  }
  bool Consume(char c) {
    if (!Peek(c)) return false;
    ++i_;
    return true;
  }
  bool Expect(char c) {
    if (Consume(c)) return true;
    return Fail("unexpected character");
  }

  bool String(std::string* out) {
    if (!Expect('"')) return false;
    out->clear();
    while (i_ < s_.size() && s_[i_] != '"') {
      char c = s_[i_++];
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (i_ >= s_.size()) return Fail("truncated escape");
      c = s_[i_++];
      switch (c) {
        case '"': case '\\': case '/': out->push_back(c); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (i_ + 4 > s_.size()) return Fail("truncated \\u escape");
          const std::string hex(s_.substr(i_, 4));
          char* end = nullptr;
          const unsigned long cp = std::strtoul(hex.c_str(), &end, 16);
          if (end != hex.c_str() + 4) return Fail("bad \\u escape");
          i_ += 4;
          // Names here are ASCII; anything wider is kept as a marker.
          out->push_back(cp < 0x80 ? static_cast<char>(cp) : '?');
          break;
        }
        default:
          return Fail("bad escape");
      }
    }
    if (i_ >= s_.size()) return Fail("unterminated string");
    ++i_;
    return true;
  }

  bool Number(double* out) {
    Ws();
    const size_t begin = i_;
    while (i_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[i_])) || s_[i_] == '-' ||
            s_[i_] == '+' || s_[i_] == '.' || s_[i_] == 'e' || s_[i_] == 'E')) {
      ++i_;
    }
    if (i_ == begin) return Fail("expected number");
    const std::string token(s_.substr(begin, i_ - begin));
    char* end = nullptr;
    *out = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) return Fail("bad number");
    return true;
  }

  bool Literal(std::string_view word) {
    if (s_.substr(i_, word.size()) != word) return Fail("bad literal");
    i_ += word.size();
    return true;
  }

  bool Skip() {
    Ws();
    if (i_ >= s_.size()) return Fail("truncated value");
    const char c = s_[i_];
    if (c == '"') {
      std::string ignored;
      return String(&ignored);
    }
    if (c == '{' || c == '[') {
      const char close = c == '{' ? '}' : ']';
      ++i_;
      if (Consume(close)) return true;
      do {
        if (c == '{') {
          std::string key;
          if (!String(&key) || !Expect(':')) return false;
        }
        if (!Skip()) return false;
      } while (Consume(','));
      return Expect(close);
    }
    if (c == 't') return Literal("true");
    if (c == 'f') return Literal("false");
    if (c == 'n') return Literal("null");
    double ignored;
    return Number(&ignored);
  }

  bool Events(std::vector<TraceEvent>* events) {
    if (!Expect('[')) return false;
    if (Consume(']')) return true;
    do {
      TraceEvent event;
      if (!Event(&event)) return false;
      events->push_back(std::move(event));
    } while (Consume(','));
    return Expect(']');
  }

  bool Event(TraceEvent* event) {
    if (!Expect('{')) return false;
    if (Consume('}')) return true;
    do {
      std::string key;
      if (!String(&key) || !Expect(':')) return false;
      double number = 0;
      if (key == "name") {
        if (!String(&event->name)) return false;
      } else if (key == "ph") {
        std::string phase;
        if (!String(&phase)) return false;
        if (phase.size() != 1) return Fail("bad phase");
        event->phase = phase[0];
      } else if (key == "ts" || key == "dur" || key == "tid") {
        if (!Number(&number)) return false;
        const auto value = static_cast<int64_t>(number);
        if (key == "ts") event->ts_us = value;
        if (key == "dur") event->dur_us = value;
        if (key == "tid") event->tid = static_cast<int>(value);
      } else if (key == "args") {
        if (!Args(&event->args)) return false;
      } else if (!Skip()) {
        return false;
      }
    } while (Consume(','));
    return Expect('}');
  }

  bool Args(std::map<std::string, double>* args) {
    if (!Expect('{')) return false;
    if (Consume('}')) return true;
    do {
      std::string key;
      if (!String(&key) || !Expect(':')) return false;
      Ws();
      if (i_ < s_.size() &&
          (s_[i_] == '-' || std::isdigit(static_cast<unsigned char>(s_[i_])))) {
        double number = 0;
        if (!Number(&number)) return false;
        (*args)[key] = number;
      } else if (!Skip()) {
        return false;
      }
    } while (Consume(','));
    return Expect('}');
  }

  std::string_view s_;
  size_t i_ = 0;
};

struct Segment {
  int64_t start;
  int64_t end;
  int label;
};

}  // namespace

bool ParseTraceEvents(std::string_view json, std::vector<TraceEvent>* events,
                      std::string* error) {
  TraceParser parser(json);
  events->clear();
  const bool ok = parser.Document(events);
  if (!ok && error != nullptr) *error = parser.error;
  return ok;
}

bool IsContainerSpan(std::string_view name) {
  return name == "op" || name == "job" || name == "map_phase" ||
         name == "reduce_phase";
}

double Ledger::Residual() const {
  double attributed = unattributed_s;
  for (const auto& [name, seconds] : self_s) attributed += seconds;
  return wall_s - attributed;
}

Ledger Attribute(std::vector<Span> spans, int64_t window_start_ns,
                 int64_t window_end_ns) {
  Ledger ledger;
  if (window_end_ns <= window_start_ns) return ledger;
  ledger.wall_s = static_cast<double>(window_end_ns - window_start_ns) / 1e9;

  std::map<std::string, int> label_of;
  std::vector<std::string> names;
  std::vector<bool> container;
  std::map<int, std::vector<Span>> by_thread;
  for (Span& span : spans) {
    span.start_ns = std::max(span.start_ns, window_start_ns);
    span.end_ns = std::min(span.end_ns, window_end_ns);
    if (span.end_ns <= span.start_ns) continue;
    by_thread[span.tid].push_back(std::move(span));
  }

  // Per thread: disjoint segments, each owned by the innermost span.
  std::vector<Segment> segments;
  for (auto& [tid, thread_spans] : by_thread) {
    std::sort(thread_spans.begin(), thread_spans.end(),
              [](const Span& a, const Span& b) {
                return a.start_ns != b.start_ns ? a.start_ns < b.start_ns
                                                : a.end_ns > b.end_ns;
              });
    struct Open {
      int64_t end;
      int label;
    };
    std::vector<Open> stack;
    int64_t cursor = window_start_ns;
    auto emit = [&](int64_t from, int64_t to, int label) {
      if (to > from) segments.push_back({from, to, label});
    };
    for (const Span& span : thread_spans) {
      while (!stack.empty() && stack.back().end <= span.start_ns) {
        emit(cursor, stack.back().end, stack.back().label);
        cursor = stack.back().end;
        stack.pop_back();
      }
      int64_t end = span.end_ns;
      if (!stack.empty()) {
        end = std::min(end, stack.back().end);
        emit(cursor, span.start_ns, stack.back().label);
      }
      cursor = span.start_ns;
      auto [it, inserted] =
          label_of.emplace(span.name, static_cast<int>(names.size()));
      if (inserted) {
        names.push_back(span.name);
        container.push_back(IsContainerSpan(span.name));
      }
      stack.push_back({end, it->second});
    }
    while (!stack.empty()) {
      emit(cursor, stack.back().end, stack.back().label);
      cursor = stack.back().end;
      stack.pop_back();
    }
  }

  // Across threads: sweep the segment boundaries and share each
  // elementary interval among the active layer segments.
  struct Edge {
    int64_t at;
    int delta;
    int label;
  };
  std::vector<Edge> edges;
  edges.reserve(segments.size() * 2);
  for (const Segment& segment : segments) {
    edges.push_back({segment.start, +1, segment.label});
    edges.push_back({segment.end, -1, segment.label});
  }
  std::sort(edges.begin(), edges.end(),
            [](const Edge& a, const Edge& b) { return a.at < b.at; });
  std::vector<int> active(names.size(), 0);
  std::vector<double> self_ns(names.size(), 0);
  int active_layers = 0;
  double unattributed_ns = 0;
  auto settle = [&](int64_t from, int64_t to) {
    if (to <= from) return;
    const double length = static_cast<double>(to - from);
    if (active_layers == 0) {
      unattributed_ns += length;
      return;
    }
    for (size_t label = 0; label < names.size(); ++label) {
      if (active[label] > 0 && !container[label]) {
        self_ns[label] += length * active[label] / active_layers;
      }
    }
  };
  int64_t previous = window_start_ns;
  for (const Edge& edge : edges) {
    settle(previous, edge.at);
    previous = std::max(previous, edge.at);
    active[edge.label] += edge.delta;
    if (!container[edge.label]) active_layers += edge.delta;
  }
  settle(previous, window_end_ns);

  ledger.unattributed_s = unattributed_ns / 1e9;
  for (size_t label = 0; label < names.size(); ++label) {
    if (!container[label]) ledger.self_s[names[label]] += self_ns[label] / 1e9;
  }
  return ledger;
}

}  // namespace perfbench
