#include "obs/trace_sink.h"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "obs/json.h"

namespace pase::obs {

namespace {

void append_queue_name(std::string& out, const Trace& tr, std::uint32_t id) {
  if (id < tr.queue_names.size()) {
    append_json_string(out, tr.queue_names[id]);
  } else {
    out += "\"q";
    append_json_uint(out, id);
    out += '"';
  }
}

}  // namespace

Trace merge_buffers(const std::vector<const TraceBuffer*>& buffers) {
  Trace tr;
  std::size_t total = 0;
  std::uint32_t cats = 0;
  for (const TraceBuffer* b : buffers) {
    total += b->size();
    tr.dropped += b->dropped();
    cats |= b->categories();
  }
  tr.categories = cats;
  tr.events.reserve(total);
  for (const TraceBuffer* b : buffers) {
    for (std::size_t i = 0; i < b->size(); ++i) tr.events.push_back(b->at(i));
  }
  // Within one buffer records are already in (t, key) order — a domain
  // executes its events in exactly that order — so a stable sort on (t, key)
  // reproduces the global sequential emission order. kNoOrder (engine
  // self-profiling) is the largest key.
  std::stable_sort(tr.events.begin(), tr.events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     if (a.t != b.t) return a.t < b.t;
                     return a.order < b.order;
                   });
  return tr;
}

std::string Trace::to_jsonl() const {
  std::string out;
  out.reserve(64 + events.size() * 96);
  out += "{\"schema\":\"";
  out += kTraceSchemaName;
  out += "\",\"version\":";
  append_json_uint(out, kTraceSchemaVersion);
  out += ",\"categories\":";
  append_json_string(out, categories_string(categories));
  out += ",\"events\":";
  append_json_uint(out, events.size());
  out += ",\"dropped\":";
  append_json_uint(out, dropped);
  out += "}\n";

  for (const TraceEvent& e : events) {
    out += "{\"t\":";
    append_json_number(out, e.t);
    out += ",\"type\":\"";
    out += type_name(e.type);
    out += '"';
    switch (e.type) {
      case EventType::kFlowStart:
        out += ",\"flow\":";
        append_json_uint(out, e.flow);
        out += ",\"size\":";
        append_json_number(out, e.v0);
        out += ",\"deadline\":";
        append_json_number(out, e.v1);
        break;
      case EventType::kFlowFirstByte:
        out += ",\"flow\":";
        append_json_uint(out, e.flow);
        break;
      case EventType::kFlowComplete:
        out += ",\"flow\":";
        append_json_uint(out, e.flow);
        out += ",\"fct\":";
        append_json_number(out, e.v0);
        break;
      case EventType::kFlowDeadlineMiss:
        out += ",\"flow\":";
        append_json_uint(out, e.flow);
        out += ",\"late_by\":";
        append_json_number(out, e.v0);
        break;
      case EventType::kPktDrop:
      case EventType::kPktEcnMark:
        out += ",\"flow\":";
        append_json_uint(out, e.flow);
        out += ",\"seq\":";
        append_json_uint(out, e.a);
        out += ",\"queue\":";
        append_queue_name(out, *this, e.b);
        out += ",\"bytes\":";
        append_json_number(out, e.v0);
        break;
      case EventType::kArbDecision:
        out += ",\"flow\":";
        append_json_uint(out, e.flow);
        out += ",\"prio\":";
        append_json_uint(out, e.a);
        out += ",\"half\":\"";
        out += (e.b == 0 ? "src" : "rx");
        out += "\",\"rref\":";
        append_json_number(out, e.v0);
        break;
      case EventType::kCwndSample:
        out += ",\"flow\":";
        append_json_uint(out, e.flow);
        out += ",\"cwnd\":";
        append_json_number(out, e.v0);
        out += ",\"srtt\":";
        append_json_number(out, e.v1);
        break;
      case EventType::kAlphaSample:
        out += ",\"flow\":";
        append_json_uint(out, e.flow);
        out += ",\"alpha\":";
        append_json_number(out, e.v0);
        out += ",\"frac\":";
        append_json_number(out, e.v1);
        break;
      case EventType::kRateSample:
        out += ",\"flow\":";
        append_json_uint(out, e.flow);
        out += ",\"rate\":";
        append_json_number(out, e.v0);
        out += ",\"paused\":";
        append_json_uint(out, e.a);
        break;
      case EventType::kEngineSample:
        out += ",\"domain\":";
        append_json_uint(out, e.a);
        out += ",\"events\":";
        append_json_number(out, e.v0);
        out += ",\"heap_closures\":";
        append_json_number(out, e.v1);
        break;
      case EventType::kParallelRound:
        out += ",\"rounds\":";
        append_json_uint(out, e.a);
        out += ",\"posts\":";
        append_json_uint(out, e.b);
        out += ",\"horizon\":";
        append_json_number(out, e.v0);
        out += ",\"drains\":";
        append_json_number(out, e.v1);
        break;
    }
    out += "}\n";
  }
  return out;
}

std::string Trace::to_chrome_json() const {
  std::string out;
  out.reserve(64 + events.size() * 128);
  out += "{\"traceEvents\":[";
  bool first = true;
  const auto begin_record = [&](const char* ph, const std::string& name,
                                const char* cat, double t) {
    if (!first) out += ',';
    first = false;
    out += "\n{\"ph\":\"";
    out += ph;
    out += "\",\"name\":";
    append_json_string(out, name);
    out += ",\"cat\":\"";
    out += cat;
    out += "\",\"pid\":0,\"tid\":0,\"ts\":";
    // trace_event timestamps are microseconds
    append_json_number(out, t * 1e6);
  };
  const auto flow_name = [](std::uint64_t id) {
    return "flow " + std::to_string(id);
  };
  const auto queue_name = [this](std::uint32_t id) {
    return id < queue_names.size() ? queue_names[id]
                                   : "q" + std::to_string(id);
  };
  char buf[64];
  for (const TraceEvent& e : events) {
    switch (e.type) {
      case EventType::kFlowStart:
        begin_record("b", flow_name(e.flow), "flow", e.t);
        out += ",\"id\":";
        append_json_uint(out, e.flow);
        out += ",\"args\":{\"size\":";
        append_json_number(out, e.v0);
        out += "}}";
        break;
      case EventType::kFlowComplete:
        begin_record("e", flow_name(e.flow), "flow", e.t);
        out += ",\"id\":";
        append_json_uint(out, e.flow);
        out += ",\"args\":{\"fct\":";
        append_json_number(out, e.v0);
        out += "}}";
        break;
      case EventType::kFlowFirstByte:
      case EventType::kFlowDeadlineMiss:
        begin_record("i", type_name(e.type), "flow", e.t);
        out += ",\"s\":\"t\",\"args\":{\"flow\":";
        append_json_uint(out, e.flow);
        out += "}}";
        break;
      case EventType::kPktDrop:
      case EventType::kPktEcnMark:
        begin_record("i", std::string(type_name(e.type)) + " @ " +
                              queue_name(e.b), "packet", e.t);
        out += ",\"s\":\"t\",\"args\":{\"flow\":";
        append_json_uint(out, e.flow);
        out += ",\"seq\":";
        append_json_uint(out, e.a);
        out += "}}";
        break;
      case EventType::kArbDecision:
        begin_record("i", "arb " + flow_name(e.flow), "arb", e.t);
        out += ",\"s\":\"t\",\"args\":{\"prio\":";
        append_json_uint(out, e.a);
        out += ",\"rref\":";
        append_json_number(out, e.v0);
        out += "}}";
        break;
      case EventType::kCwndSample:
        std::snprintf(buf, sizeof(buf), "flow%llu.cwnd",
                      static_cast<unsigned long long>(e.flow));
        begin_record("C", buf, "endpoint", e.t);
        out += ",\"args\":{\"cwnd\":";
        append_json_number(out, e.v0);
        out += "}}";
        break;
      case EventType::kAlphaSample:
        std::snprintf(buf, sizeof(buf), "flow%llu.alpha",
                      static_cast<unsigned long long>(e.flow));
        begin_record("C", buf, "endpoint", e.t);
        out += ",\"args\":{\"alpha\":";
        append_json_number(out, e.v0);
        out += "}}";
        break;
      case EventType::kRateSample:
        std::snprintf(buf, sizeof(buf), "flow%llu.rate",
                      static_cast<unsigned long long>(e.flow));
        begin_record("C", buf, "endpoint", e.t);
        out += ",\"args\":{\"rate_bps\":";
        append_json_number(out, e.v0);
        out += "}}";
        break;
      case EventType::kEngineSample:
        begin_record("i", "engine.sample", "engine", e.t);
        out += ",\"s\":\"g\",\"args\":{\"domain\":";
        append_json_uint(out, e.a);
        out += ",\"events\":";
        append_json_number(out, e.v0);
        out += "}}";
        break;
      case EventType::kParallelRound:
        begin_record("i", "engine.round", "engine", e.t);
        out += ",\"s\":\"g\",\"args\":{\"rounds\":";
        append_json_uint(out, e.a);
        out += ",\"posts\":";
        append_json_uint(out, e.b);
        out += ",\"horizon\":";
        append_json_number(out, e.v0);
        out += ",\"drains\":";
        append_json_number(out, e.v1);
        out += "}}";
        break;
    }
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

namespace {
bool write_file(const std::string& path, const std::string& doc) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) return false;
  f.write(doc.data(), static_cast<std::streamsize>(doc.size()));
  return static_cast<bool>(f);
}
}  // namespace

bool Trace::write_jsonl(const std::string& path) const {
  return write_file(path, to_jsonl());
}

bool Trace::write_chrome_json(const std::string& path) const {
  return write_file(path, to_chrome_json());
}

}  // namespace pase::obs
