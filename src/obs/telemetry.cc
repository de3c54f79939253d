#include "obs/telemetry.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "net/link.h"
#include "net/queue.h"

namespace pase::obs {

// ---------------------------------------------------------------------------
// SpaceSavingSketch

std::size_t SpaceSavingSketch::find(std::uint64_t key) const {
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].key == key) return i;
  }
  return slots_.size();
}

void SpaceSavingSketch::add(std::uint64_t key, std::uint64_t weight) {
  if (weight == 0) return;
  total_ += weight;
  const std::size_t i = find(key);
  if (i < slots_.size()) {
    slots_[i].count += weight;
    return;
  }
  if (slots_.size() < capacity_) {
    slots_.push_back({key, weight, 0});
    return;
  }
  // Evict the minimum-count slot (lowest index on ties — deterministic) and
  // inherit its count as the new key's error bound.
  std::size_t victim = 0;
  for (std::size_t j = 1; j < slots_.size(); ++j) {
    if (slots_[j].count < slots_[victim].count) victim = j;
  }
  Slot& s = slots_[victim];
  s.error = s.count;
  s.count += weight;
  s.key = key;
}

std::uint64_t SpaceSavingSketch::min_estimate() const {
  if (slots_.size() < capacity_) return 0;
  std::uint64_t m = slots_[0].count;
  for (const Slot& s : slots_) m = std::min(m, s.count);
  return m;
}

std::vector<SpaceSavingSketch::Item> SpaceSavingSketch::top(
    std::size_t n) const {
  std::vector<Item> items;
  items.reserve(slots_.size());
  for (const Slot& s : slots_) items.push_back({s.key, s.count, s.error});
  std::sort(items.begin(), items.end(), [](const Item& a, const Item& b) {
    if (a.estimate != b.estimate) return a.estimate > b.estimate;
    return a.key < b.key;
  });
  if (items.size() > n) items.resize(n);
  return items;
}

// ---------------------------------------------------------------------------
// TelemetryPlane

TelemetryPlane::TelemetryPlane(topo::BuiltTopology& built,
                               const TelemetryConfig& cfg)
    : cfg_(cfg),
      link_sketch_(cfg.sketch_entries),
      flow_sketch_(cfg.sketch_entries) {
  PASE_DCHECK(cfg_.sample_period > 0 && "telemetry needs a positive period");
  if (cfg_.samples_per_window < 1) cfg_.samples_per_window = 1;

  topo::Topology& topo = built.topo();
  names_ = label_fabric_queues(topo);
  const std::vector<topo::QueueClass> classes = built.queue_classes();
  PASE_DCHECK(classes.size() == names_.size() &&
              "queue classes disagree with queue labels");

  // Group ids: the four tiers first (dense, whether present or not would
  // waste rows — only tiers that actually occur get a group), then pods in
  // ascending order. Group order is structural, never sample-dependent.
  int max_pod = -1;
  bool tier_present[4] = {false, false, false, false};
  for (const topo::QueueClass& c : classes) {
    tier_present[static_cast<int>(c.tier)] = true;
    max_pod = std::max(max_pod, c.pod);
  }
  std::uint16_t tier_group[4] = {0, 0, 0, 0};
  for (int t = 0; t < 4; ++t) {
    if (!tier_present[t]) continue;
    tier_group[t] = static_cast<std::uint16_t>(group_names_.size());
    group_names_.push_back(
        std::string("tier:") +
        topo::link_tier_name(static_cast<topo::LinkTier>(t)));
  }
  const std::size_t first_pod_group = group_names_.size();
  for (int p = 0; p <= max_pod; ++p) {
    group_names_.push_back("pod:" + std::to_string(p));
  }

  queues_.reserve(names_.size());
  std::size_t i = 0;
  topo.for_each_queue([&](net::Queue& q) {
    QueueState qs;
    qs.queue = &q;
    qs.link = q.link();
    const topo::QueueClass& c = classes[i];
    qs.tier_group = tier_group[static_cast<int>(c.tier)];
    qs.pod_group = c.pod < 0 ? std::int16_t{-1}
                             : static_cast<std::int16_t>(first_pod_group +
                                                         c.pod);
    queues_.push_back(qs);
    ++i;
  });
  PASE_DCHECK(queues_.size() == names_.size());

  window_.resize(group_names_.size());
  run_.resize(group_names_.size());
  for (std::size_t g = 0; g < group_names_.size(); ++g) {
    window_[g].util_hist = make_util_hist();
    window_[g].depth_hist = make_depth_hist();
  }
}

void TelemetryPlane::fold_queue_sample(QueueState& qs, sim::Time /*now*/,
                                       sim::Time elapsed) {
  const std::uint64_t depth = qs.queue->len_packets();
  const std::uint64_t drops = qs.queue->drops();
  const std::uint64_t marks = qs.queue->marks();
  const sim::Time busy = qs.link->busy_time();
  const std::uint64_t bytes = qs.link->bytes_sent();

  double util = 0.0;
  if (elapsed > 0) {
    util = std::clamp((busy - qs.prev_busy) / elapsed, 0.0, 1.0);
  }
  const std::uint64_t d_drops = drops - qs.prev_drops;
  const std::uint64_t d_marks = marks - qs.prev_marks;
  const std::uint64_t d_bytes = bytes - qs.prev_bytes;
  qs.prev_busy = busy;
  qs.prev_drops = drops;
  qs.prev_marks = marks;
  qs.prev_bytes = bytes;

  qs.occ_sum += static_cast<double>(depth);
  qs.occ_max = std::max(qs.occ_max, depth);

  if (d_bytes > 0) {
    // Links feed the heavy-hitter sketch with their per-tick byte delta; the
    // key is the queue's canonical index.
    link_sketch_.add(static_cast<std::uint64_t>(&qs - queues_.data()),
                     d_bytes);
  }

  const auto fold = [&](std::size_t g) {
    WindowAccum& w = window_[g];
    ++w.samples;
    w.util_sum += util;
    w.util_max = std::max(w.util_max, util);
    w.depth_sum += static_cast<double>(depth);
    w.depth_max = std::max(w.depth_max, depth);
    w.drops += d_drops;
    w.marks += d_marks;
    w.bytes += d_bytes;
    w.util_hist.add(util);
    w.depth_hist.add(static_cast<double>(depth));

    RunAccum& r = run_[g];
    ++r.samples;
    r.util_sum += util;
    r.util_max = std::max(r.util_max, util);
    r.depth_sum += static_cast<double>(depth);
    r.depth_max = std::max(r.depth_max, depth);
    r.drops += d_drops;
    r.marks += d_marks;
    r.bytes += d_bytes;
    r.util_p99.add(util);
  };
  fold(qs.tier_group);
  if (qs.pod_group >= 0) fold(static_cast<std::size_t>(qs.pod_group));
}

void TelemetryPlane::sample(sim::Time now) {
  PASE_DCHECK(now >= prev_sample_t_ && "telemetry samples must advance");
  const sim::Time elapsed = now - prev_sample_t_;
  for (QueueState& qs : queues_) fold_queue_sample(qs, now, elapsed);
  prev_sample_t_ = now;
  ++samples_;
  if (samples_ % static_cast<std::uint64_t>(cfg_.samples_per_window) == 0) {
    flush_window(now);
  }
}

void TelemetryPlane::note_flow(std::uint64_t flow_id,
                               std::uint64_t size_bytes) {
  flow_sketch_.add(flow_id, size_bytes);
}

void TelemetryPlane::flush_window(sim::Time t_end) {
  for (std::size_t g = 0; g < window_.size(); ++g) {
    WindowAccum& w = window_[g];
    TelemetryWindowRow row;
    row.window = windows_flushed_;
    row.group = static_cast<std::uint32_t>(g);
    row.t0 = window_t0_;
    row.t1 = t_end;
    row.samples = w.samples;
    if (w.samples > 0) {
      const double n = static_cast<double>(w.samples);
      row.util_mean = w.util_sum / n;
      row.util_max = w.util_max;
      // A LogHistogram maps zeros to its floor bucket, which would report an
      // all-idle window's p99 as the bucket midpoint — an idle window's p99
      // is simply zero — and reports bucket upper bounds, which can exceed
      // the true maximum; clamp so p99 <= max always holds.
      row.util_p99 =
          w.util_max > 0 ? std::min(w.util_hist.percentile(99), w.util_max)
                         : 0.0;
      row.depth_mean = w.depth_sum / n;
      row.depth_max = w.depth_max;
      row.depth_p99 =
          w.depth_max > 0 ? std::min(w.depth_hist.percentile(99),
                                     static_cast<double>(w.depth_max))
                          : 0.0;
      row.drops = w.drops;
      row.marks = w.marks;
      row.bytes = w.bytes;
    }
    rows_.push_back(row);
    w = WindowAccum{};
    w.util_hist = make_util_hist();
    w.depth_hist = make_depth_hist();
  }
  ++windows_flushed_;
  window_t0_ = t_end;
}

std::shared_ptr<const TelemetrySummary> TelemetryPlane::finish(
    sim::Time end_time) {
  // Flush a trailing partial window so late activity is never dropped.
  bool partial = false;
  for (const WindowAccum& w : window_) partial = partial || w.samples > 0;
  if (partial) flush_window(prev_sample_t_);

  auto out = std::make_shared<TelemetrySummary>();
  out->sample_period = cfg_.sample_period;
  out->samples_per_window = cfg_.samples_per_window;
  out->samples = samples_;
  out->end_time = end_time;
  out->num_queues = queues_.size();
  out->group_names = group_names_;
  out->windows = rows_;

  out->totals.reserve(run_.size());
  for (std::size_t g = 0; g < run_.size(); ++g) {
    const RunAccum& r = run_[g];
    TelemetryGroupTotal t;
    t.group = static_cast<std::uint32_t>(g);
    t.samples = r.samples;
    if (r.samples > 0) {
      const double n = static_cast<double>(r.samples);
      t.util_mean = r.util_sum / n;
      t.util_max = r.util_max;
      // The P² markers interpolate and can overshoot the observed extremum.
      t.util_p99 =
          r.util_max > 0 ? std::min(r.util_p99.value(), r.util_max) : 0.0;
      t.depth_mean = r.depth_sum / n;
      t.depth_max = r.depth_max;
      t.drops = r.drops;
      t.marks = r.marks;
      t.bytes = r.bytes;
    }
    out->totals.push_back(t);
  }

  for (const SpaceSavingSketch::Item& it : link_sketch_.top(cfg_.top_k)) {
    HeavyHitter h;
    h.key = it.key;
    h.name = it.key < names_.size() ? names_[static_cast<std::size_t>(it.key)]
                                    : "?";
    h.bytes = it.estimate;
    h.error = it.error;
    out->hot_links.push_back(std::move(h));
  }
  for (const SpaceSavingSketch::Item& it : flow_sketch_.top(cfg_.top_k)) {
    HeavyHitter h;
    h.key = it.key;
    h.name = "flow:" + std::to_string(it.key);
    h.bytes = it.estimate;
    h.error = it.error;
    out->hot_flows.push_back(std::move(h));
  }
  return out;
}

std::size_t TelemetryPlane::peak_occupancy() const {
  std::size_t peak = 0;
  for (const QueueState& qs : queues_) {
    peak = std::max(peak, static_cast<std::size_t>(qs.occ_max));
  }
  return peak;
}

const std::string* TelemetryPlane::busiest() const {
  const std::string* best = nullptr;
  double best_sum = -1.0;
  for (std::size_t i = 0; i < queues_.size(); ++i) {
    if (queues_[i].occ_sum > best_sum) {
      best_sum = queues_[i].occ_sum;
      best = &names_[i];
    }
  }
  return best;
}

// ---------------------------------------------------------------------------
// JSONL sink

namespace {

// Shortest round-trippable representation of a double (same idiom as the
// sweep/trace sinks): deterministic bytes for identical values.
void append_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  for (int prec = 1; prec < 17; ++prec) {
    char probe[32];
    std::snprintf(probe, sizeof(probe), "%.*g", prec, v);
    if (std::strtod(probe, nullptr) == v) {
      std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
      break;
    }
  }
  out += buf;
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llu",
                static_cast<unsigned long long>(v));
  out += buf;
}

void append_string(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
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
  out += '"';
}

}  // namespace

std::string TelemetrySummary::to_jsonl() const {
  std::string out;
  out.reserve(256 + windows.size() * 192 + totals.size() * 160);

  out += "{\"schema\":\"";
  out += kTelemetrySchemaName;
  out += "\",\"version\":";
  append_u64(out, static_cast<std::uint64_t>(kTelemetrySchemaVersion));
  out += ",\"period\":";
  append_number(out, sample_period);
  out += ",\"samples_per_window\":";
  append_u64(out, static_cast<std::uint64_t>(samples_per_window));
  out += ",\"samples\":";
  append_u64(out, samples);
  out += ",\"end_time\":";
  append_number(out, end_time);
  out += ",\"queues\":";
  append_u64(out, num_queues);
  out += ",\"groups\":";
  append_u64(out, group_names.size());
  out += ",\"windows\":";
  append_u64(out, windows.empty() ? 0 : windows.size() / group_names.size());
  out += ",\"top_k\":";
  append_u64(out, std::max(hot_links.size(), hot_flows.size()));
  out += "}\n";

  for (std::size_t g = 0; g < group_names.size(); ++g) {
    out += "{\"type\":\"group\",\"id\":";
    append_u64(out, g);
    out += ",\"name\":";
    append_string(out, group_names[g]);
    out += "}\n";
  }

  for (const TelemetryWindowRow& w : windows) {
    out += "{\"type\":\"window\",\"w\":";
    append_u64(out, w.window);
    out += ",\"group\":";
    append_u64(out, w.group);
    out += ",\"t0\":";
    append_number(out, w.t0);
    out += ",\"t1\":";
    append_number(out, w.t1);
    out += ",\"samples\":";
    append_u64(out, w.samples);
    out += ",\"util_mean\":";
    append_number(out, w.util_mean);
    out += ",\"util_max\":";
    append_number(out, w.util_max);
    out += ",\"util_p99\":";
    append_number(out, w.util_p99);
    out += ",\"depth_mean\":";
    append_number(out, w.depth_mean);
    out += ",\"depth_max\":";
    append_u64(out, w.depth_max);
    out += ",\"depth_p99\":";
    append_number(out, w.depth_p99);
    out += ",\"drops\":";
    append_u64(out, w.drops);
    out += ",\"marks\":";
    append_u64(out, w.marks);
    out += ",\"bytes\":";
    append_u64(out, w.bytes);
    out += "}\n";
  }

  for (const TelemetryGroupTotal& t : totals) {
    out += "{\"type\":\"total\",\"group\":";
    append_u64(out, t.group);
    out += ",\"samples\":";
    append_u64(out, t.samples);
    out += ",\"util_mean\":";
    append_number(out, t.util_mean);
    out += ",\"util_max\":";
    append_number(out, t.util_max);
    out += ",\"util_p99\":";
    append_number(out, t.util_p99);
    out += ",\"depth_mean\":";
    append_number(out, t.depth_mean);
    out += ",\"depth_max\":";
    append_u64(out, t.depth_max);
    out += ",\"drops\":";
    append_u64(out, t.drops);
    out += ",\"marks\":";
    append_u64(out, t.marks);
    out += ",\"bytes\":";
    append_u64(out, t.bytes);
    out += "}\n";
  }

  for (std::size_t r = 0; r < hot_links.size(); ++r) {
    out += "{\"type\":\"hot_link\",\"rank\":";
    append_u64(out, r);
    out += ",\"name\":";
    append_string(out, hot_links[r].name);
    out += ",\"bytes\":";
    append_u64(out, hot_links[r].bytes);
    out += ",\"error\":";
    append_u64(out, hot_links[r].error);
    out += "}\n";
  }
  for (std::size_t r = 0; r < hot_flows.size(); ++r) {
    out += "{\"type\":\"hot_flow\",\"rank\":";
    append_u64(out, r);
    out += ",\"flow\":";
    append_u64(out, hot_flows[r].key);
    out += ",\"bytes\":";
    append_u64(out, hot_flows[r].bytes);
    out += ",\"error\":";
    append_u64(out, hot_flows[r].error);
    out += "}\n";
  }
  return out;
}

bool TelemetrySummary::write_jsonl(const std::string& path) const {
  std::ofstream f(path, std::ios::binary);
  if (!f) return false;
  const std::string body = to_jsonl();
  f.write(body.data(), static_cast<std::streamsize>(body.size()));
  return static_cast<bool>(f);
}

}  // namespace pase::obs
