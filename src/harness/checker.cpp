#include "harness/checker.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <istream>
#include <map>
#include <optional>
#include <tuple>

#include "harness/jsonl.h"
#include "harness/live_check.h"
#include "support/sha256.h"

namespace ssbft {

namespace {

// Strict flat-JSON line decoding lives in harness/jsonl.h (shared with the
// shard/checkpoint codec): values are strings, unsigned integers or arrays
// of unsigned integers; anything else is rejected.
using jsonl::LineValues;
using jsonl::find_int;

// Record lines carry exactly their integer keys plus "type"; the header
// adds "scenario" and the "faulty" array.
bool record_shape(const LineValues& v, jsonl::KeyList keys, std::string& err) {
  return jsonl::check_shape(v, {keys, {"type"}}, err);
}

struct MergeKey {
  std::string scenario;
  std::uint64_t trial;
  std::uint64_t seed;
  bool operator<(const MergeKey& o) const {
    return std::tie(scenario, trial, seed) <
           std::tie(o.scenario, o.trial, o.seed);
  }
};

bool headers_equal(const TraceHeader& a, const TraceHeader& b) {
  return a.scenario == b.scenario && a.trial == b.trial && a.seed == b.seed &&
         a.n == b.n && a.f == b.f && a.faulty == b.faulty &&
         a.max_beats == b.max_beats && a.confirm_window == b.confirm_window;
}

// Post-merge structural validation: one clock record per correct node on
// every beat that carries any, plus a single modulus across the trace.
bool validate_merged(const ParsedTrace& t, std::string& err) {
  std::vector<bool> is_faulty(t.header.n, false);
  for (NodeId id : t.header.faulty) is_faulty[id] = true;
  std::size_t correct = 0;
  for (NodeId id = 0; id < t.header.n; ++id) {
    if (!is_faulty[id]) ++correct;
  }
  ClockValue modulus = 0;
  std::vector<std::uint8_t> seen(t.header.n, 0);
  std::size_t i = 0;
  while (i < t.records.size()) {
    const Beat beat = t.records[i].beat;
    std::fill(seen.begin(), seen.end(), 0);
    std::size_t clocks = 0;
    for (; i < t.records.size() && t.records[i].beat == beat; ++i) {
      const TraceRecord& r = t.records[i];
      if (r.event != TraceEvent::kClock) continue;
      const auto node = static_cast<NodeId>(r.node);
      if (seen[node]++) {
        err = "beat " + std::to_string(beat) + ": duplicate clock record for node " +
              std::to_string(node);
        return false;
      }
      ++clocks;
      if (modulus == 0) modulus = r.b;
      if (r.b != modulus) {
        err = "beat " + std::to_string(beat) + ": modulus mismatch (" +
              std::to_string(r.b) + " vs " + std::to_string(modulus) + ")";
        return false;
      }
    }
    if (clocks != 0 && clocks != correct) {
      err = "beat " + std::to_string(beat) + ": clock records for " +
            std::to_string(clocks) + " nodes, expected " +
            std::to_string(correct) + " (missing nodes)";
      return false;
    }
  }
  return true;
}

const char* event_name(TraceEvent e) {
  switch (e) {
    case TraceEvent::kBeat: return "beat";
    case TraceEvent::kNet: return "net";
    case TraceEvent::kProbe: return "probe";
    case TraceEvent::kClock: return "clock";
    case TraceEvent::kPhase: return "phase";
    case TraceEvent::kCoin: return "coin";
    case TraceEvent::kCorrupt: return "corrupt";
  }
  return "?";
}

}  // namespace

ParseResult parse_trace(std::istream& in) {
  ParseResult res;
  std::string line;
  std::size_t lineno = 0;
  bool have_header = false;
  bool have_beat = false;
  Beat last_beat = 0;
  ClockValue modulus = 0;
  std::vector<bool> is_faulty;

  auto fail = [&](std::string msg) {
    res.ok = false;
    res.error = std::move(msg);
    res.error_line = lineno;
    return res;
  };

  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) return fail("empty line");
    LineValues v;
    std::string err;
    if (!jsonl::parse_line(line, v, err)) return fail(err);

    std::string type;
    for (const auto& [k, s] : v.strs) {
      if (k == "type") type = s;
    }
    if (type.empty()) return fail("missing key 'type'");

    if (type == "header") {
      if (have_header) return fail("duplicate header");
      if (!jsonl::check_shape(v,
                              {{"version", "trial", "seed", "n", "f",
                                "max_beats", "confirm_window"},
                               {"type", "scenario"},
                               {"faulty"}},
                              err)) {
        return fail(err);
      }
      if (*find_int(v, "version") != 1) return fail("unsupported version");
      TraceHeader& h = res.trace.header;
      for (const auto& [k, s] : v.strs) {
        if (k == "scenario") h.scenario = s;
      }
      h.trial = *find_int(v, "trial");
      h.seed = *find_int(v, "seed");
      const std::uint64_t n = *find_int(v, "n");
      const std::uint64_t f = *find_int(v, "f");
      if (n == 0 || n > (1u << 20)) return fail("n out of range");
      if (f > n) return fail("f out of range");
      h.n = static_cast<std::uint32_t>(n);
      h.f = static_cast<std::uint32_t>(f);
      h.max_beats = *find_int(v, "max_beats");
      h.confirm_window = *find_int(v, "confirm_window");
      is_faulty.assign(h.n, false);
      for (const auto& [k, arr] : v.arrs) {
        if (k != "faulty") continue;
        for (std::uint64_t id : arr) {
          if (id >= h.n) return fail("faulty id out of range");
          if (is_faulty[id]) return fail("duplicate faulty id");
          is_faulty[id] = true;
          h.faulty.push_back(static_cast<NodeId>(id));
        }
      }
      have_header = true;
      continue;
    }

    if (!have_header) return fail("record before header");

    TraceRecord r;
    if (type == "beat") {
      if (!record_shape(v, {"beat", "cm", "cb", "am", "ab"}, err)) {
        return fail(err);
      }
      r.event = TraceEvent::kBeat;
      r.a = *find_int(v, "cm");
      r.b = *find_int(v, "cb");
      r.c = *find_int(v, "am");
      r.d = *find_int(v, "ab");
    } else if (type == "net") {
      if (!record_shape(v, {"beat", "dropped", "phantoms"}, err)) {
        return fail(err);
      }
      r.event = TraceEvent::kNet;
      r.a = *find_int(v, "dropped");
      r.b = *find_int(v, "phantoms");
    } else if (type == "probe") {
      if (!record_shape(v, {"beat", "eclipsed", "delayed", "reordered"}, err)) {
        return fail(err);
      }
      r.event = TraceEvent::kProbe;
      r.a = *find_int(v, "eclipsed");
      r.b = *find_int(v, "delayed");
      r.c = *find_int(v, "reordered");
    } else if (type == "clock") {
      if (!record_shape(v, {"beat", "node", "clock", "k"}, err)) {
        return fail(err);
      }
      r.event = TraceEvent::kClock;
      r.a = *find_int(v, "clock");
      r.b = *find_int(v, "k");
      if (r.b == 0) return fail("zero modulus");
      if (modulus == 0) modulus = r.b;
      if (r.b != modulus) return fail("modulus mismatch within file");
    } else if (type == "phase") {
      if (!record_shape(v, {"beat", "node", "stream", "value"}, err)) {
        return fail(err);
      }
      r.event = TraceEvent::kPhase;
      r.a = *find_int(v, "value");
    } else if (type == "coin") {
      if (!record_shape(v, {"beat", "node", "stream", "bit"}, err)) {
        return fail(err);
      }
      r.event = TraceEvent::kCoin;
      r.a = *find_int(v, "bit");
      if (r.a > 1) return fail("coin bit out of range");
    } else if (type == "corrupt") {
      if (!record_shape(v, {"beat", "node"}, err)) return fail(err);
      r.event = TraceEvent::kCorrupt;
    } else {
      return fail("unknown type '" + type + "'");
    }

    r.beat = *find_int(v, "beat");
    if (have_beat && r.beat < last_beat) return fail("beats out of order");
    last_beat = r.beat;
    have_beat = true;

    if (const std::uint64_t* node = find_int(v, "node")) {
      if (*node >= res.trace.header.n) return fail("node out of range");
      // clock/phase/coin/corrupt records describe *correct* nodes; one
      // naming a faulty node is a forgery, not data.
      if (is_faulty[*node]) {
        return fail(std::string("forged ") + event_name(r.event) +
                    " record from faulty node " + std::to_string(*node));
      }
      r.node = static_cast<std::int32_t>(*node);
    }
    if (const std::uint64_t* stream = find_int(v, "stream")) {
      if (*stream > 0xFFFFFFFFull) return fail("stream out of range");
      r.stream = static_cast<std::uint32_t>(*stream);
    }
    res.trace.records.push_back(r);
  }

  if (!have_header) return fail("missing header");
  res.ok = true;
  return res;
}

MergeResult merge_traces(std::vector<ParsedTrace> parts) {
  MergeResult res;
  std::map<MergeKey, ParsedTrace> groups;
  for (ParsedTrace& p : parts) {
    const MergeKey key{p.header.scenario, p.header.trial, p.header.seed};
    auto it = groups.find(key);
    if (it == groups.end()) {
      groups.emplace(key, std::move(p));
      continue;
    }
    if (!headers_equal(it->second.header, p.header)) {
      res.error = "conflicting headers for scenario '" + key.scenario +
                  "' trial " + std::to_string(key.trial) + " seed " +
                  std::to_string(key.seed);
      return res;
    }
    it->second.records.insert(it->second.records.end(),
                              p.records.begin(), p.records.end());
  }
  for (auto& [key, trace] : groups) {
    // Total order (beat, node, event, stream, payload): the canonical
    // stream — and so the commitment — is independent of how records were
    // split across files and of the order the files were supplied in. The
    // checker only interprets records per whole beat, never by intra-beat
    // position, so reordering within a beat is semantically free.
    const auto rec_key = [](const TraceRecord& r) {
      return std::make_tuple(r.beat, r.node,
                             static_cast<std::uint8_t>(r.event), r.stream,
                             r.a, r.b, r.c, r.d);
    };
    std::sort(trace.records.begin(), trace.records.end(),
              [&rec_key](const TraceRecord& a, const TraceRecord& b) {
                return rec_key(a) < rec_key(b);
              });
    std::string err;
    if (!validate_merged(trace, err)) {
      res.error = "scenario '" + key.scenario + "' trial " +
                  std::to_string(key.trial) + ": " + err;
      return res;
    }
    res.traces.push_back(std::move(trace));
  }
  res.ok = true;
  return res;
}

MergeResult read_traces(const std::vector<std::string>& paths) {
  std::vector<ParsedTrace> parts;
  for (const std::string& path : paths) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      MergeResult res;
      res.error = "cannot open " + path;
      return res;
    }
    ParseResult parsed = parse_trace(in);
    if (!parsed.ok) {
      MergeResult res;
      res.error = path + ":" + std::to_string(parsed.error_line) + ": " +
                  parsed.error;
      return res;
    }
    parts.push_back(std::move(parsed.trace));
  }
  return merge_traces(std::move(parts));
}

CheckResult check_trace(const ParsedTrace& trace, const CheckOptions& opts) {
  // The invariants themselves live in InvariantCore (harness/live_check.h),
  // shared record-for-record with the StreamingChecker sink so offline and
  // live verdicts can never drift apart.
  InvariantCore core;
  core.reset(opts, trace.header.confirm_window);
  for (const TraceRecord& r : trace.records) core.feed(r);
  return core.finish();
}

std::string trace_commitment(const ParsedTrace& trace) {
  Sha256 sha;
  sha.update(std::string("ssbft-trace-v1\n"));
  const TraceHeader& h = trace.header;
  std::string line = "h|" + h.scenario + "|" + std::to_string(h.trial) + "|" +
                     std::to_string(h.seed) + "|" + std::to_string(h.n) + "|" +
                     std::to_string(h.f) + "|";
  for (std::size_t i = 0; i < h.faulty.size(); ++i) {
    if (i != 0) line.push_back(',');
    line += std::to_string(h.faulty[i]);
  }
  line += "|" + std::to_string(h.max_beats) + "|" +
          std::to_string(h.confirm_window) + "\n";
  sha.update(line);
  for (const TraceRecord& r : trace.records) {
    line = "r|" + std::to_string(r.beat) + "|" + std::to_string(r.node) + "|" +
           std::to_string(static_cast<unsigned>(r.event)) + "|" +
           std::to_string(r.stream) + "|" + std::to_string(r.a) + "|" +
           std::to_string(r.b) + "|" + std::to_string(r.c) + "|" +
           std::to_string(r.d) + "\n";
    sha.update(line);
  }
  return Sha256::hex(sha.digest());
}

std::string aggregate_commitment(std::vector<std::string> commitments) {
  std::sort(commitments.begin(), commitments.end());
  Sha256 sha;
  for (const std::string& c : commitments) {
    sha.update(c);
    sha.update("\n", 1);
  }
  return Sha256::hex(sha.digest());
}

}  // namespace ssbft
