// The codec workload: real buffers through five code families.
//
// The simulator charges modelled CPU time and never runs GF math on bytes,
// so this is the only workload in which gf and the ec data plane work.
// Per family and chunk size: encode the stripe, decode every single erasure
// and a seeded sample of recoverable 3-erasure patterns, each checked
// bit-exact against the encoded stripe. Then repair_dag() for every erasure
// pattern of size <= m, each DAG validated. Chunks are ~4 KiB, rounded down
// to a multiple of alpha (Clay runs 50-byte sub-chunks and a stripe fits in
// L2), and ~4 MiB (a 48-60 MiB stripe, past L3).
#include <algorithm>
#include <exception>
#include <memory>
#include <utility>

#include "bench.h"
#include "ec/code.h"
#include "ec/ecdag.h"
#include "ec/registry.h"
#include "gf/gf256.h"
#include "gf/matrix.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace perfbench {
namespace {

namespace ec = ecf::ec;
namespace gf = ecf::gf;
namespace util = ecf::util;

struct Family {
  const char* key;  // metric infix
  std::map<std::string, std::string> profile;
  bool mds;  // every pattern of size <= m is recoverable
};

const std::vector<Family>& families() {
  static const std::vector<Family> kFamilies = {
      {"rs",
       {{"plugin", "jerasure"}, {"technique", "reed_sol_van"}, {"k", "9"},
        {"m", "3"}},
       true},
      {"clay", {{"plugin", "clay"}, {"k", "9"}, {"m", "3"}, {"d", "11"}},
       true},
      {"lrc", {{"plugin", "lrc"}, {"k", "9"}, {"l", "3"}, {"g", "3"}}, false},
      {"shec", {{"plugin", "shec"}, {"k", "9"}, {"m", "4"}, {"c", "2"}},
       false},
      {"hh", {{"plugin", "hitchhiker"}, {"k", "9"}, {"m", "3"}}, true},
  };
  return kFamilies;
}

enum Kind { kEncode, kDecode1, kDecodeM, kKinds };
constexpr const char* kKindNames[kKinds] = {"encode", "decode1", "decodem"};

struct SizeClass {
  const char* suffix;
  std::size_t target_bytes;  // chunk size before rounding to alpha
  int encode_reps;           // encodes of the stripe
  int decode_reps;           // decodes of each erasure pattern
};

std::vector<SizeClass> size_classes(bool smoke) {
  if (smoke) return {{"4k", 4 * util::KiB, 8, 2}, {"4m", 256 * util::KiB, 1, 1}};
  return {{"4k", 4 * util::KiB, 256, 16}, {"4m", 4 * util::MiB, 2, 1}};
}

// 3-erasure patterns decoded per family and chunk size.
constexpr std::size_t kSampledPatterns = 4;

// Call time and bytes of one (size class, kind) cell.
struct Cell {
  double secs = 0;
  double bytes = 0;
  std::uint64_t calls = 0;
  double max_s = 0;
  void add(double s, double b) {
    secs += s;
    bytes += b;
    ++calls;
    max_s = std::max(max_s, s);
  }
};

struct FamilyTimes {
  Cell cells[2][kKinds];  // [size class][kind]
  double make_code_s = 0;
  double plan_s = 0;
  std::uint64_t plan_calls = 0;
  std::uint64_t dag_nodes = 0;
};

void fill(ec::Buffer& buf, util::Rng& rng) {
  std::size_t i = 0;
  for (; i + 8 <= buf.size(); i += 8) {
    const std::uint64_t word = rng.next();
    std::memcpy(buf.data() + i, &word, 8);
  }
  for (; i < buf.size(); ++i) buf[i] = static_cast<std::uint8_t>(rng.next());
}

std::string pattern_str(const std::vector<std::size_t>& p) {
  std::string s = "{";
  for (std::size_t i = 0; i < p.size(); ++i) {
    s += (i > 0 ? "," : "") + std::to_string(p[i]);
  }
  return s + "}";
}

// Calls fn on every sorted pattern of `size` positions out of n.
template <class Fn>
void for_each_pattern(std::size_t n, std::size_t size, Fn&& fn) {
  std::vector<std::size_t> p(size);
  for (std::size_t i = 0; i < size; ++i) p[i] = i;
  while (true) {
    fn(p);
    std::size_t i = size;
    while (i > 0 && p[i - 1] == n - size + (i - 1)) --i;
    if (i == 0) return;
    ++p[i - 1];
    for (std::size_t j = i; j < size; ++j) p[j] = p[j - 1] + 1;
  }
}

// A seeded sample of distinct 3-erasure patterns the planner accepts.
std::vector<std::vector<std::size_t>> sample_patterns(
    const ec::ErasureCode& code, util::Rng& rng) {
  std::vector<std::vector<std::size_t>> out;
  for (int attempt = 0; attempt < 10000 && out.size() < kSampledPatterns;
       ++attempt) {
    std::vector<std::size_t> p;
    while (p.size() < 3) {
      const std::size_t c = rng.uniform(code.n());
      if (std::find(p.begin(), p.end(), c) == p.end()) p.push_back(c);
    }
    std::sort(p.begin(), p.end());
    if (std::find(out.begin(), out.end(), p) != out.end()) continue;
    // An empty DAG: beyond the reach of a non-MDS code.
    if (code.repair_dag(p).nodes.empty()) continue;
    out.push_back(std::move(p));
  }
  return out;
}

void run_family(const Family& fam, std::uint64_t seed,
                const std::vector<SizeClass>& sizes, bool traced,
                RepResult& res, FamilyTimes& t) {
  const double t0 = now_s();
  const std::unique_ptr<ec::ErasureCode> code = ec::make_code(fam.profile);
  t.make_code_s = now_s() - t0;
  res.setup_s += t.make_code_s;
  const std::size_t n = code->n();
  const std::size_t k = code->k();
  util::Rng rng(seed);
  const auto patterns = sample_patterns(*code, rng);
  if (patterns.size() < kSampledPatterns) {
    res.fail(std::string(fam.key) + ": too few recoverable 3-erasure patterns");
  }

  for (std::size_t s = 0; s < sizes.size(); ++s) {
    const SizeClass& sc = sizes[s];
    const std::size_t alpha = code->alpha();
    const std::size_t chunk =
        std::max<std::size_t>(1, sc.target_bytes / alpha) * alpha;
    const std::string where = std::string(fam.key) + "/" + sc.suffix;
    Cell* cells = t.cells[s];
    std::vector<ec::Buffer> stripe(n, ec::Buffer(chunk));
    for (std::size_t i = 0; i < k; ++i) fill(stripe[i], rng);

    for (int r = 0; r < sc.encode_reps; ++r) {
      ++res.ops;
      const double e0 = now_s();
      code->encode(stripe);
      cells[kEncode].add(now_s() - e0, static_cast<double>(k * chunk));
    }
    for (std::size_t i = k; i < n; ++i) {
      res.digest.add_bytes(stripe[i].data(), chunk);
    }
    const std::vector<ec::Buffer> ref = stripe;

    const auto decode_op = [&](const std::vector<std::size_t>& erased,
                               Kind kind) {
      for (const std::size_t i : erased) {
        std::memset(stripe[i].data(), 0, chunk);
      }
      ++res.ops;
      const double d0 = now_s();
      const bool ok = code->decode(stripe, erased);
      cells[kind].add(now_s() - d0, static_cast<double>(erased.size() * chunk));
      bool exact = ok;
      for (const std::size_t i : erased) {
        if (std::memcmp(stripe[i].data(), ref[i].data(), chunk) != 0) {
          exact = false;
          std::memcpy(stripe[i].data(), ref[i].data(), chunk);
        }
      }
      if (!exact) {
        res.fail(where + ": decode of " + pattern_str(erased) +
                 (ok ? " is not bit-exact" : " failed"));
      }
    };
    for (std::size_t i = 0; i < n; ++i) {
      const std::vector<std::size_t> single{i};
      for (int r = 0; r < sc.decode_reps; ++r) decode_op(single, kDecode1);
    }
    for (const auto& p : patterns) {
      for (int r = 0; r < sc.decode_reps; ++r) decode_op(p, kDecodeM);
    }
    if (stripe != ref) res.fail(where + ": decode changed a surviving chunk");
  }

  for (std::size_t size = 1; size <= code->m(); ++size) {
    for_each_pattern(n, size, [&](const std::vector<std::size_t>& erased) {
      ++res.ops;
      ++t.plan_calls;
      const double p0 = traced ? now_s() : 0;
      const ec::RepairDag dag = code->repair_dag(erased);
      if (traced) t.plan_s += now_s() - p0;
      if (dag.nodes.empty()) {
        // Beyond the reach of a non-MDS code (LRC, SHEC).
        if (fam.mds) {
          res.fail(std::string(fam.key) + ": no repair DAG for " +
                   pattern_str(erased));
        }
        return;
      }
      const std::vector<std::string> errors = dag.validate();
      if (!errors.empty()) {
        res.fail(std::string(fam.key) + ": repair DAG for " +
                 pattern_str(erased) + ": " + errors.front());
      }
      t.dag_nodes += dag.nodes.size();
      res.digest.add(dag.wire_fraction());
      res.digest.add(static_cast<std::uint64_t>(dag.nodes.size()));
    });
  }
}

}  // namespace

RepResult run_codec(const Options& opt, Recorder& rec) {
  RepResult res;
  const std::vector<SizeClass> sizes = size_classes(opt.smoke);
  std::vector<FamilyTimes> times(families().size());
  const double t0 = now_s();
  for (std::size_t f = 0; f < families().size(); ++f) {
    const Family& fam = families()[f];
    rec.begin_experiment(fam.key);
    try {
      run_family(fam, opt.seed * 0x9e3779b97f4a7c15ull + f, sizes, rec.on(),
                 res, times[f]);
    } catch (const std::exception& e) {
      res.fail(std::string(fam.key) + ": " + e.what());
    }
  }
  res.wall_s = now_s() - t0;

  // Total bytes over the summed call time of all five families.
  for (std::size_t s = 0; s < sizes.size(); ++s) {
    for (int kind = 0; kind < kKinds; ++kind) {
      double secs = 0;
      double bytes = 0;
      for (const FamilyTimes& t : times) {
        secs += t.cells[s][kind].secs;
        bytes += t.cells[s][kind].bytes;
      }
      res.rates[std::string(kKindNames[kind]) + "_gbps_" + sizes[s].suffix] =
          secs > 0 ? bytes / secs / 1e9 : 0;
    }
  }
  if (!rec.on()) return res;

  double make_code_s = 0;
  double plan_s = 0;
  for (std::size_t f = 0; f < times.size(); ++f) {
    const FamilyTimes& t = times[f];
    const std::string prefix = std::string("ec.") + families()[f].key + ".";
    for (std::size_t s = 0; s < sizes.size(); ++s) {
      for (int kind = 0; kind < kKinds; ++kind) {
        const Cell& c = t.cells[s][kind];
        const std::string name =
            prefix + kKindNames[kind] + "_ms_" + sizes[s].suffix;
        res.layers[name] = c.secs * 1e3;
        rec.add_self(name, c.secs);
        rec.add_calls(name, c.calls, c.secs, c.max_s);
      }
    }
    res.layers[prefix + "plan_us"] =
        t.plan_calls > 0 ? t.plan_s / static_cast<double>(t.plan_calls) * 1e6
                         : 0;
    res.layers[prefix + "dag_nodes"] = static_cast<double>(t.dag_nodes);
    make_code_s += t.make_code_s;
    plan_s += t.plan_s;
  }
  res.layers["ec.make_code_ms"] = make_code_s * 1e3;
  res.layers["ec.plan_ms"] = plan_s * 1e3;
  rec.add_self("ec.make_code_ms", make_code_s);
  rec.add_self("ec.plan_ms", plan_s);
  return res;
}

Metrics gf_probe(bool smoke) {
  Metrics out;
  // Source bytes streamed per measurement: enough to swamp timer cost.
  const std::size_t budget = smoke ? 4 * util::MiB : 128 * util::MiB;
  const std::pair<const char*, std::size_t> sizes[] = {
      {"4k", 4 * util::KiB}, {"4m", smoke ? 256 * util::KiB : 4 * util::MiB}};
  // RS(12,9)'s parity shape: 9 inputs, 3 outputs.
  const gf::Matrix parity =
      gf::Matrix::cauchy({1, 2, 3}, {4, 5, 6, 7, 8, 9, 10, 11, 12});
  const std::vector<std::size_t> rows = {0, 1, 2};
  util::Rng rng(0x6f);
  for (const auto& [suffix, len] : sizes) {
    std::vector<ec::Buffer> in(9, ec::Buffer(len));
    std::vector<ec::Buffer> outs(3, ec::Buffer(len));
    for (ec::Buffer& b : in) fill(b, rng);
    std::vector<const gf::Byte*> in_ptrs;
    std::vector<gf::Byte*> out_ptrs;
    for (const ec::Buffer& b : in) in_ptrs.push_back(b.data());
    for (ec::Buffer& b : outs) out_ptrs.push_back(b.data());

    const std::size_t reps = std::max<std::size_t>(1, budget / len);
    gf::mul_acc(0x53, in_ptrs[0], out_ptrs[0], len);  // warm-up
    double t0 = now_s();
    for (std::size_t r = 0; r < reps; ++r) {
      gf::mul_acc(static_cast<gf::Byte>(2 + r % 250), in_ptrs[r % 9],
                  out_ptrs[0], len);
    }
    out[std::string("gf.mul_acc_gbps_") + suffix] =
        static_cast<double>(reps * len) / (now_s() - t0) / 1e9;

    const std::size_t batches = std::max<std::size_t>(1, budget / (9 * len));
    parity.apply_rows(rows, in_ptrs, out_ptrs, len);  // warm-up
    t0 = now_s();
    for (std::size_t r = 0; r < batches; ++r) {
      parity.apply_rows(rows, in_ptrs, out_ptrs, len);
    }
    out[std::string("gf.apply_rows_gbps_") + suffix] =
        static_cast<double>(batches * 9 * len) / (now_s() - t0) / 1e9;
  }
  return out;
}

}  // namespace perfbench
