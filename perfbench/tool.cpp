// pb_tool: the benchmark's native helper.  Subcommands:
//
//   calib-server                 answers each stdin line with one timing of
//                                the calibration kernel, in seconds
//   gen-trace  N LANES EPOCHS P SEED OUT
//                                writes a seeded Bernoulli(P) offered stream
//                                in the PCST replay format (pcs_serve
//                                replay=) and prints the arrivals it holds
//   route-setup SPAWN_MONO       the route-batch set-up alone: prints the
//                                seconds from SPAWN_MONO to both switches built
//   route-batch SEED SECONDS TRACE
//                                the route-batch workload, in process, through
//                                pcs::make_switch + route_batch; prints "cal"
//                                before each block of calls and waits for a
//                                stdin line, so run.py can time its
//                                calibration server in between
//   client SOCKET CONNS SEED SECONDS TRACE
//                                the serve-daemon workload's closed-loop
//                                client, over the wire protocol
//   selftest-routing             feeds the routing checker corrupted routings
//
// Each workload subcommand prints one JSON object of raw measurements on its
// last stdout line; run.py turns them into metrics.  Timings are raw
// seconds; every timed section is bracketed by calibration-kernel timings so
// run.py can express it in reference seconds.  The route-batch kernel runs
// in run.py's calibration server, so its 4 MiB stay out of the routing
// process's resident set.
#include <dlfcn.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "serve/protocol.hpp"
#include "switch/make_switch.hpp"
#include "util/bitvec.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// CLOCK_MONOTONIC in seconds: the clock Python's time.monotonic() reads,
/// so run.py can time this process from the moment it spawned it.
double mono_now() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

/// Steal and total CPU ticks of the host so far (first line of /proc/stat),
/// or zeros where it cannot be read.
std::pair<double, double> host_steal() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double v[8] = {};
  in >> cpu;
  for (double& x : v) in >> x;
  if (!in || cpu != "cpu") return {0, 0};
  double total = 0;
  for (double x : v) total += x;
  return {v[7], total};
}

struct SplitMix {
  std::uint64_t s;
  explicit SplitMix(std::uint64_t seed) : s(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }
};

std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b) {
  SplitMix sm(a * 0x100000001b3ull ^ b);
  return sm.next();
}

// --- calibration kernel --------------------------------------------------
//
// Four independent pointer chases through one random 2^20-entry cycle
// (4 MiB of uint32): data-dependent loads over a working set past L2, the
// access shape of the plan gathers and queue bookkeeping.  The work is
// fixed, so its time tracks how fast this host runs memory-bound code at
// the moment; run.py divides every timed section by it.
class Calibration {
 public:
  static constexpr std::size_t kEntries = std::size_t{1} << 20;
  static constexpr std::size_t kSteps = std::size_t{3} << 19;

  Calibration() : next_(kEntries) {
    for (std::size_t i = 0; i < kEntries; ++i) next_[i] = static_cast<std::uint32_t>(i);
    SplitMix rng(0x5eed5eedull);
    // Sattolo's shuffle: one cycle through every entry.
    for (std::size_t i = kEntries - 1; i > 0; --i) {
      std::swap(next_[i], next_[rng.below(i)]);
    }
  }

  double run() {
    const auto t0 = Clock::now();
    std::uint32_t a = 0, b = 1u << 18, c = 2u << 18, d = 3u << 18;
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < kSteps; ++i) {
      a = next_[a];
      b = next_[b];
      c = next_[c];
      d = next_[d];
      acc += a ^ b ^ c ^ d;
    }
    sink_ += acc;
    return seconds_since(t0);
  }

  std::uint64_t sink() const { return sink_; }

 private:
  std::vector<std::uint32_t> next_;
  std::uint64_t sink_ = 0;
};

int cmd_calib_server() {
  Calibration cal;
  std::string line;
  while (std::getline(std::cin, line)) {
    std::printf("%.9f\n", cal.run());
    std::fflush(stdout);
  }
  return cal.sink() == 42 ? 3 : 0;  // keeps the kernel's result live
}

// --- allocation counter (pb_alloc, preloaded) ----------------------------

using AllocCountFn = std::uint64_t (*)();

AllocCountFn alloc_counter() {
  static AllocCountFn fn =
      reinterpret_cast<AllocCountFn>(dlsym(RTLD_DEFAULT, "pb_alloc_count"));
  return fn;
}

std::uint64_t alloc_count() {
  AllocCountFn fn = alloc_counter();
  return fn != nullptr ? fn() : 0;
}

// --- small JSON writer ---------------------------------------------------

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

template <class T, class F>
std::string json_list(const std::vector<T>& v, F&& fmt) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) out += ",";
    out += fmt(v[i]);
  }
  return out + "]";
}

// --- gen-trace -----------------------------------------------------------

void put(std::ofstream& os, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) os.put(static_cast<char>((v >> (8 * i)) & 0xff));
}

int cmd_gen_trace(std::size_t n, std::size_t lanes, std::size_t epochs, double p,
                  std::uint64_t seed, const std::string& out) {
  std::ofstream os(out, std::ios::binary);
  if (!os) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  }
  // PCST v1: magic, version, reserved, width, stream count; per stream the
  // epoch count, then per epoch the valid words and an empty dest list.
  put(os, 0x54534350u, 4);
  put(os, 1, 2);
  put(os, 0, 2);
  put(os, n, 8);
  put(os, lanes, 4);
  const std::size_t words = (n + 63) / 64;
  const auto threshold = static_cast<std::uint64_t>(p * 18446744073709551615.0);
  std::uint64_t arrivals = 0;
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    SplitMix rng(mix_seed(seed, lane));
    put(os, epochs, 4);
    for (std::size_t e = 0; e < epochs; ++e) {
      for (std::size_t w = 0; w < words; ++w) {
        std::uint64_t word = 0;
        const std::size_t bits = std::min<std::size_t>(64, n - 64 * w);
        for (std::size_t b = 0; b < bits; ++b) {
          if (rng.next() < threshold) word |= std::uint64_t{1} << b;
        }
        arrivals += static_cast<std::uint64_t>(__builtin_popcountll(word));
        put(os, word, 8);
      }
      put(os, 0, 4);
    }
  }
  os.flush();
  if (!os) return 1;
  std::printf("{\"arrivals\": %llu}\n", static_cast<unsigned long long>(arrivals));
  return 0;
}

// --- routing checks ------------------------------------------------------

/// Theorem 3: epsilon of the Revsort switch on n = side^2 inputs is
/// (2*ceil(sqrt(side)) - 1) * side.
std::size_t revsort_epsilon(std::size_t n) {
  std::size_t side = 1;
  while (side * side < n) ++side;
  std::size_t root = 1;
  while (root * root < side) ++root;
  return (2 * root - 1) * side;
}

/// Theorem 4: (s - 1)^2 for the Columnsort switch; r = 2^round(beta lg n),
/// at least sqrt(n), and s = n / r.
std::size_t columnsort_epsilon(std::size_t n, double beta) {
  unsigned lgn = 0;
  while ((std::size_t{1} << lgn) < n) ++lgn;
  long e = std::lround(beta * lgn);
  e = std::max<long>(e, (lgn + 1) / 2);
  e = std::min<long>(e, lgn);
  const std::size_t s = n >> e;
  return (s - 1) * (s - 1);
}

/// One routing of `valid` against the partial-concentrator contract: an
/// injection of valid inputs into outputs [0, m), input_of_output its
/// inverse, and between min(k, m - eps) and min(k, m) inputs routed.
/// Returns "" when it holds, else what broke.  `routed` gets the count.
std::string check_routing(const pcs::sw::SwitchRouting& r, const pcs::BitVec& valid,
                          std::size_t m, std::size_t eps, std::size_t* routed) {
  const std::size_t n = valid.size();
  if (r.output_of_input.size() != n) return "output_of_input has wrong size";
  if (r.input_of_output.size() != m) return "input_of_output has wrong size";
  const std::vector<std::uint64_t>& words = valid.words();
  const std::int32_t* ooi = r.output_of_input.data();
  const std::int32_t* ioo = r.input_of_output.data();
  std::size_t fwd = 0, k = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const bool is_valid = (words[i >> 6] >> (i & 63)) & 1u;
    k += is_valid;
    const std::int32_t o = ooi[i];
    if (o < 0) continue;
    if (!is_valid) return "an invalid input was routed";
    if (static_cast<std::size_t>(o) >= m) return "an output index is out of range";
    if (ioo[o] != static_cast<std::int32_t>(i))
      return "input_of_output is not the inverse (two inputs share an output?)";
    ++fwd;
  }
  std::size_t back = 0;
  for (std::size_t j = 0; j < m; ++j) {
    const std::int32_t i = ioo[j];
    if (i < 0) continue;
    if (static_cast<std::size_t>(i) >= n || ooi[i] != static_cast<std::int32_t>(j))
      return "output_of_input is not the inverse";
    ++back;
  }
  if (fwd != back) return "forward and backward routed counts differ";
  const std::size_t floor_k = std::min(k, eps >= m ? 0 : m - eps);
  if (fwd < floor_k) return "fewer inputs routed than the epsilon bound guarantees";
  if (fwd > std::min(k, m)) return "more inputs routed than min(k, m)";
  *routed = fwd;
  return "";
}

pcs::BitVec random_k_subset(std::size_t n, std::size_t k, SplitMix& rng,
                            std::vector<std::uint32_t>& scratch) {
  scratch.resize(n);
  for (std::size_t i = 0; i < n; ++i) scratch[i] = static_cast<std::uint32_t>(i);
  pcs::BitVec v(n);
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j = i + rng.below(n - i);
    std::swap(scratch[i], scratch[j]);
    v.set(scratch[i], true);
  }
  return v;
}

// --- route-batch ---------------------------------------------------------

struct RouteCase {
  pcs::SwitchSpec spec;
  std::size_t eps = 0;
  std::size_t patterns = 0;  // per route_batch call
  std::unique_ptr<pcs::sw::ConcentratorSwitch> sw;
  double compile_s = 0.0;
  // batches[level][i]: kPool seeded batches per k level.
  std::vector<std::vector<std::vector<pcs::BitVec>>> batches;
};

constexpr std::size_t kPool = 3;
constexpr std::size_t kRoundsPerBlock = 48;
// Untimed blocks before the measurement.  In some processes the first few
// hundred calls run 2-4x slower (a warm-up that varies from run to run and
// vanishes with glibc's mmap threshold pinned).
constexpr std::size_t kWarmupBlocks = 2;

std::vector<RouteCase> route_cases() {
  std::vector<RouteCase> cases(2);
  cases[0].spec.family = "revsort";
  cases[0].spec.n = std::size_t{1} << 14;
  cases[0].spec.m = 12288;
  cases[0].eps = revsort_epsilon(cases[0].spec.n);
  cases[0].patterns = 32;
  cases[1].spec.family = "columnsort";
  cases[1].spec.n = std::size_t{1} << 16;
  cases[1].spec.m = 49152;
  cases[1].spec.beta = 0.75;
  cases[1].eps = columnsort_epsilon(cases[1].spec.n, 0.75);
  cases[1].patterns = 8;
  for (RouteCase& c : cases) {
    const auto t0 = Clock::now();
    c.sw = pcs::make_switch(c.spec);
    c.compile_s = seconds_since(t0);
  }
  return cases;
}

/// The route-batch set-up alone (process start, two compiles): prints the
/// seconds since SPAWN_MONO and exits.
int cmd_route_setup(double spawn_mono) {
  const std::vector<RouteCase> cases = route_cases();
  std::printf("%.9f\n", mono_now() - spawn_mono);
  return cases.size() == 2 ? 0 : 1;
}

int cmd_route_batch(std::uint64_t seed, double seconds, bool trace) {
  std::vector<RouteCase> cases = route_cases();

  // Seeded inputs, made after the set-up is timed: per case, k below the
  // guaranteed capacity, at m, and past m.
  SplitMix rng(mix_seed(seed, 0x726f757465ull));
  std::vector<std::uint32_t> scratch;
  std::vector<std::vector<std::size_t>> ks;
  for (RouteCase& c : cases) {
    const std::size_t n = c.spec.n, m = c.spec.m;
    const std::size_t cap = c.eps >= m ? 0 : m - c.eps;
    ks.push_back({cap * 4 / 5, m, std::min(n, m + m / 4)});
    c.batches.resize(3);
    for (std::size_t level = 0; level < 3; ++level) {
      for (std::size_t b = 0; b < kPool; ++b) {
        std::vector<pcs::BitVec> batch;
        for (std::size_t p = 0; p < c.patterns; ++p)
          batch.push_back(random_k_subset(n, ks.back()[level], rng, scratch));
        c.batches[level].push_back(std::move(batch));
      }
    }
  }

  // Hands the host to the calibration server between blocks.
  auto calibrate = [] {
    std::printf("cal\n");
    std::fflush(stdout);
    std::string line;
    return static_cast<bool>(std::getline(std::cin, line));
  };
  struct Block {
    double route_s = 0, msgs = 0, calls = 0, cpu_s = 0, allocs = 0;
    bool instrumented = false;
  };
  std::vector<Block> blocks;
  std::vector<double> call_s;       // every call's raw latency
  std::vector<std::size_t> call_block;
  std::size_t attempted = 0, failed = 0, wrong = 0;
  std::string first_failure, first_wrong;
  std::size_t warmup_left = kWarmupBlocks;
  double warmup_s = 0, warmup_msgs = 0;
  auto start = Clock::now();
  std::size_t round = 0;
  while (blocks.empty() || seconds_since(start) < seconds) {
    Block blk;
    // Traced runs alternate instrumented and plain blocks; the difference
    // prices the instrumentation (obs.trace_overhead).
    blk.instrumented = trace && blocks.size() % 2 == 0;
    for (std::size_t r = 0; r < kRoundsPerBlock; ++r, ++round) {
      for (RouteCase& c : cases) {
        for (std::size_t level = 0; level < 3; ++level) {
          const auto& batch = c.batches[level][round % kPool];
          std::uint64_t a0 = 0;
          double cpu0 = 0;
          if (blk.instrumented) {
            a0 = alloc_count();
            cpu0 = cpu_seconds();
          }
          ++attempted;
          std::vector<pcs::sw::SwitchRouting> out;
          const auto t0 = Clock::now();
          try {
            out = c.sw->route_batch(batch);
          } catch (const std::exception& e) {
            ++failed;  // a call that throws fails; its time is not counted
            if (first_failure.empty()) first_failure = e.what();
            continue;
          }
          const double dt = seconds_since(t0);
          if (blk.instrumented) {
            blk.cpu_s += cpu_seconds() - cpu0;
            blk.allocs += static_cast<double>(alloc_count() - a0);
          }
          blk.route_s += dt;
          blk.calls += 1;
          call_s.push_back(dt);
          call_block.push_back(blocks.size());
          bool ok = out.size() == batch.size();
          for (std::size_t p = 0; ok && p < batch.size(); ++p) {
            std::size_t routed = 0;
            const std::string why =
                check_routing(out[p], batch[p], c.spec.m, c.eps, &routed);
            if (!why.empty()) {
              ok = false;
              if (first_wrong.empty()) first_wrong = c.spec.family + ": " + why;
            }
            blk.msgs += static_cast<double>(routed);
          }
          if (!ok) ++wrong;
        }
      }
    }
    if (warmup_left > 0) {
      --warmup_left;
      warmup_s += blk.route_s;
      warmup_msgs += blk.msgs;
      call_s.resize(call_s.size() - static_cast<std::size_t>(blk.calls));
      call_block.resize(call_s.size());
      if (warmup_left > 0) continue;
      start = Clock::now();  // the measurement starts here
    } else {
      blocks.push_back(blk);
    }
    if (!calibrate()) return 1;
  }
  const double total_allocs = static_cast<double>(alloc_count());

  std::ostringstream os;
  os << "{\"blocks\": "
     << json_list(blocks,
                  [](const Block& b) {
                    return "{\"route_s\": " + num(b.route_s) + ", \"msgs\": " +
                           num(b.msgs) + ", \"calls\": " + num(b.calls) +
                           ", \"cpu_s\": " + num(b.cpu_s) + ", \"allocs\": " +
                           num(b.allocs) + ", \"instrumented\": " +
                           (b.instrumented ? "true" : "false") + "}";
                  })
     << ", \"call_s\": " << json_list(call_s, num) << ", \"call_block\": "
     << json_list(call_block, [](std::size_t v) { return std::to_string(v); })
     << ", \"compile_s\": "
     << json_list(cases, [](const RouteCase& c) { return num(c.compile_s); })
     << ", \"wires_per_call\": "
     << json_list(cases,
                  [](const RouteCase& c) {
                    return num(static_cast<double>(c.patterns * c.spec.n));
                  })
     << ", \"warmup_s\": " << num(warmup_s) << ", \"warmup_msgs\": " << num(warmup_msgs)
     << ", \"levels\": 3, \"total_allocs\": " << num(total_allocs)
     << ", \"alloc_counter\": " << (alloc_counter() ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"first_failure\": " << quoted(first_failure) << ", \"wrong\": " << wrong
     << ", \"first_wrong\": " << quoted(first_wrong) << "}";
  std::printf("%s\n", os.str().c_str());
  return 0;
}

// --- serve-daemon client -------------------------------------------------

enum class ReqKind { kHot, kDistinct, kFabric, kScrape };

const char* kind_name(ReqKind k) {
  switch (k) {
    case ReqKind::kHot: return "hot";
    case ReqKind::kDistinct: return "distinct";
    case ReqKind::kFabric: return "fabric";
    case ReqKind::kScrape: return "scrape";
  }
  return "?";
}

struct Planned {
  ReqKind kind;
  pcs::serve::CampaignRequest req;
};

struct Outcome {
  ReqKind kind;
  std::size_t round = 0;
  double rtt_s = 0, encode_s = 0, decode_s = 0;
  bool failed = true;  // no reply, or the daemon refused or failed it
  bool ok = false;     // replied and passed the reply checks
  std::string why;
  pcs::serve::CampaignReply reply;
  pcs::serve::CampaignRequest req;
  std::string scrape;
};

// A round: per connection, 14 requests on two hot single-switch specs, one
// on a spec never requested before (a plan-cache miss and a compile), one
// 3-hop omega fabric campaign; connection 0 also scrapes mid-round.
std::vector<Planned> plan_round(std::uint64_t seed, std::size_t round,
                                std::size_t conn, std::size_t conns) {
  SplitMix rng(mix_seed(mix_seed(seed, round), conn));
  auto base = [&](const char* family) {
    pcs::serve::CampaignRequest r;
    r.tenant = "tenant" + std::to_string(conn);
    r.family = family;
    r.arrival = "bernoulli";
    r.seed = rng.next() >> 16;
    r.lanes = 2;
    r.queue_depth = 4;
    r.policy = "buffer-retry";
    r.warmup_epochs = 8;
    r.measure_epochs = 32;
    r.drain_epochs_max = 256;
    return r;
  };
  static const double kLoads[] = {0.2, 0.4, 0.6};
  std::vector<Planned> plan;
  for (std::size_t i = 0; i < 16; ++i) {
    if (i == 5) {
      // Unique m per (round, connection): never requested before.
      pcs::serve::CampaignRequest r = base("revsort");
      r.n = 16384;
      r.m = static_cast<std::uint32_t>(4096 + round * conns + conn);
      r.load = 0.3;
      r.lanes = 1;
      r.measure_epochs = 16;
      plan.push_back({ReqKind::kDistinct, r});
    } else if (i == 11) {
      pcs::serve::CampaignRequest r = base("revsort");
      r.topology = "omega";
      r.n = 256;
      r.m = 192;
      r.load = 0.4;
      r.route = "deterministic";
      r.epochs_in_flight = 1;
      r.deflect_max = 0;
      plan.push_back({ReqKind::kFabric, r});
    } else {
      const bool col = rng.below(2) == 1;
      pcs::serve::CampaignRequest r = base(col ? "columnsort" : "revsort");
      r.n = 1024;
      r.m = 768;
      r.beta = col ? 0.75 : -1.0;
      r.load = kLoads[rng.below(3)];
      plan.push_back({ReqKind::kHot, r});
    }
    if (conn == 0 && i == 8) plan.push_back({ReqKind::kScrape, {}});
  }
  return plan;
}

class Connection {
 public:
  explicit Connection(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::snprintf(addr.sun_path, sizeof addr.sun_path, "%s", path.c_str());
    if (fd_ < 0 || ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      if (fd_ >= 0) ::close(fd_);
      fd_ = -1;
    }
  }
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool ok() const { return fd_ >= 0; }

  /// Sends one whole frame and reads the reply payload (length prefix
  /// stripped).  False on any socket failure.
  bool round_trip(const std::vector<std::uint8_t>& frame,
                  std::vector<std::uint8_t>* payload) {
    std::size_t off = 0;
    while (off < frame.size()) {
      const ssize_t put = ::write(fd_, frame.data() + off, frame.size() - off);
      if (put <= 0) return false;
      off += static_cast<std::size_t>(put);
    }
    std::uint8_t len_bytes[4];
    if (!read_exact(len_bytes, 4)) return false;
    const std::uint32_t len = static_cast<std::uint32_t>(len_bytes[0]) |
                              static_cast<std::uint32_t>(len_bytes[1]) << 8 |
                              static_cast<std::uint32_t>(len_bytes[2]) << 16 |
                              static_cast<std::uint32_t>(len_bytes[3]) << 24;
    if (len > pcs::serve::kMaxFrameBytes) return false;
    payload->resize(len);
    return read_exact(payload->data(), len);
  }

 private:
  bool read_exact(std::uint8_t* dst, std::size_t size) {
    std::size_t off = 0;
    while (off < size) {
      const ssize_t got = ::read(fd_, dst + off, size - off);
      if (got <= 0) return false;
      off += static_cast<std::size_t>(got);
    }
    return true;
  }
  int fd_ = -1;
};

/// Value of a counter in a scrape's JSON ("name": value), or -1.
double scrape_value(const std::string& json, const std::string& name) {
  const std::string key = "\"" + name + "\":";
  const std::size_t at = json.find(key);
  if (at == std::string::npos) return -1;
  return std::strtod(json.c_str() + at + key.size(), nullptr);
}

Outcome perform(Connection& conn, const Planned& p, std::size_t round) {
  Outcome o;
  o.kind = p.kind;
  o.round = round;
  o.req = p.req;
  auto t0 = Clock::now();
  const std::vector<std::uint8_t> frame =
      p.kind == ReqKind::kScrape ? pcs::serve::encode_scrape_request()
                                 : pcs::serve::encode_campaign_request(p.req);
  o.encode_s = seconds_since(t0);
  std::vector<std::uint8_t> payload;
  t0 = Clock::now();
  if (!conn.round_trip(frame, &payload)) {
    o.why = "connection failed";
    return o;
  }
  o.failed = false;
  const auto t1 = Clock::now();
  pcs::serve::Frame f{};
  try {
    f = pcs::serve::decode_payload(payload.data(), payload.size());
  } catch (const std::exception& e) {
    o.why = std::string("undecodable reply: ") + e.what();
    return o;
  }
  const auto t2 = Clock::now();
  o.rtt_s = std::chrono::duration<double>(t2 - t0).count();
  o.decode_s = std::chrono::duration<double>(t2 - t1).count();
  if (p.kind == ReqKind::kScrape) {
    if (!f.scrape_reply) {
      o.why = "scrape answered with another frame type";
      return o;
    }
    o.scrape = f.scrape_reply->json;
    const double off = scrape_value(o.scrape, "total.offered");
    const double sum = scrape_value(o.scrape, "total.delivered") +
                       scrape_value(o.scrape, "total.dropped") +
                       scrape_value(o.scrape, "total.residual");
    o.ok = off == sum;
    if (!o.ok) o.why = "scrape breaks offered == delivered + dropped + residual";
    return o;
  }
  if (!f.campaign_reply) {
    o.why = "campaign answered with another frame type";
    return o;
  }
  o.reply = *f.campaign_reply;
  const auto& r = o.reply;
  if (r.status != pcs::serve::Status::kOk) {
    o.failed = true;
    o.why = "status " + std::to_string(static_cast<int>(r.status)) + ": " + r.reason;
  } else if (r.offered != r.delivered + r.dropped + r.residual) {
    o.why = "reply breaks offered == delivered + dropped + residual";
  } else if (r.delivered == 0) {
    o.why = "campaign delivered nothing";
  } else if (p.kind == ReqKind::kDistinct && r.cache_hit) {
    o.why = "a never-requested spec was a cache hit";
  } else {
    o.ok = true;
  }
  return o;
}

std::string request_json(const pcs::serve::CampaignRequest& q) {
  return "{\"family\": " + quoted(q.family) + ", \"n\": " + std::to_string(q.n) +
         ", \"m\": " + std::to_string(q.m) + ", \"beta\": " + num(q.beta) +
         ", \"load\": " + num(q.load) + ", \"seed\": " + std::to_string(q.seed) +
         ", \"lanes\": " + std::to_string(q.lanes) + ", \"queue_depth\": " +
         std::to_string(q.queue_depth) + ", \"policy\": " + quoted(q.policy) +
         ", \"warmup_epochs\": " + std::to_string(q.warmup_epochs) +
         ", \"measure_epochs\": " + std::to_string(q.measure_epochs) +
         ", \"drain_epochs_max\": " + std::to_string(q.drain_epochs_max) +
         ", \"topology\": " + quoted(q.topology) + ", \"route\": " + quoted(q.route) +
         ", \"epochs_in_flight\": " + std::to_string(q.epochs_in_flight) +
         ", \"deflect_max\": " + std::to_string(q.deflect_max) + "}";
}

int cmd_client(const std::string& socket_path, std::size_t conns, std::uint64_t seed,
               double seconds, bool trace) {
  std::vector<std::unique_ptr<Connection>> links;
  for (std::size_t c = 0; c < conns; ++c) {
    links.push_back(std::make_unique<Connection>(socket_path));
    if (!links.back()->ok()) {
      std::fprintf(stderr, "cannot connect to %s\n", socket_path.c_str());
      return 1;
    }
  }
  Calibration cal;
  std::vector<double> calib{cal.run()};
  std::vector<double> round_wall;
  std::vector<std::pair<double, double>> steal{host_steal()};
  std::vector<std::vector<Outcome>> per_conn(conns);
  // Warm-up rounds for kClientWarmupSeconds, then measured rounds for
  // `seconds`.  A fresh daemon's first second or two of requests can run
  // 2x slower (memory the process touches for the first time).
  constexpr double kClientWarmupSeconds = 2.0;
  auto start = Clock::now();
  std::size_t round = 0, warmup_rounds = 0;
  bool warming = true;
  while (warming || round == warmup_rounds || seconds_since(start) < seconds) {
    if (warming && round > 0 && seconds_since(start) >= kClientWarmupSeconds) {
      warming = false;
      warmup_rounds = round;
      start = Clock::now();
    }
    const auto t0 = Clock::now();
    std::vector<std::thread> workers;
    for (std::size_t c = 0; c < conns; ++c) {
      workers.emplace_back([&, c, round] {
        for (const Planned& p : plan_round(seed, round, c, conns))
          per_conn[c].push_back(perform(*links[c], p, round));
      });
    }
    for (std::thread& t : workers) t.join();
    round_wall.push_back(seconds_since(t0));
    steal.push_back(host_steal());
    calib.push_back(cal.run());
    ++round;
  }
  // The final scrape, after every campaign has been answered.
  Outcome final_scrape = perform(*links[0], {ReqKind::kScrape, {}}, round);

  // Traced runs also time a compile of a cache-miss spec in process.
  std::vector<double> compile_s;
  if (trace) {
    for (std::size_t i = 0; i < 3; ++i) {
      pcs::SwitchSpec spec;
      spec.family = "revsort";
      spec.n = 16384;
      spec.m = 4096 + 3000 + i;
      const auto t0 = Clock::now();
      auto sw = pcs::make_switch(spec);
      compile_s.push_back(seconds_since(t0));
    }
  }

  std::ostringstream os;
  os << "{\"calib\": " << json_list(calib, num)
     << ", \"warmup_rounds\": " << warmup_rounds
     << ", \"round_wall\": " << json_list(round_wall, num)
     << ", \"steal\": "
     << json_list(steal,
                  [](const std::pair<double, double>& st) {
                    return "[" + num(st.first) + ", " + num(st.second) + "]";
                  })
     << ", \"requests\": [";
  bool first = true;
  std::size_t samples = 0;
  for (const auto& outs : per_conn) {
    for (const Outcome& o : outs) {
      os << (first ? "" : ",") << "{\"kind\": \"" << kind_name(o.kind)
         << "\", \"round\": " << o.round << ", \"rtt_s\": " << num(o.rtt_s)
         << ", \"encode_s\": " << num(o.encode_s) << ", \"decode_s\": "
         << num(o.decode_s) << ", \"ok\": " << (o.ok ? "true" : "false")
         << ", \"failed\": " << (o.failed ? "true" : "false")
         << ", \"why\": " << quoted(o.why) << ", \"cache_hit\": "
         << (o.reply.cache_hit ? "true" : "false") << ", \"offered\": "
         << o.reply.offered << ", \"delivered\": " << o.reply.delivered
         << ", \"dropped\": " << o.reply.dropped << ", \"residual\": "
         << o.reply.residual << ", \"spec\": \"" << o.req.family << "/" << o.req.n
         << "/" << o.req.m << "/" << num(o.req.beta) << "\"";
      // The first two requests of each kind in round 0 carry their full
      // shape, so run.py can rerun them through pcs_serve.
      if (o.round == 0 && o.kind != ReqKind::kScrape && samples < 12 &&
          (&outs == &per_conn[0] || &outs == &per_conn[conns - 1])) {
        os << ", \"request\": " << request_json(o.req);
        ++samples;
      }
      os << "}";
      first = false;
    }
  }
  os << "], \"final_scrape_ok\": " << (final_scrape.ok ? "true" : "false")
     << ", \"final_scrape\": " << quoted(final_scrape.scrape)
     << ", \"compile_s\": " << json_list(compile_s, num) << "}";
  std::printf("%s\n", os.str().c_str());
  return 0;
}

// --- routing-checker self-test -------------------------------------------

int cmd_selftest_routing() {
  pcs::SwitchSpec spec;
  spec.family = "revsort";
  spec.n = 256;
  spec.m = 192;
  auto sw = pcs::make_switch(spec);
  const std::size_t eps = revsort_epsilon(256);
  SplitMix rng(7);
  std::vector<std::uint32_t> scratch;
  const pcs::BitVec valid = random_k_subset(256, 150, rng, scratch);
  const pcs::sw::SwitchRouting good = sw->route_batch({valid}).at(0);
  std::size_t routed = 0;
  int bad = 0;
  if (!check_routing(good, valid, 192, eps, &routed).empty()) {
    std::printf("FAIL: the checker rejects a correct routing\n");
    ++bad;
  }
  struct Corruption {
    const char* name;
    void (*apply)(pcs::sw::SwitchRouting&, const pcs::BitVec&);
  };
  const Corruption corruptions[] = {
      {"two inputs mapped to one output",
       [](pcs::sw::SwitchRouting& r, const pcs::BitVec&) {
         std::int32_t first = -1;
         for (auto& o : r.output_of_input) {
           if (o < 0) continue;
           if (first < 0) first = o;
           else { o = first; break; }
         }
       }},
      {"output out of range",
       [](pcs::sw::SwitchRouting& r, const pcs::BitVec&) {
         for (auto& o : r.output_of_input)
           if (o >= 0) { o = 192; break; }
       }},
      {"invalid input routed",
       [](pcs::sw::SwitchRouting& r, const pcs::BitVec& v) {
         for (std::size_t i = 0; i < v.size(); ++i)
           if (!v.get(i)) {
             r.output_of_input[i] = 0;
             break;
           }
       }},
      {"inverse broken",
       [](pcs::sw::SwitchRouting& r, const pcs::BitVec&) {
         for (auto& i : r.input_of_output)
           if (i >= 0) { i = -1; break; }
       }},
      {"messages dropped below the bound",
       [](pcs::sw::SwitchRouting& r, const pcs::BitVec&) {
         for (auto& o : r.output_of_input) o = -1;
         for (auto& i : r.input_of_output) i = -1;
       }},
  };
  for (const Corruption& c : corruptions) {
    pcs::sw::SwitchRouting r = good;
    c.apply(r, valid);
    const std::string why = check_routing(r, valid, 192, eps, &routed);
    std::printf("%s: %s\n", c.name, why.empty() ? "NOT DETECTED" : why.c_str());
    if (why.empty()) ++bad;
  }
  return bad == 0 ? 0 : 1;
}

double arg_d(char** argv, int i) { return std::strtod(argv[i], nullptr); }
std::uint64_t arg_u(char** argv, int i) { return std::strtoull(argv[i], nullptr, 10); }

}  // namespace

int main(int argc, char** argv) {
  const std::string cmd = argc > 1 ? argv[1] : "";
  try {
    if (cmd == "calib-server" && argc == 2) return cmd_calib_server();
    if (cmd == "gen-trace" && argc == 8)
      return cmd_gen_trace(arg_u(argv, 2), arg_u(argv, 3), arg_u(argv, 4),
                           arg_d(argv, 5), arg_u(argv, 6), argv[7]);
    if (cmd == "route-setup" && argc == 3) return cmd_route_setup(arg_d(argv, 2));
    if (cmd == "route-batch" && argc == 5)
      return cmd_route_batch(arg_u(argv, 2), arg_d(argv, 3), arg_u(argv, 4) != 0);
    if (cmd == "client" && argc == 7)
      return cmd_client(argv[2], arg_u(argv, 3), arg_u(argv, 4), arg_d(argv, 5),
                        arg_u(argv, 6) != 0);
    if (cmd == "selftest-routing" && argc == 2) return cmd_selftest_routing();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pb_tool %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
  std::fprintf(stderr, "usage: see the comment at the top of tool.cpp\n");
  return 2;
}
