// perfbench: the repository benchmark (README.md in this directory).
//
// One binary, three roles:
//
//   * launcher (default): runs one workload for --seconds, checks every
//     output, and prints one JSON line with the operation counts, the
//     end-to-end metrics and, with --trace 1, the per-layer metrics;
//   * rank (--rank-kernel): one process of a 2-rank tcp or shm machine,
//     started by the launcher with util::net_rank_env, both ranks at once;
//   * kernels: rpc (request/reply), storm (fire-and-forget parcels) and
//     apps (convolution pipeline and rebalanced hot spot).
//
// Every workload runs all three kernels, so every run reports every
// metric; the workload decides which kernel gets half of the measured time
// (the other two get a quarter each).  Per-layer numbers are taken from
// outside the runtime: the benchmark times calls into public functions,
// stamps steady_clock (CLOCK_MONOTONIC, comparable across the ranks of one
// host) inside its own action bodies, and reads the modules' public stats()
// and link counters.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/action.hpp"
#include "core/runtime.hpp"
#include "lco/lco.hpp"
#include "parcel/action_registry.hpp"
#include "patterns/patterns.hpp"
#include "quantile.hpp"
#include "util/subproc.hpp"

namespace {

using namespace px;
using i64 = std::int64_t;
using u64 = std::uint64_t;

i64 now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void busy_spin_ns(i64 ns) {
  const i64 until = now_ns() + ns;
  while (now_ns() < until) {
  }
}

// ------------------------------------------------------------ options

struct options {
  std::string workload;        // rpc | storm | apps
  u64 seed = 1;
  double seconds = 10;
  bool trace = false;
  // Negative self-tests: corrupts one checked value (reply, hits,
  // checksum, hops) or makes rank 1 exit nonzero (rank_exit).
  std::string corrupt;
  std::string tmp = ".";       // where ranks leave their result files
  // Rank role (set by the launcher on the ranks it starts).
  std::string kernel;          // rpc | storm
  i64 slice_ns = 0;
  std::string out;
};

// --------------------------------------------------------- result files
//
// A launch's results: named integer series (ns stamps, counts).  Ranks
// write rank 0's record to a file the launcher reads back.

using record = std::map<std::string, std::vector<i64>>;

bool write_record(const std::string& path, const record& rec) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const auto& [key, values] : rec) {
    std::fprintf(f, "%s %zu", key.c_str(), values.size());
    for (i64 v : values) std::fprintf(f, " %lld", static_cast<long long>(v));
    std::fputc('\n', f);
  }
  return std::fclose(f) == 0;
}

bool read_record(const std::string& path, record* rec) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return false;
  char key[256];
  std::size_t n = 0;
  bool ok = true;
  while (std::fscanf(f, "%255s %zu", key, &n) == 2) {
    auto& values = (*rec)[key];
    values.resize(n);
    for (std::size_t i = 0; i < n && ok; ++i) {
      long long v = 0;
      ok = std::fscanf(f, "%lld", &v) == 1;
      values[i] = v;
    }
  }
  std::fclose(f);
  return ok && !rec->empty();
}

i64 first_of(const record& rec, const std::string& key) {
  const auto it = rec.find(key);
  return it == rec.end() || it->second.empty() ? 0 : it->second.front();
}

const std::vector<i64>& series(const record& rec, const std::string& key) {
  static const std::vector<i64> empty;
  const auto it = rec.find(key);
  return it == rec.end() ? empty : it->second;
}

// ----------------------------------------------------- counter snapshots
//
// Public counters of one locality: parcel_port_stats, scheduler_stats,
// the transport's link counters and backend rows, and the distributed
// transport's lost-parcel book.  The driver sums its own with the peer's
// (fetched by the snap action) at phase boundaries, so both sides are
// read at the same point of the request stream.

enum snap_field : std::size_t {
  kFrames,
  kEager,
  kThreshold,
  kSleeps,
  kSuspends,
  kMsgsTx,
  kBytesTx,
  kWakeups,
  kRingFull,
  kLost,
  kSnapFields
};

std::vector<i64> local_snap(core::runtime& rt, gas::locality_id id) {
  std::vector<i64> v(kSnapFields, 0);
  const auto ps = rt.port(id).stats();
  v[kFrames] = static_cast<i64>(ps.frames_sent);
  v[kEager] = static_cast<i64>(ps.eager_flushes);
  v[kThreshold] = static_cast<i64>(ps.threshold_flushes);
  const auto ss = rt.at(id).sched().stats();
  v[kSleeps] = static_cast<i64>(ss.sleeps);
  v[kSuspends] = static_cast<i64>(ss.suspends);
  const auto link = rt.transport().link(id);
  v[kMsgsTx] = static_cast<i64>(link.msgs_tx);
  v[kBytesTx] = static_cast<i64>(link.bytes_tx);
  for (const auto& row : rt.transport().extra_link_counters(id)) {
    if (std::strcmp(row.name, "wakeups") == 0) {
      v[kWakeups] = static_cast<i64>(row.value);
    } else if (std::strcmp(row.name, "ring_full_waits") == 0) {
      v[kRingFull] = static_cast<i64>(row.value);
    }
  }
  if (rt.dist() != nullptr) {
    v[kLost] = static_cast<i64>(rt.dist()->parcels_lost_total());
  }
  return v;
}

std::vector<i64> peer_snap() {
  core::locality* here = core::this_locality();
  return local_snap(here->rt(), here->id());
}
PX_REGISTER_ACTION(peer_snap)

// Driver-side snapshot of both ends of the 2-locality machine.
std::vector<i64> pair_snap(core::runtime& rt, gas::gid peer) {
  auto v = local_snap(rt, core::this_locality()->id());
  const auto remote = core::async<&peer_snap>(peer).get();
  for (std::size_t i = 0; i < kSnapFields; ++i) v[i] += remote[i];
  return v;
}

std::vector<i64> minus(const std::vector<i64>& a, const std::vector<i64>& b) {
  std::vector<i64> d(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) d[i] = a[i] - b[i];
  return d;
}

void accumulate(std::vector<i64>& into, const std::vector<i64>& d) {
  if (into.empty()) into.assign(d.size(), 0);
  for (std::size_t i = 0; i < d.size(); ++i) into[i] += d[i];
}

// Boot stamp of this process (after runtime::start returned).
std::atomic<i64> g_boot_ns{0};
i64 peer_boot_ns() { return g_boot_ns.load(); }
PX_REGISTER_ACTION(peer_boot_ns)

// ================================================================== rpc

constexpr int kRpcWarmup = 200;
constexpr u64 kRpcFibers = 64;
constexpr std::size_t kStampCap = std::size_t{1} << 18;

u64 rpc_echo(u64 x) { return x + 1; }
PX_REGISTER_ACTION(rpc_echo)

// Traced body: stamps its own start and end by request index.
std::unique_ptr<std::atomic<i64>[]> g_body_start;
std::unique_ptr<std::atomic<i64>[]> g_body_end;

u64 rpc_echo_traced(u64 x) {
  const i64 start = now_ns();
  const u64 reply = x + 1;
  if (x < kStampCap) {
    g_body_start[x].store(start, std::memory_order_relaxed);
    g_body_end[x].store(now_ns(), std::memory_order_relaxed);
  }
  return reply;
}
PX_REGISTER_ACTION(rpc_echo_traced)

std::vector<i64> peer_body_stamps(u64 n) {
  std::vector<i64> out;
  out.reserve(2 * n);
  for (u64 i = 0; i < n; ++i) out.push_back(g_body_start[i].load());
  for (u64 i = 0; i < n; ++i) out.push_back(g_body_end[i].load());
  return out;
}
PX_REGISTER_ACTION(peer_body_stamps)

void alloc_body_stamps() {
  g_body_start = std::make_unique<std::atomic<i64>[]>(kStampCap);
  g_body_end = std::make_unique<std::atomic<i64>[]>(kStampCap);
}

// Phase 1: exactly one request outstanding.  Phase 2: 64 fibers, each
// with one outstanding request.  Each phase gets half the slice.
void rpc_kernel(core::runtime& rt, bool driver, const options& o,
                record& rec) {
  const gas::gid peer = rt.locality_gid(1);
  const i64 half = o.slice_ns / 2;
  rt.run([&] {
    if (!driver) return;
    for (int i = 0; i < kRpcWarmup; ++i) {
      const u64 x = (u64{1} << 48) + static_cast<u64>(i);
      (void)core::async<&rpc_echo>(peer, x).get();
    }
    const auto before = pair_snap(rt, peer);
    std::vector<i64> rtt, t0s, t1s, t4s;
    u64 bad = 0;
    const bool corrupt = o.corrupt == "reply";
    const i64 deadline = now_ns() + half;
    for (u64 i = 0;; ++i) {
      const i64 t0 = now_ns();
      auto fut = o.trace ? core::async<&rpc_echo_traced>(peer, i)
                         : core::async<&rpc_echo>(peer, i);
      const i64 t1 = o.trace ? now_ns() : 0;
      u64 v = fut.get();
      const i64 t4 = now_ns();
      if (corrupt && i == 7) v += 1;
      bad += v != i + 1 ? 1 : 0;
      rtt.push_back(t4 - t0);
      if (o.trace && i < kStampCap) {
        t0s.push_back(t0);
        t1s.push_back(t1);
        t4s.push_back(t4);
      }
      if (t4 >= deadline) break;
    }
    rec["p1.ctr"] = minus(pair_snap(rt, peer), before);
    rec["p1.requests"] = {static_cast<i64>(rtt.size())};
    rec["p1.bad"] = {static_cast<i64>(bad)};
    rec["p1.rtt_ns"] = std::move(rtt);
    if (o.trace) {
      const u64 n = t0s.size();
      const auto body = core::async<&peer_body_stamps>(peer, n).get();
      rec["p1.t0"] = std::move(t0s);
      rec["p1.t1"] = std::move(t1s);
      rec["p1.t2"] = std::vector<i64>(body.begin(), body.begin() + n);
      rec["p1.t3"] = std::vector<i64>(body.begin() + n, body.end());
      rec["p1.t4"] = std::move(t4s);
    }
  });
  rt.run([&] {
    if (!driver) return;
    const auto before = pair_snap(rt, peer);
    std::atomic<u64> requests{0};
    std::atomic<u64> bad{0};
    lco::and_gate all(kRpcFibers);
    const i64 start = now_ns();
    const i64 deadline = start + half;
    core::locality& here = *core::this_locality();
    for (u64 f = 0; f < kRpcFibers; ++f) {
      here.spawn([&, f] {
        for (u64 k = 0;; ++k) {
          const u64 x = (f << 32) | k;
          if (core::async<&rpc_echo>(peer, x).get() != x + 1) {
            bad.fetch_add(1, std::memory_order_relaxed);
          }
          requests.fetch_add(1, std::memory_order_relaxed);
          if (now_ns() >= deadline) break;
        }
        all.signal();
      });
    }
    all.wait();
    const i64 elapsed = now_ns() - start;
    rec["p2.ctr"] = minus(pair_snap(rt, peer), before);
    rec["p2.requests"] = {static_cast<i64>(requests.load())};
    rec["p2.bad"] = {static_cast<i64>(bad.load())};
    rec["p2.elapsed_ns"] = {elapsed};
  });
}

// ================================================================ storm

constexpr u64 kStormParcels = 100'000;
constexpr std::uint32_t kMaxTrials = 4096;

std::atomic<u64> g_hits{0};
std::atomic<i64> g_first_hit{0};
std::atomic<i64> g_last_hit{0};
bool g_stamp_hits = false;  // traced launches stamp first/last hit
std::array<std::atomic<std::uint8_t>, kMaxTrials> g_more{};

void note_hit() {
  if (g_stamp_hits) {
    const i64 t = now_ns();
    i64 unset = 0;
    g_first_hit.compare_exchange_strong(unset, t);
    i64 last = g_last_hit.load(std::memory_order_relaxed);
    while (last < t && !g_last_hit.compare_exchange_weak(last, t)) {
    }
  }
  g_hits.fetch_add(1, std::memory_order_relaxed);
}

void storm_hit(std::vector<std::uint8_t> blob) {
  (void)blob;
  note_hit();
}
PX_REGISTER_ACTION(storm_hit)

// Dispatch-only twin of storm_hit: registered raw, so it runs inline on
// the delivery path without decoding its argument or spawning a fiber.
// The typed-minus-raw per-parcel cost is the fiber spawn layer.
void storm_raw_hit(void* ctx, const parcel::parcel_view& pv) {
  (void)ctx;
  (void)pv;
  note_hit();
}
const parcel::action_id g_raw_hit_id =
    parcel::action_registry::global().register_action("perfbench.raw_hit",
                                                      &storm_raw_hit);

// Returns the previous trial's {hits, first hit, last hit} and resets them;
// runs between trials, when no storm parcel is in flight.
std::vector<i64> storm_collect() {
  return {static_cast<i64>(g_hits.exchange(0)), g_first_hit.exchange(0),
          g_last_hit.exchange(0)};
}
PX_REGISTER_ACTION(storm_collect)

// Whether the ranks run another trial (run() is collective, so the peer
// must learn it before its quiescence wait returns).
void storm_more(std::uint32_t trial, std::uint8_t more) {
  g_more[trial].store(more);
}
PX_REGISTER_ACTION(storm_more)

// Argument sizes: mostly 8 B with a tail of 1-4 KiB, drawn from the seed.
std::vector<std::vector<std::uint8_t>> storm_mix(u64 seed) {
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ull + 1);
  std::vector<std::vector<std::uint8_t>> mix(4096);
  for (auto& blob : mix) {
    const bool tail = rng() % 10 == 0;
    const std::size_t n = tail ? 1024 + rng() % 3073 : 8;
    blob.assign(n, static_cast<std::uint8_t>(rng()));
  }
  return mix;
}

void send_raw(core::locality& from, gas::gid dest,
              const std::vector<std::uint8_t>& blob) {
  parcel::parcel p;
  p.destination = dest;
  p.action = g_raw_hit_id;
  p.arguments = util::to_bytes(std::tuple<std::vector<std::uint8_t>>(blob));
  from.send(std::move(p));
}

// Trials of kStormParcels until the slice is spent; each trial ends at the
// runtime's quiescence verdict.  Traced launches alternate typed and raw
// trials.
void storm_kernel(core::runtime& rt, bool driver, const options& o,
                  record& rec) {
  const gas::gid peer = rt.locality_gid(1);
  const auto mix = storm_mix(o.seed);
  g_stamp_hits = o.trace;
  std::size_t cursor = 0;
  i64 deadline = 0;
  i64 last_trial_ns = 0;
  std::vector<i64> prev_snap;
  // Pulls the previous trial's hits and counters (driver, inside run()).
  auto close_previous = [&](std::uint32_t trial) {
    const auto hits = core::async<&storm_collect>(peer).get();
    const auto snap = pair_snap(rt, peer);
    if (trial > 0) {
      rec["hits"].push_back(hits[0]);
      rec["first_hit"].push_back(hits[1]);
      rec["last_hit"].push_back(hits[2]);
      const auto d = minus(snap, prev_snap);
      for (std::size_t i = 0; i < kSnapFields; ++i) {
        rec["ctr." + std::to_string(i)].push_back(d[i]);
      }
    }
    prev_snap = snap;
    rec["lost"] = {snap[kLost]};
  };
  for (std::uint32_t trial = 0;; ++trial) {
    const bool raw = o.trace && trial % 2 == 1;
    i64 t_start = 0;
    rt.run([&] {
      if (!driver) return;
      close_previous(trial);
      core::locality& here = *core::this_locality();
      t_start = now_ns();
      if (trial == 0) deadline = t_start + o.slice_ns;
      for (u64 i = 0; i < kStormParcels; ++i) {
        const auto& blob = mix[cursor++ % mix.size()];
        if (raw) {
          send_raw(here, peer, blob);
        } else {
          core::apply<&storm_hit>(peer, blob);
        }
      }
      const i64 t_issued = now_ns();
      const bool more =
          t_issued + last_trial_ns < deadline && trial + 1 < kMaxTrials;
      g_more[trial].store(more ? 1 : 0);
      core::apply<&storm_more>(peer, trial, static_cast<std::uint8_t>(more));
      rec["t_start"].push_back(t_start);
      rec["t_issued"].push_back(t_issued);
      rec["raw"].push_back(raw ? 1 : 0);
    });
    if (driver) {
      const i64 t_end = now_ns();
      rec["t_end"].push_back(t_end);
      last_trial_ns = t_end - t_start;
    }
    if (g_more[trial].load() == 0) break;
  }
  const auto trials = static_cast<std::uint32_t>(series(rec, "t_start").size());
  rt.run([&] {
    if (driver) close_previous(trials);
  });
  if (o.corrupt == "hits" && !rec["hits"].empty()) rec["hits"][0] -= 1;
}

// ================================================================= apps

constexpr std::size_t kAppsLocalities = 4;
constexpr u64 kAppsLatencyNs = 10'000;

std::atomic<i64> g_kernel_ns{0};  // traced: time inside stage bodies
bool g_stamp_kernels = false;

// ---- convolution: pipeline(stage_gray -> stage_sum(nested map_reduce))

struct image_dims {
  std::uint32_t w = 8192, h = 8192, band = 16;
};
u64 g_image_seed = 0;

inline std::uint8_t channel(std::uint32_t x, std::uint32_t y, u64 salt) {
  const u64 s = g_image_seed * 0x100000001b3ull + salt;
  return static_cast<std::uint8_t>((x * (3 + (s & 7)) + y * (5 + (s >> 3 & 7)) +
                                    (s >> 6)) &
                                   0xff);
}
inline std::uint8_t gray_at(std::uint32_t x, std::uint32_t y) {
  return static_cast<std::uint8_t>(
      (77u * channel(x, y, 1) + 150u * channel(x, y, 2) +
       29u * channel(x, y, 3)) >>
      8);
}

constexpr int kKernel[3][3] = {{1, 2, 1}, {2, 4, 2}, {1, 2, 1}};  // /16

inline std::uint32_t clamp_u(int v, int hi) {
  return static_cast<std::uint32_t>(v < 0 ? 0 : (v > hi ? hi : v));
}

struct band_desc {
  std::uint32_t y0 = 0, y1 = 0, w = 0, h = 0;
};
template <typename Ar>
void serialize(Ar& ar, band_desc& b) {
  ar & b.y0 & b.y1 & b.w & b.h;
}

struct gray_band {
  std::uint32_t y0 = 0, y1 = 0, w = 0, h = 0, gy0 = 0;
  std::vector<std::uint8_t> gray;
};
template <typename Ar>
void serialize(Ar& ar, gray_band& b) {
  ar & b.y0 & b.y1 & b.w & b.h & b.gy0 & b.gray;
}

struct kernel_timer {
  i64 start = g_stamp_kernels ? now_ns() : 0;
  ~kernel_timer() {
    if (g_stamp_kernels) g_kernel_ns.fetch_add(now_ns() - start);
  }
};

gray_band stage_gray(band_desc d) {
  kernel_timer timer;
  gray_band gb;
  gb.y0 = d.y0;
  gb.y1 = d.y1;
  gb.w = d.w;
  gb.h = d.h;
  gb.gy0 = d.y0 == 0 ? 0 : d.y0 - 1;
  const std::uint32_t gy1 = d.y1 + 1 > d.h ? d.h : d.y1 + 1;
  gb.gray.resize(static_cast<std::size_t>(gy1 - gb.gy0) * d.w);
  for (std::uint32_t y = gb.gy0; y < gy1; ++y) {
    for (std::uint32_t x = 0; x < d.w; ++x) {
      gb.gray[static_cast<std::size_t>(y - gb.gy0) * d.w + x] = gray_at(x, y);
    }
  }
  return gb;
}

std::mutex g_bands_lock;
std::unordered_map<u64, std::shared_ptr<const gray_band>> g_bands;

u64 convolve_row(const gray_band& band, std::uint32_t y) {
  u64 sum = 0;
  for (std::uint32_t x = 0; x < band.w; ++x) {
    unsigned acc = 0;
    for (int dy = -1; dy <= 1; ++dy) {
      for (int dx = -1; dx <= 1; ++dx) {
        const std::uint32_t yy = clamp_u(static_cast<int>(y) + dy,
                                         static_cast<int>(band.h) - 1);
        const std::uint32_t xx = clamp_u(static_cast<int>(x) + dx,
                                         static_cast<int>(band.w) - 1);
        acc += static_cast<unsigned>(kKernel[dy + 1][dx + 1]) *
               band.gray[static_cast<std::size_t>(yy - band.gy0) * band.w + xx];
      }
    }
    sum += acc / 16;
  }
  return sum;
}

u64 sum_rows(u64 band_key, u64 begin, u64 end) {
  kernel_timer timer;
  std::shared_ptr<const gray_band> band;
  {
    std::lock_guard g(g_bands_lock);
    band = g_bands.at(band_key);
  }
  u64 sum = 0;
  for (u64 i = begin; i < end; ++i) {
    sum += convolve_row(*band, band->y0 + static_cast<std::uint32_t>(i));
  }
  return sum;
}

u64 add_u64(u64 a, u64 b) { return a + b; }

std::atomic<u64> g_conv_sum{0};
lco::counting_semaphore* g_bands_done = nullptr;

void band_done(u64 band_sum) {
  g_conv_sum.fetch_add(band_sum, std::memory_order_relaxed);
  g_bands_done->release(1);
}
PX_REGISTER_ACTION(band_done)

void stage_sum(gray_band gb) {
  const u64 key = gb.y0;
  const u64 rows = gb.y1 - gb.y0;
  core::runtime& rt = core::this_locality()->rt();
  {
    std::lock_guard g(g_bands_lock);
    g_bands.emplace(key, std::make_shared<const gray_band>(std::move(gb)));
  }
  std::vector<gas::locality_id> span;
  for (std::size_t i = 0; i < rt.num_localities(); ++i) {
    span.push_back(static_cast<gas::locality_id>(i));
  }
  const u64 band_sum = patterns::map_reduce<&sum_rows, &add_u64>(
      rt, std::move(span), rows, /*chunk=*/2, /*ctx=*/key, /*nested=*/true);
  {
    std::lock_guard g(g_bands_lock);
    g_bands.erase(key);
  }
  core::apply<&band_done>(rt.locality_gid(0), band_sum);
}

PX_REGISTER_PIPELINE("perfbench.conv", &stage_gray, &stage_sum)
PX_REGISTER_MAP_REDUCE(sum_rows, add_u64)

// Serial reference: the same arithmetic on one thread, straight from the
// source image, band by band.
u64 serial_checksum(image_dims d) {
  u64 sum = 0;
  for (std::uint32_t y0 = 0; y0 < d.h; y0 += d.band) {
    const gray_band gb = stage_gray(band_desc{y0, std::min(y0 + d.band, d.h), d.w, d.h});
    for (std::uint32_t y = gb.y0; y < gb.y1; ++y) sum += convolve_row(gb, y);
  }
  return sum;
}

// ---- hot spot: chains of message-driven hops on skewed objects

constexpr int kHotObjects = 32;
constexpr std::uint32_t kHotHops = 120;
constexpr i64 kHopSpinNs = 3'000;
constexpr auto kHopBlock = std::chrono::microseconds(40);

std::atomic<u64> g_hops{0};
std::atomic<i64> g_hop_busy_ns{0};
std::array<std::atomic<u64>, kAppsLocalities> g_hops_at{};

void chain_hop(u64 gid_bits, std::uint32_t remaining) {
  const i64 start = g_stamp_kernels ? now_ns() : 0;
  busy_spin_ns(kHopSpinNs);
  // A blocking hold of the execution site (a slow resource), so queued
  // hops wait behind it: the starvation the rebalancer answers.
  std::this_thread::sleep_for(kHopBlock);
  g_hops.fetch_add(1, std::memory_order_relaxed);
  if (g_stamp_kernels) {
    g_hops_at[core::this_locality()->id()].fetch_add(1);
    g_hop_busy_ns.fetch_add(now_ns() - start);
  }
  if (remaining > 0) {
    core::apply<&chain_hop>(gas::gid::from_bits(gid_bits), gid_bits,
                            remaining - 1);
  }
}
PX_REGISTER_ACTION(chain_hop)

// Initial owner of each hot object: three in four at locality 0, the rest
// spread over the others, drawn from the seed.
std::vector<gas::locality_id> hot_layout(u64 seed) {
  std::mt19937_64 rng(seed * 0xbf58476d1ce4e5b9ull + 7);
  std::vector<gas::locality_id> owners;
  for (int i = 0; i < kHotObjects; ++i) {
    owners.push_back(rng() % 4 != 0 ? 0
                                    : static_cast<gas::locality_id>(
                                          1 + rng() % (kAppsLocalities - 1)));
  }
  return owners;
}

core::runtime_params apps_params(bool rebalance) {
  core::runtime_params p;
  p.localities = kAppsLocalities;
  p.workers_per_locality = 1;
  p.fabric.base_latency_ns = kAppsLatencyNs;
  p.rebalance = rebalance ? 1 : 0;
  p.rebalance_interval_us = 100;
  p.rebalance_min_depth = 4;
  return p;
}

i64 fabric_bytes(core::runtime& rt) {
  i64 total = 0;
  for (std::size_t i = 0; i < kAppsLocalities; ++i) {
    total += static_cast<i64>(
        rt.transport().link(static_cast<net::endpoint_id>(i)).bytes_tx);
  }
  return total;
}

void convolve_trial(core::runtime& rt, image_dims d, record& rec) {
  lco::counting_semaphore done{0};
  g_conv_sum.store(0);
  g_bands_done = &done;
  g_kernel_ns.store(0);
  const i64 bytes_before = fabric_bytes(rt);
  i64 push_wait = 0;
  std::uint32_t bands = 0;
  i64 wall = 0;
  rt.run([&] {
    const i64 start = now_ns();
    std::vector<gas::locality_id> span;
    for (std::size_t i = 0; i < rt.num_localities(); ++i) {
      span.push_back(static_cast<gas::locality_id>(i));
    }
    patterns::pipeline<&stage_gray, &stage_sum> pipe(rt, span, /*window=*/4);
    for (std::uint32_t y0 = 0; y0 < d.h; y0 += d.band) {
      const i64 t = now_ns();
      pipe.push(band_desc{y0, std::min(y0 + d.band, d.h), d.w, d.h});
      push_wait += now_ns() - t;
      bands += 1;
    }
    pipe.close();
    for (std::uint32_t b = 0; b < bands; ++b) done.acquire();
    wall = now_ns() - start;
  });
  g_bands_done = nullptr;
  rec["conv.wall_ns"].push_back(wall);
  rec["conv.sum"].push_back(static_cast<i64>(g_conv_sum.load()));
  rec["conv.bands"].push_back(bands);
  rec["conv.push_wait_ns"].push_back(push_wait);
  rec["conv.kernel_ns"].push_back(g_kernel_ns.load());
  rec["conv.bytes"].push_back(fabric_bytes(rt) - bytes_before);
}

void hotspot_trial(core::runtime& rt, const std::vector<gas::locality_id>& layout,
                   const std::string& prefix, record& rec) {
  std::vector<gas::gid> objs;
  for (std::size_t i = 0; i < layout.size(); ++i) {
    objs.push_back(rt.new_object<int>(layout[i], static_cast<int>(i)));
  }
  g_hops.store(0);
  g_hop_busy_ns.store(0);
  for (auto& c : g_hops_at) c.store(0);
  const auto forwards = [&rt] {
    i64 total = 0;
    for (std::size_t i = 0; i < kAppsLocalities; ++i) {
      total += static_cast<i64>(
          rt.at(static_cast<gas::locality_id>(i)).stats().parcels_forwarded);
    }
    return total;
  };
  const auto bal0 = rt.balancer().stats();
  const auto gas0 = rt.gas().stats();
  const i64 fwd0 = forwards();
  const i64 start = now_ns();
  rt.run([&] {
    for (const auto id : objs) {
      core::apply<&chain_hop>(id, id.bits(), kHotHops - 1);
    }
  });
  const i64 wall = now_ns() - start;
  const auto bal1 = rt.balancer().stats();
  const auto gas1 = rt.gas().stats();
  rec[prefix + "wall_ns"].push_back(wall);
  rec[prefix + "hops"].push_back(static_cast<i64>(g_hops.load()));
  rec[prefix + "expected"].push_back(static_cast<i64>(objs.size()) * kHotHops);
  rec[prefix + "busy_ns"].push_back(g_hop_busy_ns.load());
  rec[prefix + "migrations"].push_back(
      static_cast<i64>(bal1.objects_migrated - bal0.objects_migrated));
  rec[prefix + "triggers"].push_back(
      static_cast<i64>(bal1.triggers - bal0.triggers));
  rec[prefix + "forwards"].push_back(forwards() - fwd0);
  rec[prefix + "cache_hits"].push_back(
      static_cast<i64>(gas1.cache_hits - gas0.cache_hits));
  rec[prefix + "cache_misses"].push_back(
      static_cast<i64>(gas1.cache_misses - gas0.cache_misses));
  u64 most = 0;
  u64 total = 0;
  for (const auto& c : g_hops_at) {
    most = std::max<u64>(most, c.load());
    total += c.load();
  }
  rec[prefix + "imbalance_milli"].push_back(
      total == 0 ? 0
                 : static_cast<i64>(1000.0 * most * kAppsLocalities / total));
}

// ============================================================ launches

struct launch {
  bool ok = false;
  i64 setup_ns = 0;
  record rec;
};

using kernel_fn = void (*)(core::runtime&, bool, const options&, record&);

kernel_fn kernel_by_name(const std::string& name) {
  return name == "rpc" ? &rpc_kernel : &storm_kernel;
}

// One 2-locality machine in this process over the zero-latency fabric.
launch run_sim(const std::string& kernel, const options& o) {
  launch out;
  const i64 t0 = now_ns();
  core::runtime_params p;
  p.localities = 2;
  p.workers_per_locality = 1;
  core::runtime rt(p);
  rt.start();
  out.setup_ns = now_ns() - t0;
  kernel_by_name(kernel)(rt, true, o, out.rec);
  rt.stop();
  out.ok = true;
  return out;
}

// One 2-rank machine over `backend`: both ranks launched at once.
launch run_dist(const std::string& kernel, const std::string& backend,
                const options& o, int index) {
  launch out;
  const std::string path =
      o.tmp + "/launch-" + std::to_string(index) + ".rec";
  std::remove(path.c_str());
  const std::vector<std::string> argv = {
      util::self_exe_path(), "--rank-kernel", kernel,
      "--slice-ns",          std::to_string(o.slice_ns),
      "--seed",              std::to_string(o.seed),
      "--trace",             o.trace ? "1" : "0",
      "--corrupt",           o.corrupt.empty() ? "none" : o.corrupt,
      "--out",               path};
  const int port = util::pick_free_tcp_port();
  const i64 t0 = now_ns();
  std::vector<pid_t> pids;
  for (int r = 0; r < 2; ++r) {
    pids.push_back(util::spawn_process(argv, util::net_rank_env(r, 2, port, backend)));
  }
  const auto timeout_ms = static_cast<std::uint64_t>(o.slice_ns / 1'000'000 * 3 + 30'000);
  bool exited_ok = true;
  for (const pid_t pid : pids) {
    if (util::wait_exit(pid, timeout_ms) != 0) exited_ok = false;
  }
  const bool have = read_record(path, &out.rec);
  std::remove(path.c_str());
  if (!have) out.rec.clear();
  const auto& boots = series(out.rec, "boot_ns");
  out.setup_ns = boots.empty() ? 0 : *std::max_element(boots.begin(), boots.end()) - t0;
  out.ok = exited_ok && have;
  return out;
}

int rank_main(const options& o) {
  if (o.trace && o.kernel == "rpc") alloc_body_stamps();
  core::runtime_params p;  // backend, rank and peers from PX_NET_*
  p.workers_per_locality = 1;
  core::runtime rt(p);
  rt.start();
  g_boot_ns.store(now_ns());
  const bool driver = rt.rank() == 0;
  record rec;
  kernel_by_name(o.kernel)(rt, driver, o, rec);
  rt.run([&] {
    if (!driver) return;
    rec["boot_ns"] = {g_boot_ns.load(),
                      core::async<&peer_boot_ns>(rt.locality_gid(1)).get()};
  });
  rt.stop();
  int rc = 0;
  if (driver && !write_record(o.out, rec)) rc = 1;
  if (rt.rank() == 1 && o.corrupt == "rank_exit") rc = 3;
  return rc;
}

// ============================================================ analysis

struct metrics {
  std::map<std::string, double> values;
  std::map<std::string, std::string> detail;  // rendered JSON values
  u64 attempted = 0;
  u64 failed = 0;
  std::map<std::string, std::vector<i64>> setups;  // by machine shape
  int dist_launches = 0;
  int slow_boots = 0;

  void ops(u64 n, u64 bad) {
    attempted += n;
    failed += bad;
  }
};

std::vector<double> to_doubles(const std::vector<i64>& v, double scale = 1.0) {
  std::vector<double> out;
  out.reserve(v.size());
  for (i64 x : v) out.push_back(static_cast<double>(x) * scale);
  return out;
}

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

std::string fraction_name(pb::fraction q) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "p%g", 100.0 * q.value());
  return buf;
}

// A launch whose ranks failed: every operation it would have reported
// counts as failed; without a record the launch itself is one operation.
void count_failed_launch(metrics& m, const launch& l) {
  const u64 n = std::max<i64>(
      1, first_of(l.rec, "p1.requests") + first_of(l.rec, "p2.requests"));
  m.ops(n, n);
}

void analyze_rpc(const std::string& backend, const std::vector<launch>& ls,
                 metrics& m, bool traced) {
  std::vector<double> rtt;  // every phase-1 sample of the pass
  std::vector<double> p50s, p90s, rates;  // one per launch
  i64 p2_requests = 0;
  std::vector<i64> c1, c2;
  std::vector<double> issue, request, body, reply;
  u64 mismatches = 0;
  for (const auto& l : ls) {
    if (!l.ok) {
      count_failed_launch(m, l);
      continue;
    }
    const auto& r = l.rec;
    m.ops(static_cast<u64>(first_of(r, "p1.requests") + first_of(r, "p2.requests")),
          static_cast<u64>(first_of(r, "p1.bad") + first_of(r, "p2.bad")));
    auto launch_rtt = to_doubles(series(r, "p1.rtt_ns"), 1e-3);
    std::sort(launch_rtt.begin(), launch_rtt.end());
    if (!launch_rtt.empty()) {
      p50s.push_back(pb::quantile_sorted(launch_rtt, {1, 2}));
      p90s.push_back(pb::quantile_sorted(launch_rtt, {9, 10}));
    }
    rtt.insert(rtt.end(), launch_rtt.begin(), launch_rtt.end());
    p2_requests += first_of(r, "p2.requests");
    rates.push_back(ratio(1e9 * first_of(r, "p2.requests"), first_of(r, "p2.elapsed_ns")));
    accumulate(c1, series(r, "p1.ctr"));
    accumulate(c2, series(r, "p2.ctr"));
    if (traced) {
      const auto& t0 = series(r, "p1.t0");
      const auto& t1 = series(r, "p1.t1");
      const auto& t2 = series(r, "p1.t2");
      const auto& t3 = series(r, "p1.t3");
      const auto& t4 = series(r, "p1.t4");
      const auto& all = series(r, "p1.rtt_ns");
      for (std::size_t i = 0; i < t0.size() && i < t2.size(); ++i) {
        const i64 parts[4] = {t1[i] - t0[i], t2[i] - t1[i], t3[i] - t2[i],
                              t4[i] - t3[i]};
        // The four parts must tile the request's own measured RTT on the
        // shared clock, with the body inside it.  `request` alone may be
        // negative: the peer can start the body before async() returns.
        const bool tiled = parts[0] + parts[1] + parts[2] + parts[3] == all[i] &&
                           parts[0] >= 0 && parts[2] >= 0 && parts[3] >= 0 &&
                           t2[i] >= t0[i];
        if (!tiled) mismatches += 1;
        issue.push_back(parts[0] * 1e-3);
        request.push_back(parts[1] * 1e-3);
        body.push_back(parts[2] * 1e-3);
        reply.push_back(parts[3] * 1e-3);
      }
    }
  }
  // Each launch is a fresh machine, which can settle in a fast or a slow
  // mode (README), so the metric is the median over launches of each
  // launch's exact percentile; the pooled percentiles and every launch's
  // p50 stay in the detail line.
  std::sort(rtt.begin(), rtt.end());
  auto& v = m.values;
  v["rtt_p50_us." + backend] = pb::median(p50s);
  v["rtt_p90_us." + backend] = pb::median(p90s);
  v["requests_per_s." + backend] = pb::median(rates);
  std::string list;
  for (double x : p50s) list += (list.empty() ? "" : ", ") + std::to_string(x);
  m.detail["rtt_p50_us_by_launch." + backend] = "[" + list + "]";
  if (!rtt.empty()) {
    m.detail["rtt_pooled_us." + backend] =
        "{\"p50\": " + std::to_string(pb::quantile_sorted(rtt, {1, 2})) +
        ", \"p90\": " + std::to_string(pb::quantile_sorted(rtt, {9, 10})) + "}";
  }
  const auto tail = pb::highest_supported_tail(rtt);
  char buf[160];
  if (tail) {
    std::snprintf(buf, sizeof buf,
                  "{\"percentile\": \"%s\", \"value_us\": %.3f, "
                  "\"beyond\": %zu, \"samples\": %zu}",
                  fraction_name(tail->q).c_str(), tail->value, tail->beyond,
                  tail->count);
  } else {
    std::snprintf(buf, sizeof buf, "{\"samples\": %zu}", rtt.size());
  }
  m.detail["rtt_tail." + backend] = buf;
  if (!traced) return;
  m.detail["rpc.trace_mismatches." + backend] = std::to_string(mismatches);
  m.failed += mismatches;
  v["rpc.issue_us." + backend] = pb::median(issue);
  v["rpc.request_us." + backend] = pb::median(request);
  v["rpc.body_us." + backend] = pb::median(body);
  v["rpc.reply_us." + backend] = pb::median(reply);
  const double p1 = static_cast<double>(rtt.size());
  const double p2 = static_cast<double>(p2_requests);
  for (auto [prefix, c, n] : {std::tuple{"rpc.", &c1, p1}, std::tuple{"rpc64.", &c2, p2}}) {
    if (c->empty()) c->assign(kSnapFields, 0);
    const std::string p = prefix;
    v[p + "frames_per_request." + backend] = ratio((*c)[kFrames], n);
    v[p + "eager_share." + backend] = ratio((*c)[kEager], (*c)[kFrames]);
    v[p + "sleeps_per_request." + backend] = ratio((*c)[kSleeps], n);
    v[p + "suspends_per_request." + backend] = ratio((*c)[kSuspends], n);
    if (backend == "shm") {
      v[p + "shm_wakeups_per_frame"] = ratio((*c)[kWakeups], (*c)[kMsgsTx]);
    }
  }
}

void analyze_storm(const std::string& backend, const std::vector<launch>& ls,
                   metrics& m, bool traced) {
  std::vector<double> typed_rate, raw_rate, issue_ns, deliver, quiesce;
  std::vector<i64> ctr(kSnapFields, 0);
  i64 typed_parcels = 0;
  i64 typed_trials = 0;
  for (const auto& l : ls) {
    const auto& r = l.rec;
    const auto& t_start = series(r, "t_start");
    if (!l.ok) {
      const u64 n = std::max<u64>(1, t_start.size() * kStormParcels);
      m.ops(n, n);
      continue;
    }
    const auto& t_issued = series(r, "t_issued");
    const auto& t_end = series(r, "t_end");
    const auto& raw = series(r, "raw");
    const auto& hits = series(r, "hits");
    const auto& first = series(r, "first_hit");
    const auto& last = series(r, "last_hit");
    const bool lost = first_of(r, "lost") != 0;
    for (std::size_t t = 0; t < t_start.size(); ++t) {
      const bool complete = t < hits.size() && t < t_end.size();
      // Hits at the destination must equal parcels issued, and the
      // transport must have lost none; otherwise the trial failed.
      const bool good = complete && !lost &&
                        hits[t] == static_cast<i64>(kStormParcels);
      m.ops(kStormParcels, good ? 0 : kStormParcels);
      if (!complete) continue;
      const double rate = 1e9 * kStormParcels / static_cast<double>(t_end[t] - t_start[t]);
      if (raw[t] != 0) {
        raw_rate.push_back(rate);
        continue;
      }
      typed_rate.push_back(rate);
      typed_parcels += kStormParcels;
      typed_trials += 1;
      issue_ns.push_back(static_cast<double>(t_issued[t] - t_start[t]) / kStormParcels);
      if (traced) {
        deliver.push_back((last[t] - first[t]) * 1e-9);
        quiesce.push_back((t_end[t] - last[t]) * 1e-9);
      }
      for (std::size_t i = 0; i < kSnapFields; ++i) {
        ctr[i] += series(r, "ctr." + std::to_string(i))[t];
      }
    }
  }
  auto& v = m.values;
  v["parcels_per_s." + backend] = pb::median(typed_rate);
  if (!traced) return;
  v["storm.issue_ns." + backend] = pb::median(issue_ns);
  v["storm.deliver_s." + backend] = pb::median(deliver);
  v["storm.quiesce_s." + backend] = pb::median(quiesce);
  v["storm.parcels_per_frame." + backend] = ratio(typed_parcels, ctr[kFrames]);
  v["storm.threshold_share." + backend] = ratio(ctr[kThreshold], ctr[kFrames]);
  v["storm.bytes_per_parcel." + backend] = ratio(ctr[kBytesTx], typed_parcels);
  const double typed = pb::median(typed_rate);
  const double rawr = pb::median(raw_rate);
  v["storm.spawn_ns." + backend] =
      typed > 0 && rawr > 0 ? 1e9 / typed - 1e9 / rawr : 0.0;
  if (backend == "shm") {
    v["storm.shm_ring_full_waits"] = ratio(ctr[kRingFull], typed_trials);
  }
}

void analyze_apps(const std::vector<record>& rounds, metrics& m, bool traced,
                  u64 expected_sum) {
  std::vector<double> conv, hot, hot_static, kernel_share, push_wait, bytes;
  std::vector<double> busy, migrations, triggers, fwd, imbalance;
  i64 hits = 0, misses = 0;
  for (const auto& r : rounds) {
    const auto& wall = series(r, "conv.wall_ns");
    for (std::size_t t = 0; t < wall.size(); ++t) {
      const i64 bands = series(r, "conv.bands")[t];
      const bool good = static_cast<u64>(series(r, "conv.sum")[t]) == expected_sum;
      m.ops(static_cast<u64>(bands), good ? 0 : static_cast<u64>(bands));
      conv.push_back(wall[t] * 1e-9);
      kernel_share.push_back(ratio(series(r, "conv.kernel_ns")[t],
                                   static_cast<double>(wall[t]) * kAppsLocalities));
      push_wait.push_back(series(r, "conv.push_wait_ns")[t] * 1e-9);
      bytes.push_back(ratio(series(r, "conv.bytes")[t], bands));
    }
    const auto& hwall = series(r, "hot.wall_ns");
    for (std::size_t t = 0; t < hwall.size(); ++t) {
      const i64 expect = series(r, "hot.expected")[t];
      const i64 got = series(r, "hot.hops")[t];
      m.ops(static_cast<u64>(expect), got == expect ? 0 : static_cast<u64>(expect));
      hot.push_back(hwall[t] * 1e-9);
      busy.push_back(ratio(series(r, "hot.busy_ns")[t],
                           static_cast<double>(hwall[t]) * kAppsLocalities));
      migrations.push_back(series(r, "hot.migrations")[t]);
      triggers.push_back(series(r, "hot.triggers")[t]);
      fwd.push_back(ratio(series(r, "hot.forwards")[t], got));
      imbalance.push_back(series(r, "hot.imbalance_milli")[t] * 1e-3);
      hits += series(r, "hot.cache_hits")[t];
      misses += series(r, "hot.cache_misses")[t];
    }
    const auto& swall = series(r, "static.wall_ns");
    for (std::size_t t = 0; t < swall.size(); ++t) {
      const i64 expect = series(r, "static.expected")[t];
      m.ops(static_cast<u64>(expect),
            series(r, "static.hops")[t] == expect ? 0 : static_cast<u64>(expect));
      hot_static.push_back(swall[t] * 1e-9);
    }
  }
  auto& v = m.values;
  std::string per_round;
  for (const auto& r : rounds) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%s[%.4f, %.4f]", per_round.empty() ? "" : ", ",
                  pb::median(to_doubles(series(r, "conv.wall_ns"), 1e-9)),
                  pb::median(to_doubles(series(r, "hot.wall_ns"), 1e-9)));
    per_round += buf;
  }
  m.detail["apps_s_by_round"] = "[" + per_round + "]";
  v["convolve_s"] = pb::median(conv);
  v["hotspot_s"] = pb::median(hot);
  if (!traced) return;
  v["convolve.kernel_share"] = pb::median(kernel_share);
  v["convolve.push_wait_s"] = pb::median(push_wait);
  v["convolve.bytes_per_band"] = pb::median(bytes);
  v["hotspot.hop_busy_share"] = pb::median(busy);
  v["hotspot.migrations"] = pb::median(migrations);
  v["hotspot.trigger_rounds"] = pb::median(triggers);
  v["hotspot.forwards_per_hop"] = pb::median(fwd);
  v["hotspot.gas_cache_hit_ratio"] = ratio(hits, hits + misses);
  v["hotspot.imbalance"] = pb::median(imbalance);
  v["hotspot.static_over_adaptive"] = ratio(pb::median(hot_static), pb::median(hot));
}

// ============================================================= a pass
//
// One pass of a workload: every kernel gets its share of `seconds`.  The
// pass is twelve rounds.  Every round boots fresh rpc machines on all three
// backends; alternate rounds add storm machines or the apps machines.  A
// fresh machine can land in a fast or a slow mode (README), so many short
// rpc launches give a steadier median than a few long ones, and the rounds
// spread slow drift of the host over every backend alike.
constexpr int kRounds = 12;
const char* const kBackends[] = {"sim", "tcp", "shm"};

double time_share(const std::string& workload, const std::string& kernel) {
  return workload == kernel ? 0.5 : 0.25;
}

metrics run_pass(options o, double seconds, int* launch_counter) {
  metrics m;
  const bool traced = o.trace;
  std::map<std::string, std::vector<launch>> by_key;  // kernel.backend
  std::vector<record> apps;  // one per round
  const image_dims dims;
  g_image_seed = o.seed;
  const u64 expected_sum = serial_checksum(dims) + (o.corrupt == "checksum" ? 1 : 0);
  const auto layout = hot_layout(o.seed);
  if (traced) alloc_body_stamps();
  const auto run_backends = [&](const std::string& kernel, int launches) {
    o.slice_ns = static_cast<i64>(seconds * time_share(o.workload, kernel) /
                                  launches / 3 * 1e9);
    for (const std::string backend : kBackends) {
      launch l = backend == "sim"
                     ? run_sim(kernel, o)
                     : run_dist(kernel, backend, o, (*launch_counter)++);
      if (l.ok) {
        m.setups[backend == "sim" ? "sim2" : backend].push_back(l.setup_ns);
        if (backend != "sim") {
          m.dist_launches += 1;
          if (l.setup_ns >= 25'000'000) m.slow_boots += 1;
        }
      }
      by_key[kernel + "." + backend].push_back(std::move(l));
    }
  };
  for (int round = 0; round < kRounds; ++round) {
    run_backends("rpc", kRounds);
    if (round % 2 == 0) {
      run_backends("storm", kRounds / 2);
      continue;
    }
    // apps: 4-locality machines, one per kernel and round; each kernel
    // repeats until its part of the round's share is spent (at least one
    // trial).  The convolution runs with the rebalancer off: it may
    // migrate a map_reduce cell while a partial is in flight to it (README).
    const i64 slice = static_cast<i64>(
        seconds * time_share(o.workload, "apps") / (kRounds / 2) * 1e9);
    record rec;
    g_stamp_kernels = traced;
    const auto boot = [&](bool rebalance) {
      const i64 t0 = now_ns();
      auto rt = std::make_unique<core::runtime>(apps_params(rebalance));
      rt->start();
      m.setups["sim4"].push_back(now_ns() - t0);
      return rt;
    };
    const auto repeat = [](i64 ns, const std::function<void()>& trial) {
      const i64 deadline = now_ns() + ns;
      do {
        trial();
      } while (now_ns() < deadline);
    };
    {
      auto rt = boot(false);
      repeat(slice / 2, [&] { convolve_trial(*rt, dims, rec); });
      rt->stop();
    }
    {
      auto rt = boot(true);
      repeat(traced ? slice / 4 : slice / 2,
             [&] { hotspot_trial(*rt, layout, "hot.", rec); });
      rt->stop();
    }
    if (traced) {
      // Rebalancer off, same layout: the static baseline of the ratio.
      auto rt = boot(false);
      repeat(slice / 4, [&] { hotspot_trial(*rt, layout, "static.", rec); });
      rt->stop();
    }
    g_stamp_kernels = false;
    if (o.corrupt == "hops") rec["hot.hops"][0] += 1;
    apps.push_back(std::move(rec));
  }
  for (const std::string backend : kBackends) {
    analyze_rpc(backend, by_key["rpc." + backend], m, traced);
    analyze_storm(backend, by_key["storm." + backend], m, traced);
  }
  analyze_apps(apps, m, traced, expected_sum);
  double setup = 0;
  for (const auto& [shape, ns] : m.setups) setup += pb::median(to_doubles(ns, 1e-9));
  m.values["setup_s"] = setup;
  m.values["ok_ratio"] = 1.0 - ratio(static_cast<double>(m.failed), m.attempted);
  if (traced) {
    m.values["setup.slow_boot_share"] = ratio(m.slow_boots, m.dist_launches);
  }
  return m;
}

// ================================================================ output

void print_json(const metrics& m, const std::map<std::string, double>& metrics_out,
                const options& o) {
  std::printf("{\"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              static_cast<unsigned long long>(m.attempted),
              static_cast<unsigned long long>(m.failed));
  bool first = true;
  for (const auto& [name, value] : metrics_out) {
    std::printf("%s\"%s\": %.17g", first ? "" : ", ", name.c_str(),
                std::isfinite(value) ? value : 0.0);
    first = false;
  }
  std::printf("}, \"detail\": {\"compiler\": \"%s\", \"build_type\": \"%s\", "
              "\"seed\": %llu",
              PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
              static_cast<unsigned long long>(o.seed));
  for (const auto& [name, value] : m.detail) {
    std::printf(", \"%s\": %s", name.c_str(), value.c_str());
  }
  for (const auto& [shape, ns] : m.setups) {
    std::printf(", \"setup_ms.%s\": [", shape.c_str());
    for (std::size_t i = 0; i < ns.size(); ++i) {
      std::printf("%s%.3f", i == 0 ? "" : ", ", ns[i] * 1e-6);
    }
    std::printf("]");
  }
  std::printf("}}\n");
}

// Host speed probe for provenance: a fixed chain of dependent integer
// operations, timed.  It tells a slow phase of a shared host from a slow
// program; it never adjusts or drops a measurement.
std::atomic<u64> g_calibration_sink{0};
double calibration_ms() {
  std::vector<double> times;
  for (int rep = 0; rep < 3; ++rep) {
    const i64 start = now_ns();
    u64 x = g_calibration_sink.load() | 1;
    for (u64 i = 0; i < (u64{1} << 24); ++i) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
    }
    g_calibration_sink.store(x);
    times.push_back(static_cast<double>(now_ns() - start) * 1e-6);
  }
  return pb::median(times);
}

const char* const kEndToEnd[] = {
    "setup_s",          "ok_ratio",         "rtt_p50_us.sim",
    "rtt_p50_us.tcp",   "rtt_p50_us.shm",   "rtt_p90_us.sim",
    "rtt_p90_us.tcp",   "rtt_p90_us.shm",   "requests_per_s.sim",
    "requests_per_s.tcp", "requests_per_s.shm", "parcels_per_s.sim",
    "parcels_per_s.tcp", "parcels_per_s.shm", "convolve_s",
    "hotspot_s"};

int launcher_main(options o) {
  int launch_counter = 0;
  const double calibration_start = calibration_ms();
  const auto add_calibration = [&](metrics& m) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "[%.3f, %.3f]", calibration_start,
                  calibration_ms());
    m.detail["host_calibration_ms"] = buf;
  };
  if (!o.trace) {
    metrics m = run_pass(o, o.seconds, &launch_counter);
    add_calibration(m);
    std::map<std::string, double> out;
    for (const char* name : kEndToEnd) out[name] = m.values.at(name);
    print_json(m, out, o);
    return 0;
  }
  // Traced run: an untraced half and a traced half, so the cost of the
  // benchmark's own stamps is reported per end-to-end metric.
  options plain = o;
  plain.trace = false;
  const metrics base = run_pass(plain, o.seconds / 2, &launch_counter);
  metrics m = run_pass(o, o.seconds / 2, &launch_counter);
  std::map<std::string, double> out;
  for (const auto& [name, value] : m.values) {
    bool e2e = false;
    for (const char* e : kEndToEnd) e2e = e2e || name == e;
    if (!e2e) out[name] = value;
  }
  for (const char* name : kEndToEnd) {
    out[std::string("trace_overhead.") + name] = m.values.at(name) - base.values.at(name);
  }
  m.attempted += base.attempted;
  m.failed += base.failed;
  add_calibration(m);
  print_json(m, out, o);
  return 0;
}

bool parse(int argc, char** argv, options* o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      o->workload = val;
    } else if (key == "--seed") {
      o->seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      o->seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      o->trace = val == "1";
    } else if (key == "--corrupt") {
      o->corrupt = val == "none" ? "" : val;
    } else if (key == "--tmp") {
      o->tmp = val;
    } else if (key == "--rank-kernel") {
      o->kernel = val;
    } else if (key == "--slice-ns") {
      o->slice_ns = std::strtoll(val.c_str(), nullptr, 10);
    } else if (key == "--out") {
      o->out = val;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1;
}

}  // namespace

int main(int argc, char** argv) {
  options o;
  if (!parse(argc, argv, &o)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload rpc|storm|apps --seed N "
                 "--seconds S --trace 0|1 [--tmp DIR] [--corrupt WHAT]\n");
    return 2;
  }
  if (!o.kernel.empty()) return rank_main(o);
  if (o.workload != "rpc" && o.workload != "storm" && o.workload != "apps") {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", o.workload.c_str());
    return 2;
  }
  return launcher_main(o);
}
