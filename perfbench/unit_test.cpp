// Unit tests for the benchmark's own statistics (quantile.hpp).  Built next
// to the benchmark and run by test_perfbench.py; exits nonzero on failure.
#include <cstdio>
#include <vector>

#include "quantile.hpp"

namespace {

int g_failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    g_failures += 1;
  }
}

std::vector<double> iota(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

}  // namespace

int main() {
  using pb::fraction;

  // Nearest rank is exact where floating point would round: 0.99 * 1000
  // is not exactly 990 in binary, the fraction is.
  check(pb::nearest_rank(1000, {99, 100}) == 990, "p99 of 1000 is rank 990");
  check(pb::nearest_rank(1000, {999, 1000}) == 999, "p99.9 of 1000 is rank 999");
  check(pb::nearest_rank(1001, {99, 100}) == 991, "p99 of 1001 rounds up");
  check(pb::nearest_rank(1, {1, 2}) == 1, "median of one sample");
  check(pb::nearest_rank(7, {1, 100}) == 1, "low quantile clamps to rank 1");

  const auto v = iota(100);
  check(pb::quantile_sorted(v, {1, 2}) == 50, "p50 of 1..100 is 50");
  check(pb::quantile_sorted(v, {9, 10}) == 90, "p90 of 1..100 is 90");
  check(pb::quantile_sorted(v, {99, 100}) == 99, "p99 of 1..100 is 99");
  check(pb::median({5, 1, 3}) == 3, "median sorts its input");
  check(pb::median({4, 1, 3, 2}) == 2, "even-sized median is a real sample");
  check(pb::median({}) == 0, "median of nothing is 0");

  // A 20% shift of every sample moves p50 by 20%: the property the
  // factor-2 log histogram lacks.
  std::vector<double> shifted;
  for (double x : v) shifted.push_back(x * 1.2);
  check(pb::quantile_sorted(shifted, {1, 2}) == 60, "p50 tracks a 20% shift");

  // The ">= 10 samples beyond" rule.
  check(pb::samples_beyond(100, {9, 10}) == 10, "100 samples: 10 beyond p90");
  auto t = pb::highest_supported_tail(v);
  check(t.has_value() && t->q.num == 9 && t->q.den == 10,
        "100 samples support p90 but not p99");
  check(t && t->beyond == 10 && t->count == 100 && t->value == 90,
        "tail reports its value and sample counts");

  t = pb::highest_supported_tail(iota(99));
  check(!t.has_value(), "99 samples leave only 9 beyond p90");

  t = pb::highest_supported_tail(iota(1000));
  check(t && t->q.num == 99 && t->q.den == 100 && t->value == 990,
        "1000 samples support p99");

  t = pb::highest_supported_tail(iota(10'000));
  check(t && t->q.num == 999 && t->q.den == 1000 && t->beyond == 10,
        "10000 samples support p99.9 with exactly 10 beyond");

  t = pb::highest_supported_tail(iota(9'999));
  check(t && t->q.num == 99 && t->q.den == 100,
        "9999 samples fall back to p99");

  if (g_failures == 0) std::printf("perfbench unit tests: all passed\n");
  return g_failures == 0 ? 0 : 1;
}
