// Unit tests for the util substrate: text helpers, statistics, tables,
// CLI parsing, the worker gang.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "hybrid/label_table.hpp"
#include "util/cli.hpp"
#include "util/gang.hpp"
#include "util/require.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/text.hpp"

namespace ptecps::util {
namespace {

TEST(Text, CatConcatenatesStreamables) {
  EXPECT_EQ(cat("a", 1, "b", 2.5), "a1b2.5");
  EXPECT_EQ(cat(), "");
}

TEST(Text, FmtDoubleFixedPrecision) {
  EXPECT_EQ(fmt_double(1.5, 2), "1.50");
  EXPECT_EQ(fmt_double(-0.125, 3), "-0.125");
}

TEST(Text, FmtCompactStripsTrailingZeros) {
  EXPECT_EQ(fmt_compact(3.0), "3");
  EXPECT_EQ(fmt_compact(3.5), "3.5");
  EXPECT_EQ(fmt_compact(0.125), "0.125");
  EXPECT_EQ(fmt_compact(-0.0), "0");
}

TEST(Text, JoinAndSplitRoundTrip) {
  const std::vector<std::string> parts = {"a", "", "c"};
  EXPECT_EQ(join(parts, ","), "a,,c");
  EXPECT_EQ(split("a,,c", ','), parts);
  EXPECT_EQ(split("", ','), std::vector<std::string>{""});
}

TEST(Text, PadAligns) {
  EXPECT_EQ(pad("ab", 4), "ab  ");
  EXPECT_EQ(pad("ab", 4, true), "  ab");
  EXPECT_EQ(pad("abcde", 4), "abcde");  // never truncates
}

TEST(Text, ReplaceAll) {
  EXPECT_EQ(replace_all("a-b-c", "-", "+"), "a+b+c");
  EXPECT_EQ(replace_all("aaa", "aa", "b"), "ba");
  EXPECT_EQ(replace_all("x", "", "y"), "x");
}

TEST(Stats, RunningStatsMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(Stats, MergeMatchesSequential) {
  RunningStats a, b, all;
  for (int i = 0; i < 50; ++i) {
    const double x = std::sin(i) * 10.0;
    (i % 2 == 0 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(Stats, HistogramTracksOutOfRangeSeparately) {
  Histogram h(0.0, 10.0, 5);
  h.add(0.5);
  h.add(9.9);
  h.add(-3.0);   // below range: counted as underflow, not in bin 0
  h.add(100.0);  // above range: counted as overflow, not in bin 4
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.bin_count(0), 1u);
  EXPECT_EQ(h.bin_count(4), 1u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_DOUBLE_EQ(h.bin_lo(1), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(1), 4.0);
  EXPECT_EQ(h.summary(), "n=4, in-range=2, underflow=1, overflow=1");
  // hi itself is out of range (bins cover [lo, hi)).
  h.add(10.0);
  EXPECT_EQ(h.overflow(), 2u);
  // The render footer names the out-of-range mass so it can't hide.
  EXPECT_NE(h.render().find("out-of-range: 1 below, 2 above"), std::string::npos);
}

TEST(Stats, MergeOrderIndependentAcrossRandomPartitions) {
  // Property: merging per-shard accumulators must give the same moments
  // regardless of partition shape and merge order (the campaign report
  // relies on this for thread-count-independent output), to within an
  // ulp-scale tolerance.
  std::vector<double> xs;
  std::uint64_t state = 0x9E3779B97F4A7C15ULL;
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return static_cast<double>(state % 10007) / 7.0 - 500.0;
  };
  for (int i = 0; i < 2000; ++i) xs.push_back(next());
  RunningStats reference;
  for (double x : xs) reference.add(x);

  for (std::size_t shards : {2u, 3u, 7u, 16u}) {
    std::vector<RunningStats> parts(shards);
    for (std::size_t i = 0; i < xs.size(); ++i)
      parts[(i * 2654435761u) % shards].add(xs[i]);
    // Merge in two different orders: forward fold and pairwise tree.
    RunningStats forward;
    for (const auto& p : parts) forward.merge(p);
    std::vector<RunningStats> tree = parts;
    while (tree.size() > 1) {
      std::vector<RunningStats> next_level;
      for (std::size_t i = 0; i + 1 < tree.size(); i += 2) {
        RunningStats m = tree[i];
        m.merge(tree[i + 1]);
        next_level.push_back(m);
      }
      if (tree.size() % 2 == 1) next_level.push_back(tree.back());
      tree = std::move(next_level);
    }
    for (const RunningStats* s : {&forward, &tree[0]}) {
      EXPECT_EQ(s->count(), reference.count());
      EXPECT_NEAR(s->mean(), reference.mean(), 1e-9 * std::fabs(reference.mean()) + 1e-9);
      EXPECT_NEAR(s->variance(), reference.variance(), 1e-7 * reference.variance() + 1e-9);
      EXPECT_DOUBLE_EQ(s->min(), reference.min());
      EXPECT_DOUBLE_EQ(s->max(), reference.max());
    }
  }
}

TEST(Stats, QuantileInterpolates) {
  std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 2.5);
  EXPECT_THROW(quantile({}, 0.5), std::invalid_argument);
}

TEST(Table, RenderAlignsColumns) {
  TextTable t({"name", "value"});
  t.set_right_align(1);
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  const std::string out = t.render();
  EXPECT_NE(out.find("alpha | "), std::string::npos);
  EXPECT_NE(out.find("------+"), std::string::npos);
  EXPECT_NE(out.find("   22"), std::string::npos);
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, MarkdownMode) {
  TextTable t({"a", "b"});
  t.set_right_align(1);
  t.add_row({"x", "1"});
  const std::string md = t.render_markdown();
  EXPECT_NE(md.find("| a | b |"), std::string::npos);
  EXPECT_NE(md.find("| --- | ---: |"), std::string::npos);
}

TEST(Cli, ParsesOptionsFlagsAndPositional) {
  const char* argv[] = {"prog", "--loss", "0.3", "--verbose", "--n=5", "input.txt"};
  ArgParser args(6, argv, {"loss", "verbose", "n", "absent"});
  EXPECT_DOUBLE_EQ(args.get_double("loss", 0.0), 0.3);
  EXPECT_TRUE(args.has_flag("verbose"));
  EXPECT_EQ(args.get_int("n", 0), 5);
  EXPECT_EQ(args.get_int("absent", 7), 7);
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "input.txt");
}

TEST(Cli, AcceptsNegativeNumericValues) {
  // Both "--name value" and "--name=value" spellings must carry a sign.
  const char* argv[] = {"prog", "--delta", "-1.5", "--k", "-3", "--eps=-2.25"};
  ArgParser args(6, argv, {"delta", "k", "eps"});
  EXPECT_DOUBLE_EQ(args.get_double("delta", 0.0), -1.5);
  EXPECT_EQ(args.get_int("k", 0), -3);
  EXPECT_DOUBLE_EQ(args.get_double("eps", 0.0), -2.25);
}

// Regression: malformed numeric values used to escape as uncaught
// std::stod/std::stoi exceptions (std::terminate, no flag named); they
// must exit(2) with a diagnostic naming the flag instead.
TEST(CliDeathTest, MalformedDoubleExitsCleanly) {
  const char* argv[] = {"prog", "--loss", "lots"};
  ArgParser args(3, argv, {"loss"});
  EXPECT_EXIT(args.get_double("loss", 0.0), ::testing::ExitedWithCode(2),
              "invalid value 'lots' for --loss");
}

TEST(CliDeathTest, TrailingGarbageIsRejectedNotTruncated) {
  // std::stod("1.5x") silently parses 1.5; the parser must not.
  const char* argv[] = {"prog", "--loss=1.5x", "--n=12q"};
  ArgParser args(3, argv, {"loss", "n"});
  EXPECT_EXIT(args.get_double("loss", 0.0), ::testing::ExitedWithCode(2),
              "invalid value '1.5x' for --loss");
  EXPECT_EXIT(args.get_int("n", 0), ::testing::ExitedWithCode(2),
              "invalid value '12q' for --n");
}

TEST(CliDeathTest, NegativeU64IsRejectedNotWrapped) {
  // std::stoull("-5") wraps to 2^64-5; the parser must reject the sign.
  const char* argv[] = {"prog", "--seeds", "-5"};
  ArgParser args(3, argv, {"seeds"});
  EXPECT_EXIT(args.get_u64("seeds", 0), ::testing::ExitedWithCode(2),
              "invalid value '-5' for --seeds");
}

TEST(CliDeathTest, OutOfRangeIntExitsCleanly) {
  const char* argv[] = {"prog", "--n=99999999999999999999"};
  ArgParser args(2, argv, {"n"});
  EXPECT_EXIT(args.get_int("n", 0), ::testing::ExitedWithCode(2),
              "invalid value '99999999999999999999' for --n");
}

// Regression: the permissive ancestor silently ignored unknown options,
// so "--seedz 5" ran the single-seed fallback without a word.  Unknown
// options must exit(2) naming the nearest known flags.
TEST(CliDeathTest, UnknownOptionExitsWithNearMissSuggestion) {
  const char* argv[] = {"prog", "--seedz", "5"};
  EXPECT_EXIT((ArgParser(3, argv, {"seeds", "threads"})), ::testing::ExitedWithCode(2),
              "unknown option --seedz \\(did you mean --seeds\\?\\)");
}

TEST(CliDeathTest, UnknownOptionEqualsFormIsAlsoRejected) {
  const char* argv[] = {"prog", "--treads=4"};
  EXPECT_EXIT((ArgParser(2, argv, {"seeds", "threads"})), ::testing::ExitedWithCode(2),
              "unknown option --treads \\(did you mean --threads\\?\\)");
}

TEST(CliDeathTest, UnknownOptionWithoutNearMissListsKnownFlags) {
  const char* argv[] = {"prog", "--bogus"};
  EXPECT_EXIT((ArgParser(2, argv, {"seeds"})), ::testing::ExitedWithCode(2),
              "unknown option --bogus \\(known: --seeds\\)");
}

TEST(Cli, PrefixOfAKnownFlagIsSuggestedNotAccepted) {
  // "--seed" (a prefix typo of --seeds) must die, not half-match.
  const char* argv[] = {"prog", "--seed", "7"};
  EXPECT_EXIT((ArgParser(3, argv, {"seeds", "threads"})), ::testing::ExitedWithCode(2),
              "did you mean --seeds");
}

TEST(Require, MacrosThrowWithContext) {
  try {
    PTE_REQUIRE(1 == 2, "math broke");
    FAIL() << "should have thrown";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("math broke"), std::string::npos);
  }
  EXPECT_THROW(PTE_CHECK(false, "internal"), std::logic_error);
  // A requirement inside the library names its file relative to the
  // checkout, so messages do not depend on where the checkout lives.
  try {
    hybrid::LabelTable{}.root_of(0);
    FAIL() << "should have thrown";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("(src/hybrid/label_table.cpp:"), std::string::npos)
        << e.what();
  }
}

TEST(Gang, ForEachCallsFnOnceForEveryIndex) {
  for (const std::size_t workers : {1, 2, 3, 5}) {
    Gang gang(workers);
    for (const std::size_t n : {0, 1, 7, 1000}) {
      std::vector<std::atomic<int>> calls(n);
      std::atomic<bool> worker_in_range{true};
      gang.for_each(n, [&](std::size_t i, std::size_t w) {
        calls[i].fetch_add(1);
        if (w >= workers) worker_in_range = false;
      });
      for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(calls[i].load(), 1) << workers << " workers, n=" << n << ", index " << i;
      EXPECT_TRUE(worker_in_range.load()) << workers << " workers, n=" << n;
    }
  }
}

TEST(Gang, OneWorkerRunsInlineOnTheCallingThread) {
  Gang gang(1);
  std::thread::id ran_on;
  gang.run([&](std::size_t) { ran_on = std::this_thread::get_id(); });
  EXPECT_EQ(ran_on, std::this_thread::get_id());
  EXPECT_THROW(gang.run([](std::size_t) { throw std::runtime_error("inline"); }),
               std::runtime_error);
}

TEST(Gang, RunRethrowsTheLowestThrowingWorkerOnlyAfterEveryWorkerFinished) {
  Gang gang(4);
  // Two workers throw at once while a third is still running: run()
  // waits for it, then rethrows the lower thrower's exception.
  const struct {
    std::size_t low, high, slow;
  } cases[] = {{1, 3, 2}, {0, 2, 3}};
  for (const auto& c : cases) {
    std::atomic<int> finished{0};
    try {
      gang.run([&](std::size_t w) {
        if (w == c.slow) std::this_thread::sleep_for(std::chrono::milliseconds(20));
        finished.fetch_add(1);
        if (w == c.low || w == c.high) throw std::runtime_error(cat("worker ", w));
      });
      ADD_FAILURE() << "run() returned normally";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), cat("worker ", c.low));
      EXPECT_EQ(finished.load(), 4);
    }
    // The gang runs again afterwards, on every worker, without a stale error.
    std::vector<std::atomic<int>> ran(4);
    gang.run([&](std::size_t w) { ran[w].fetch_add(1); });
    for (std::size_t w = 0; w < ran.size(); ++w) EXPECT_EQ(ran[w].load(), 1) << "worker " << w;
  }
}

}  // namespace
}  // namespace ptecps::util
