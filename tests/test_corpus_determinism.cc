// Stream-split corpus generation: determinism + golden-statistics
// regression harness.
//
// GenerateDataset / BuildClusteredFederatedCorpus fan per-graph work out
// over the global thread pool, with graph i generated from an Rng child
// derived as ForkAt(i) of one fork of the shared stream. Two contracts are
// pinned here:
//
//  1. Bit-identity: for a fixed seed the corpus content — every rule
//     string, feature bit pattern, edge, label, witness, and partition
//     index — is a pure function of the seed. Thread count and execution
//     schedule (threads=8 executes indices in nondeterministic order, so
//     passing at 8 threads *is* the generation-order test) must not leak
//     into content.
//  2. Golden statistics: the distributional shape of the pinned corpora
//     (node/edge counts, label balance, vulnerability-type histogram,
//     per-platform node mix, Dirichlet partition skew) matches the
//     checked-in baseline tests/golden/corpus_stats.json within per-key
//     tolerances. Regenerate after an intentional content change with
//       FEXIOT_UPDATE_GOLDEN=1 ./test_corpus_determinism
//     (run from anywhere; the path is baked in at compile time).

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "common/parallel.h"
#include "corpus_golden.h"
#include "graph/corpus.h"

#ifndef FEXIOT_SOURCE_DIR
#define FEXIOT_SOURCE_DIR "."
#endif

namespace fexiot {
namespace {

constexpr uint64_t kGoldenSeed = 20260806ULL;
constexpr int kGoldenCount = 240;

const char* GoldenPath() {
  return FEXIOT_SOURCE_DIR "/tests/golden/corpus_stats.json";
}

/// The pinned heterogeneous corpus configuration behind the baseline.
CorpusOptions GoldenOptions() {
  CorpusOptions opt;
  opt.platforms = {Platform::kSmartThings, Platform::kHomeAssistant,
                   Platform::kIfttt, Platform::kGoogleAssistant,
                   Platform::kAlexa};
  opt.min_nodes = 3;
  opt.max_nodes = 10;
  opt.vulnerable_fraction = 0.3;
  return opt;
}

std::vector<InteractionGraph> GenerateGoldenDataset() {
  Rng rng(kGoldenSeed);
  GraphCorpusGenerator gen(GoldenOptions(), &rng);
  return gen.GenerateDataset(kGoldenCount);
}

FederatedCorpus GenerateGoldenFederatedCorpus() {
  Rng rng(kGoldenSeed + 1);
  return BuildClusteredFederatedCorpus(GoldenOptions(), /*total_graphs=*/120,
                                       /*num_clients=*/6, /*num_clusters=*/3,
                                       /*alpha=*/0.5,
                                       /*profile_strength=*/0.5, &rng);
}

/// Per-key tolerance for the checked-in baseline: fractions move a little
/// when upstream vocabulary/idiom changes shift the rejection sampling;
/// structural count averages get an absolute band; hard bounds are exact.
double ToleranceFor(const std::string& name) {
  if (name == "total_graphs" || name == "nodes_min" || name == "nodes_max" ||
      name == "fed_num_clients" || name == "fed_num_clusters" ||
      name == "fed_test_pool_size") {
    return 0.0;
  }
  if (name == "nodes_avg") return 1.0;
  if (name == "edges_avg") return 1.5;
  if (name == "fed_partition_size_cv") return 0.35;
  if (name == "fed_partition_label_dev") return 0.1;
  return 0.06;  // fractions: label balance, type histogram, platform mix
}

TEST(GoldenStats, MatchesCheckedInBaseline) {
  const auto graphs = GenerateGoldenDataset();
  golden::StatsMap stats = golden::ComputeGoldenStats(graphs);
  golden::AddFederatedStats(GenerateGoldenFederatedCorpus(), &stats);
  if (const char* update = std::getenv("FEXIOT_UPDATE_GOLDEN")) {
    if (std::string(update) == "1") {
      ASSERT_TRUE(golden::WriteGoldenJson(GoldenPath(), stats, ToleranceFor));
      GTEST_SKIP() << "golden baseline regenerated at " << GoldenPath();
    }
  }

  golden::GoldenBaseline baseline;
  ASSERT_TRUE(golden::ReadGoldenBaseline(GoldenPath(), &baseline))
      << "missing/empty baseline " << GoldenPath()
      << " — regenerate with FEXIOT_UPDATE_GOLDEN=1";
  // Every baseline key must be observed and within tolerance; every
  // observed key must be pinned (no silently-untracked statistics).
  for (const auto& [name, entry] : baseline) {
    auto it = stats.find(name);
    ASSERT_NE(it, stats.end()) << "baseline key not observed: " << name;
    EXPECT_NEAR(it->second, entry.value, entry.tolerance + 1e-12)
        << "golden statistic drifted: " << name;
  }
  for (const auto& [name, value] : stats) {
    EXPECT_TRUE(baseline.count(name))
        << "observed statistic not pinned in baseline: " << name << " = "
        << value << " — regenerate with FEXIOT_UPDATE_GOLDEN=1";
  }
}

// Thread-count / schedule parity. threads=8 on any host executes the
// per-graph tasks in nondeterministic order, so equality with the
// threads=1 sequential pass also proves generation-order independence.
TEST(CorpusDeterminism, DatasetBitIdenticalAcrossThreadCounts) {
  CorpusOptions opt;
  opt.platforms = {Platform::kIfttt, Platform::kAlexa};
  opt.min_nodes = 3;
  opt.max_nodes = 7;
  opt.vulnerable_fraction = 0.25;
  auto fingerprint_with_threads = [&](size_t threads) {
    parallel::SetThreads(threads);
    Rng rng(kGoldenSeed + 2);
    GraphCorpusGenerator gen(opt, &rng);
    const auto graphs = gen.GenerateDataset(1000);
    parallel::SetThreads(0);
    return golden::CorpusFingerprint(graphs);
  };
  const uint64_t fp1 = fingerprint_with_threads(1);
  const uint64_t fp2 = fingerprint_with_threads(2);
  const uint64_t fp8 = fingerprint_with_threads(8);
  EXPECT_EQ(fp1, fp2);
  EXPECT_EQ(fp1, fp8);
}

TEST(CorpusDeterminism, FederatedCorpusBitIdenticalAcrossThreadCounts) {
  auto fingerprint_with_threads = [&](size_t threads) {
    parallel::SetThreads(threads);
    Rng rng(kGoldenSeed + 3);
    const FederatedCorpus fed = BuildClusteredFederatedCorpus(
        GoldenOptions(), 90, 6, 3, 1.0, 0.5, &rng);
    parallel::SetThreads(0);
    return golden::FederatedCorpusFingerprint(fed);
  };
  const uint64_t fp1 = fingerprint_with_threads(1);
  const uint64_t fp4 = fingerprint_with_threads(4);
  EXPECT_EQ(fp1, fp4);
}

TEST(CorpusDeterminism, SameSeedReproducesDifferentSeedDiffers) {
  CorpusOptions opt;
  opt.platforms = {Platform::kIfttt};
  opt.min_nodes = 3;
  opt.max_nodes = 6;
  auto fp = [&](uint64_t seed) {
    Rng rng(seed);
    GraphCorpusGenerator gen(opt, &rng);
    return golden::CorpusFingerprint(gen.GenerateDataset(40));
  };
  EXPECT_EQ(fp(123), fp(123));
  EXPECT_NE(fp(123), fp(124));
}

// Successive GenerateDataset calls on one generator must advance the
// shared stream: device-profiled or repeated corpora may not repeat.
TEST(CorpusDeterminism, SuccessiveCallsProduceFreshContent) {
  CorpusOptions opt;
  opt.platforms = {Platform::kIfttt};
  opt.min_nodes = 3;
  opt.max_nodes = 6;
  Rng rng(9001);
  GraphCorpusGenerator gen(opt, &rng);
  const uint64_t first = golden::CorpusFingerprint(gen.GenerateDataset(30));
  const uint64_t second = golden::CorpusFingerprint(gen.GenerateDataset(30));
  EXPECT_NE(first, second);
}

// Device profiles applied to the shared generator must reach the per-graph
// workers of the parallel fan-out (profile replay), and must change
// content deterministically.
TEST(CorpusDeterminism, DeviceProfilesReachParallelWorkers) {
  CorpusOptions opt;
  opt.platforms = {Platform::kIfttt};
  opt.min_nodes = 3;
  opt.max_nodes = 6;
  auto fp = [&](bool profiled, size_t threads) {
    parallel::SetThreads(threads);
    Rng rng(4242);
    GraphCorpusGenerator gen(opt, &rng);
    if (profiled) gen.ApplyDeviceProfile(0xabcdULL, 1.5);
    const uint64_t f = golden::CorpusFingerprint(gen.GenerateDataset(40));
    parallel::SetThreads(0);
    return f;
  };
  EXPECT_NE(fp(false, 1), fp(true, 1));       // profile changes content
  EXPECT_EQ(fp(true, 1), fp(true, 4));        // ... identically per thread count
}

}  // namespace
}  // namespace fexiot
