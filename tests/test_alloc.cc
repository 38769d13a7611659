// Heap-allocation check of the GNN hot path. GnnWorkspace promises that
// once a workspace and its caches have seen their peak graph, Forward and
// Backward make no heap allocation per graph; federated training's
// throughput relies on it. This binary replaces the global operator new
// with a counting one, so it is a test binary of its own. The
// replacement allocates with malloc and frees with free, which the
// AddressSanitizer build intercepts like any other allocation.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "common/rng.h"
#include "gnn/gnn_model.h"
#include "graph/corpus.h"

namespace {

std::atomic<long long> g_allocations{0};

}  // namespace

// None of these is inlined: inlined into a caller, a malloc'd pointer
// would meet operator delete there, or a new'd one std::free, which GCC
// reports as a mismatched deallocation.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t size) {
  return ::operator new(size);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace fexiot {
namespace {

// A second pass over the same prepared graphs allocates nothing: the
// training shape (a contrastive pair's two caches, forward and backward
// through one workspace), an inference forward through the workspace's
// own cache, and a batched forward of an assembled batch.
TEST(WarmWorkspace, ForwardAndBackwardAllocateNothingOnceWarm) {
  CorpusOptions opts;
  opts.platforms = {Platform::kSmartThings, Platform::kHomeAssistant,
                    Platform::kIfttt, Platform::kGoogleAssistant,
                    Platform::kAlexa};
  opts.max_nodes = 12;
  Rng rng(5);
  GraphCorpusGenerator gen(opts, &rng);
  const std::vector<InteractionGraph> graphs = gen.GenerateDataset(12);
  for (GnnType type : {GnnType::kGcn, GnnType::kGin, GnnType::kMagnn}) {
    GnnConfig c;
    c.type = type;
    GnnModel model(c);
    std::vector<PreparedGraph> prepared;
    std::vector<const PreparedGraph*> members;
    for (const InteractionGraph& g : graphs) {
      prepared.push_back(PrepareGraph(g, c));
    }
    for (const PreparedGraph& p : prepared) members.push_back(&p);
    GraphBatch batch;
    AssembleGraphBatch(members, c, &batch);
    const std::vector<double> grad(static_cast<size_t>(c.embedding_dim),
                                   0.1);
    ForwardCache ci, cj;
    GnnWorkspace ws;
    std::vector<std::vector<double>> embeddings;
    auto pass = [&] {
      for (size_t i = 0; i + 1 < prepared.size(); ++i) {
        model.Forward(prepared[i], &ci, &ws);
        model.Forward(prepared[i + 1], &cj, &ws);
        model.Backward(ci, grad, &ws);
        model.Backward(cj, grad, &ws);
        model.Forward(prepared[i], nullptr, &ws);
      }
      model.ForwardBatch(batch, &ws, &embeddings);
    };
    const long long start = g_allocations.load(std::memory_order_relaxed);
    pass();  // every matrix reaches its peak shape
    const long long before = g_allocations.load(std::memory_order_relaxed);
    // The count moves at all: the replacement operator new is the one
    // linked.
    ASSERT_GT(before - start, 0) << GnnTypeName(type);
    pass();
    const long long allocations =
        g_allocations.load(std::memory_order_relaxed) - before;
    EXPECT_EQ(allocations, 0) << GnnTypeName(type);
  }
}

}  // namespace
}  // namespace fexiot
