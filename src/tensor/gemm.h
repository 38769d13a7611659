#pragma once

namespace fexiot {
namespace gemm {

/// \brief Provenance of the dense product kernel (tensor/ops.h).
struct KernelInfo {
  /// The vector ISA the kernel was compiled for: "avx512" | "avx2" |
  /// "scalar".
  const char* name;
};

/// \brief The kernel every MatMul* runs. Nothing in the library calls
/// this; benchmarks print it as provenance.
const KernelInfo& ActiveKernel();

}  // namespace gemm
}  // namespace fexiot
