// Real-GPU validation harness (NOT built by this repository's CMake — it
// requires nvcc and a CUDA device; everything else in the repo runs on the
// simulator).  Feed it WCMI files produced by `wcmgen generate --seed 0`
// (README "Quickstart" loops it over every configuration), and it times
// thrust::sort on them, reproducing the paper's measurement protocol
// (10 runs, cudaEvent timing):
//
//   nvcc -O3 -o thrust_harness thrust_harness.cu
//   ./thrust_harness worst_E15_b512_n*.wcmi [more.wcmi ...]
//
// Compare each adversarial file against a random shuffle of the same size
// (the harness generates one per input) and, on a Maxwell or Turing card,
// the slowdown shape of the paper's Figures 4/5 should appear.  Collect
// bank-conflict counts with:
//   nv-nsight-cu-cli --metrics \
//     l1tex__data_bank_conflicts_pipe_lsu_mem_shared_op_ld.sum \
//     ./thrust_harness file.wcmi

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <random>
#include <vector>

#include <thrust/device_vector.h>
#include <thrust/sort.h>

namespace {

constexpr int kRuns = 10;  // the paper reports the average of 10 runs

std::vector<std::int32_t> read_wcmi(const char* path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    std::fprintf(stderr, "cannot open %s\n", path);
    std::exit(1);
  }
  char magic[4];
  std::uint32_t version = 0;
  std::uint64_t n = 0;
  is.read(magic, 4);
  is.read(reinterpret_cast<char*>(&version), sizeof(version));
  is.read(reinterpret_cast<char*>(&n), sizeof(n));
  if (!is || std::string(magic, 4) != "WCMI" || version != 1) {
    std::fprintf(stderr, "%s is not a WCMI v1 file\n", path);
    std::exit(1);
  }
  std::vector<std::int32_t> keys(n);
  is.read(reinterpret_cast<char*>(keys.data()),
          static_cast<std::streamsize>(n * sizeof(std::int32_t)));
  if (!is) {
    std::fprintf(stderr, "%s is truncated\n", path);
    std::exit(1);
  }
  return keys;
}

float time_sort_ms(const std::vector<std::int32_t>& host_keys) {
  float total = 0.0f;
  for (int run = 0; run < kRuns; ++run) {
    thrust::device_vector<std::int32_t> d(host_keys.begin(),
                                          host_keys.end());
    cudaEvent_t start, stop;
    cudaEventCreate(&start);
    cudaEventCreate(&stop);
    cudaEventRecord(start);
    thrust::sort(d.begin(), d.end());
    cudaEventRecord(stop);
    cudaEventSynchronize(stop);
    float ms = 0.0f;
    cudaEventElapsedTime(&ms, start, stop);
    total += ms;
    cudaEventDestroy(start);
    cudaEventDestroy(stop);
  }
  return total / kRuns;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s input.wcmi [more.wcmi ...]\n", argv[0]);
    return 2;
  }
  std::printf("%-40s %12s %12s %12s %9s\n", "file", "n", "worst_ms",
              "random_ms", "slowdown");
  for (int i = 1; i < argc; ++i) {
    const auto worst = read_wcmi(argv[i]);

    std::vector<std::int32_t> random = worst;
    std::mt19937_64 rng(12345);
    std::shuffle(random.begin(), random.end(), rng);

    const float worst_ms = time_sort_ms(worst);
    const float random_ms = time_sort_ms(random);
    std::printf("%-40s %12zu %12.3f %12.3f %8.2f%%\n", argv[i], worst.size(),
                worst_ms, random_ms,
                (worst_ms - random_ms) / random_ms * 100.0f);
  }
  return 0;
}
