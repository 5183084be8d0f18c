#include "util/kernels/kernels.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "util/random.h"

// Differential harness: every backend the running CPU can execute must be
// bit-identical to the scalar oracle on every kernel, across sizes that
// straddle the vector widths (0, 1, partial lane, exact lane, lane + 1),
// densities from all-zero to all-one, odd word offsets (pointers from
// std::vector<uint64_t> are only 8-byte aligned — backends must survive
// that), and the aliasing patterns the contracts permit (dst == src,
// srcs[j] == dst). The CI matrix re-runs this whole binary once per
// backend with EBI_FORCE_KERNEL pinned, and ForcedBackendIsActive turns
// the pin into an assertion so a mis-spelled leg fails instead of
// silently re-testing auto-detection.

namespace ebi {
namespace kernels {
namespace {

// Word-span sizes: empty, sub-lane, one AVX2 lane (4 words), one AVX-512
// lane (8 words), lane +/- 1, and spans long enough to exercise the main
// loop plus every tail length.
const size_t kSizes[] = {0, 1, 3, 4, 5, 7, 8, 9, 15, 16, 63, 64, 65, 512};

std::vector<uint64_t> RandomWords(size_t n, double density, Rng* rng) {
  std::vector<uint64_t> words(n);
  for (uint64_t& w : words) {
    if (density <= 0.0) {
      w = 0;
    } else if (density >= 1.0) {
      w = ~uint64_t{0};
    } else if (density == 0.5) {
      w = rng->Next();
    } else if (density < 0.5) {
      // Sparse: most words zero, survivors fully random.
      w = rng->Bernoulli(density * 2) ? rng->Next() : 0;
    } else {
      w = rng->Bernoulli((1.0 - density) * 2) ? rng->Next() : ~uint64_t{0};
    }
  }
  return words;
}

const double kDensities[] = {0.0, 0.05, 0.5, 0.95, 1.0};

class KernelDifferentialTest
    : public ::testing::TestWithParam<const BitmapKernels*> {
 protected:
  const BitmapKernels& backend() const { return *GetParam(); }
};

std::string BackendName(
    const ::testing::TestParamInfo<const BitmapKernels*>& info) {
  return info.param->name;
}

TEST_P(KernelDifferentialTest, BinaryOpsMatchScalarOracle) {
  const BitmapKernels& oracle = Scalar();
  Rng rng(1001);
  for (size_t n : kSizes) {
    for (double density : kDensities) {
      const std::vector<uint64_t> dst0 = RandomWords(n, density, &rng);
      const std::vector<uint64_t> src = RandomWords(n, 0.5, &rng);
      const struct {
        const char* op;
        void (*tested)(uint64_t*, const uint64_t*, size_t);
        void (*reference)(uint64_t*, const uint64_t*, size_t);
      } cases[] = {
          {"and", backend().and_words, oracle.and_words},
          {"or", backend().or_words, oracle.or_words},
          {"xor", backend().xor_words, oracle.xor_words},
          {"andnot", backend().andnot_words, oracle.andnot_words},
          {"copy", backend().copy_words, oracle.copy_words},
      };
      for (const auto& c : cases) {
        std::vector<uint64_t> got = dst0;
        std::vector<uint64_t> want = dst0;
        c.tested(got.data(), src.data(), n);
        c.reference(want.data(), src.data(), n);
        EXPECT_EQ(got, want) << backend().name << " " << c.op << " n=" << n
                             << " density=" << density;
        // Self-aliasing (dst == src) is part of the contract.
        std::vector<uint64_t> aliased = dst0;
        std::vector<uint64_t> aliased_want = dst0;
        c.tested(aliased.data(), aliased.data(), n);
        c.reference(aliased_want.data(), aliased_want.data(), n);
        EXPECT_EQ(aliased, aliased_want)
            << backend().name << " " << c.op << " aliased n=" << n;
      }
    }
  }
}

TEST_P(KernelDifferentialTest, UnaryOpsMatchScalarOracle) {
  const BitmapKernels& oracle = Scalar();
  Rng rng(1002);
  for (size_t n : kSizes) {
    for (double density : kDensities) {
      const std::vector<uint64_t> dst0 = RandomWords(n, density, &rng);

      std::vector<uint64_t> got = dst0;
      std::vector<uint64_t> want = dst0;
      backend().not_words(got.data(), n);
      oracle.not_words(want.data(), n);
      EXPECT_EQ(got, want) << backend().name << " not n=" << n;

      got = dst0;
      want = dst0;
      const uint64_t fill = rng.Next();
      backend().fill_words(got.data(), fill, n);
      oracle.fill_words(want.data(), fill, n);
      EXPECT_EQ(got, want) << backend().name << " fill n=" << n;

      EXPECT_EQ(backend().popcount_words(dst0.data(), n),
                oracle.popcount_words(dst0.data(), n))
          << backend().name << " popcount n=" << n
          << " density=" << density;
    }
  }
}

TEST_P(KernelDifferentialTest, OddWordOffsetsMatchScalarOracle) {
  // Start the spans at data() + 1 / + 3 so they are 8-byte but not
  // 32/64-byte aligned: a backend using aligned vector loads would fault
  // or diverge here.
  const BitmapKernels& oracle = Scalar();
  Rng rng(1003);
  for (size_t offset : {size_t{1}, size_t{3}}) {
    for (size_t n : {size_t{8}, size_t{65}, size_t{512}}) {
      const std::vector<uint64_t> dst0 = RandomWords(n + offset, 0.5, &rng);
      const std::vector<uint64_t> src = RandomWords(n + offset, 0.5, &rng);
      std::vector<uint64_t> got = dst0;
      std::vector<uint64_t> want = dst0;
      backend().and_words(got.data() + offset, src.data() + offset, n);
      oracle.and_words(want.data() + offset, src.data() + offset, n);
      EXPECT_EQ(got, want) << backend().name << " and offset=" << offset;

      got = dst0;
      want = dst0;
      backend().xor_words(got.data() + offset, src.data() + offset, n);
      oracle.xor_words(want.data() + offset, src.data() + offset, n);
      EXPECT_EQ(got, want) << backend().name << " xor offset=" << offset;

      EXPECT_EQ(backend().popcount_words(dst0.data() + offset, n),
                oracle.popcount_words(dst0.data() + offset, n))
          << backend().name << " popcount offset=" << offset;
    }
  }
}

TEST_P(KernelDifferentialTest, ManyOpsMatchChainedScalarOracle) {
  const BitmapKernels& oracle = Scalar();
  Rng rng(1004);
  for (size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{64},
                   size_t{65}, size_t{512}}) {
    for (size_t k : {size_t{1}, size_t{2}, size_t{3}, size_t{7}}) {
      std::vector<std::vector<uint64_t>> sources;
      sources.reserve(k);
      for (size_t j = 0; j < k; ++j) {
        sources.push_back(RandomWords(n, j % 2 == 0 ? 0.5 : 0.05, &rng));
      }
      std::vector<const uint64_t*> srcs;
      srcs.reserve(k);
      for (const auto& s : sources) {
        srcs.push_back(s.data());
      }

      // Reference: fold the sources with the scalar binary kernels.
      std::vector<uint64_t> want_or = sources[0];
      std::vector<uint64_t> want_and = sources[0];
      for (size_t j = 1; j < k; ++j) {
        oracle.or_words(want_or.data(), srcs[j], n);
        oracle.and_words(want_and.data(), srcs[j], n);
      }

      std::vector<uint64_t> got(n, 0xdeadbeefdeadbeefULL);
      backend().or_many(got.data(), srcs.data(), k, n);
      EXPECT_EQ(got, want_or)
          << backend().name << " or_many k=" << k << " n=" << n;

      got.assign(n, 0xdeadbeefdeadbeefULL);
      backend().and_many(got.data(), srcs.data(), k, n);
      EXPECT_EQ(got, want_and)
          << backend().name << " and_many k=" << k << " n=" << n;

      // Contract: dst may appear among the sources.
      std::vector<uint64_t> inplace = sources[0];
      srcs[0] = inplace.data();
      backend().or_many(inplace.data(), srcs.data(), k, n);
      EXPECT_EQ(inplace, want_or)
          << backend().name << " or_many dst-aliased k=" << k;
    }
  }
}

// Bitwise CRC-32 (IEEE, reflected): the definition every crc32 entry must
// reproduce, one polynomial step per input bit.
uint32_t BitwiseCrc32(const uint8_t* data, size_t n, uint32_t seed) {
  uint32_t crc = ~seed;
  for (size_t i = 0; i < n; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) != 0 ? 0xEDB88320u : 0u);
    }
  }
  return ~crc;
}

TEST_P(KernelDifferentialTest, Crc32MatchesBitwiseReference) {
  constexpr size_t kMaxLen = 9000;
  constexpr size_t kMaxOffset = 63;
  Rng rng(0xC3C32);
  std::vector<uint8_t> buf(kMaxLen + kMaxOffset + 1);
  for (uint8_t& b : buf) {
    b = static_cast<uint8_t>(rng.Next());
  }
  const auto check = [&](size_t len, size_t offset, uint32_t seed) {
    const uint8_t* data = buf.data() + offset;
    ASSERT_EQ(backend().crc32(data, len, seed), BitwiseCrc32(data, len, seed))
        << backend().name << " len=" << len << " offset=" << offset
        << " seed=" << seed;
  };
  // Every length up to 9000 (past two 4 KB pages), each at a random start
  // offset with a random seed: every fold-loop trip count and every tail.
  for (size_t len = 0; len <= kMaxLen; ++len) {
    check(len, static_cast<size_t>(rng.UniformInt(kMaxOffset + 1)),
          static_cast<uint32_t>(rng.Next()));
  }
  // Every start offset for the short lengths, where the table path and
  // the first fold meet, and for a page-sized payload.
  for (size_t offset = 0; offset <= kMaxOffset; ++offset) {
    for (size_t len = 0; len <= 160; ++len) {
      check(len, offset, static_cast<uint32_t>(rng.Next()));
    }
    check(4072, offset, static_cast<uint32_t>(rng.Next()));
  }
}

TEST_P(KernelDifferentialTest, Crc32CheckValueAndChaining) {
  const char* check = "123456789";
  EXPECT_EQ(backend().crc32(reinterpret_cast<const uint8_t*>(check), 9, 0),
            0xCBF43926u)
      << backend().name;
  Rng rng(0xC4A1);
  std::vector<uint8_t> whole(5000);
  for (uint8_t& b : whole) {
    b = static_cast<uint8_t>(rng.Next());
  }
  for (const size_t split : {size_t{0}, size_t{1}, size_t{15}, size_t{16},
                             size_t{63}, size_t{64}, size_t{100},
                             size_t{4072}, size_t{5000}}) {
    const uint32_t a = backend().crc32(whole.data(), split, 0);
    EXPECT_EQ(backend().crc32(whole.data() + split, whole.size() - split, a),
              backend().crc32(whole.data(), whole.size(), 0))
        << backend().name << " split=" << split;
  }
}

INSTANTIATE_TEST_SUITE_P(AllSupportedBackends, KernelDifferentialTest,
                         ::testing::ValuesIn(Supported()),
                         BackendName);

TEST(KernelRegistryTest, ScalarIsAlwaysSupported) {
  const std::vector<const BitmapKernels*>& supported = Supported();
  ASSERT_FALSE(supported.empty());
  EXPECT_STREQ(supported.front()->name, "scalar");
  EXPECT_EQ(&Scalar(), supported.front());
}

TEST(KernelRegistryTest, ByNameFindsEverySupportedBackend) {
  for (const BitmapKernels* backend : Supported()) {
    EXPECT_EQ(ByName(backend->name), backend);
  }
  EXPECT_EQ(ByName("no-such-backend"), nullptr);
}

TEST(KernelRegistryTest, ActiveIsSupported) {
  const BitmapKernels& active = Active();
  bool found = false;
  for (const BitmapKernels* backend : Supported()) {
    found = found || backend == &active;
  }
  EXPECT_TRUE(found) << "Active() returned unregistered backend "
                     << active.name;
}

TEST(KernelRegistryTest, ForcedBackendIsActive) {
  // When the CI matrix pins EBI_FORCE_KERNEL to a backend this CPU
  // supports, the pin must actually take effect; otherwise the forced leg
  // would silently re-test auto-detection.
  const char* forced = std::getenv("EBI_FORCE_KERNEL");
  if (forced == nullptr || ByName(forced) == nullptr) {
    GTEST_SKIP() << "EBI_FORCE_KERNEL not set to a supported backend";
  }
  EXPECT_STREQ(Active().name, forced);
}

}  // namespace
}  // namespace kernels
}  // namespace ebi
