#include "nn/serialize.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "util/rng.hpp"

namespace socpinn::nn {
namespace {

TEST(SerializeMlp, RoundTripPreservesPredictions) {
  util::Rng rng(9);
  Mlp net = Mlp::make({3, 16, 32, 16, 1}, rng);
  std::stringstream stream;
  save_mlp(stream, net);
  Mlp loaded = load_mlp(stream);

  util::Rng probe_rng(10);
  for (int trial = 0; trial < 20; ++trial) {
    double features[3];
    for (double& f : features) f = probe_rng.uniform(-2.0, 2.0);
    EXPECT_DOUBLE_EQ(loaded.predict_scalar(features),
                     net.predict_scalar(features));
  }
}

TEST(SerializeMlp, RoundTripPreservesStructure) {
  util::Rng rng(11);
  Mlp net = Mlp::make({4, 8, 2}, rng, ActivationKind::kTanh);
  std::stringstream stream;
  save_mlp(stream, net);
  Mlp loaded = load_mlp(stream);
  EXPECT_EQ(loaded.num_layers(), net.num_layers());
  EXPECT_EQ(loaded.num_params(), net.num_params());
  EXPECT_EQ(loaded.describe(), net.describe());
}

TEST(SerializeMlp, RejectsGarbageInput) {
  std::stringstream stream("not-a-model 1");
  EXPECT_THROW((void)load_mlp(stream), std::runtime_error);
}

TEST(SerializeMlp, RejectsWrongVersion) {
  std::stringstream stream("socpinn-mlp 99\n0\n");
  EXPECT_THROW((void)load_mlp(stream), std::runtime_error);
}

TEST(SerializeMlp, RejectsTruncatedStream) {
  util::Rng rng(12);
  Mlp net = Mlp::make({2, 4, 1}, rng);
  std::stringstream stream;
  save_mlp(stream, net);
  const std::string full = stream.str();
  std::stringstream truncated(full.substr(0, full.size() / 2));
  EXPECT_THROW((void)load_mlp(truncated), std::runtime_error);
}

TEST(SerializeMlp, RejectsMatrixDimensionsBeforeAllocating) {
  // rows * cols wraps to 2 here: a buffer sized from the product would be
  // overrun by the read loop long before the data runs out.
  std::string overflow = "socpinn-mlp 1\n1\ndense\n9223372036854775809 2\n";
  for (int i = 0; i < 20000; ++i) overflow += "0.5 ";
  std::stringstream wrapped(overflow);
  EXPECT_THROW((void)load_mlp(wrapped), std::runtime_error);

  // A zero dimension is malformed too, and fails as a load error rather
  // than from the Dense constructor.
  std::stringstream zero("socpinn-mlp 1\n1\ndense\n0 4\n1 4\n0 0 0 0\n");
  EXPECT_THROW((void)load_mlp(zero), std::runtime_error);

  // 2^40 doubles that fit size_t but not memory: the header alone must not
  // size an allocation, so the short stream fails as truncated data, not
  // std::bad_alloc.
  std::stringstream huge(
      "socpinn-mlp 1\n1\ndense\n1048576 1048576\n0.5 0.5\n");
  EXPECT_THROW((void)load_mlp(huge), std::runtime_error);
}

TEST(SerializeScaler, RoundTrips) {
  StandardScaler scaler =
      StandardScaler::from_moments({1.0, -2.5}, {0.1, 3.0});
  std::stringstream stream;
  save_scaler(stream, scaler);
  const StandardScaler loaded = load_scaler(stream);
  EXPECT_EQ(loaded.means(), scaler.means());
  EXPECT_EQ(loaded.stds(), scaler.stds());
}

TEST(SerializeScaler, RejectsUnfitted) {
  StandardScaler scaler;
  std::stringstream stream;
  EXPECT_THROW(save_scaler(stream, scaler), std::runtime_error);
}

TEST(SerializeScaler, RejectsBadHeader) {
  std::stringstream stream("wrong 1 2\n");
  EXPECT_THROW((void)load_scaler(stream), std::runtime_error);

  // A feature count of 2^40 with one value behind it: the buffers grow as
  // values arrive, so this is a truncated file, not std::bad_alloc.
  std::stringstream huge("socpinn-scaler 1 1099511627776\n0.5\n");
  EXPECT_THROW((void)load_scaler(huge), std::runtime_error);

  // Moments StandardScaler::from_moments refuses: no features, a zero std
  // and a negative std are malformed files too.
  for (const char* text :
       {"socpinn-scaler 1 0\n", "socpinn-scaler 1 1\n0.5\n0\n",
        "socpinn-scaler 1 1\n0.5\n-2\n"}) {
    std::stringstream bad(text);
    EXPECT_THROW((void)load_scaler(bad), std::runtime_error) << text;
  }
}

TEST(SerializeMlp, FileRoundTrip) {
  util::Rng rng(13);
  Mlp net = Mlp::make({2, 4, 1}, rng);
  const std::string path = ::testing::TempDir() + "socpinn_mlp_test.txt";
  save_mlp_file(path, net);
  Mlp loaded = load_mlp_file(path);
  double features[2] = {0.5, -0.5};
  EXPECT_DOUBLE_EQ(loaded.predict_scalar(features),
                   net.predict_scalar(features));
  std::remove(path.c_str());
}

TEST(SerializeMlp, FileErrorsThrow) {
  util::Rng rng(1);
  Mlp net = Mlp::make({2, 2}, rng);
  EXPECT_THROW(save_mlp_file("/nonexistent/dir/model.txt", net),
               std::runtime_error);
  EXPECT_THROW((void)load_mlp_file("/nonexistent/model.txt"),
               std::runtime_error);
}

}  // namespace
}  // namespace socpinn::nn
