#include "core/model_io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>
#include <string>

#include "core/test_helpers.hpp"
#include "core/trainer.hpp"
#include "data/windowing.hpp"

namespace socpinn::core {
namespace {

TwoBranchNet make_trained_net() {
  const auto traces = testing::make_train_traces();
  const auto b1 =
      data::build_branch1_data(std::span<const data::Trace>(traces));
  const auto b2 = data::build_branch2_data(
      std::span<const data::Trace>(traces), 120.0);
  TwoBranchNet net({}, 1);
  TrainConfig config;
  config.epochs = 15;
  (void)train_branch1(net, b1, config);
  (void)train_branch2(net, b2, std::nullopt, config);
  return net;
}

TEST(ModelIo, RoundTripPreservesInference) {
  TwoBranchNet net = make_trained_net();
  const std::string path = ::testing::TempDir() + "socpinn_model_test.txt";
  save_model(path, net);
  TwoBranchNet loaded = load_model(path);

  for (double soc : {0.2, 0.5, 0.9}) {
    EXPECT_DOUBLE_EQ(loaded.estimate_soc(3.7, -2.0, 25.0),
                     net.estimate_soc(3.7, -2.0, 25.0));
    EXPECT_DOUBLE_EQ(loaded.predict_soc(soc, -3.0, 25.0, 120.0),
                     net.predict_soc(soc, -3.0, 25.0, 120.0));
  }
  EXPECT_EQ(loaded.num_params(), net.num_params());
  std::remove(path.c_str());
}

TEST(ModelIo, UntrainedModelCannotBeSaved) {
  TwoBranchNet net;
  const std::string path = ::testing::TempDir() + "socpinn_untrained.txt";
  EXPECT_THROW(save_model(path, net), std::runtime_error);
}

TEST(ModelIo, LoadRejectsMissingAndCorrupt) {
  EXPECT_THROW((void)load_model("/nonexistent/model.txt"),
               std::runtime_error);
  const std::string path = ::testing::TempDir() + "socpinn_corrupt.txt";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("garbage file contents", f);
    std::fclose(f);
  }
  EXPECT_THROW((void)load_model(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(ModelIo, LoadNamesTheFileOfAMalformedScaler) {
  // A zero-feature scaler is refused as a malformed file, and the message
  // names the file it came from.
  const std::string path = ::testing::TempDir() + "socpinn_bad_scaler.txt";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("socpinn-two-branch 1\nsocpinn-scaler 1 0\n", f);
    std::fclose(f);
  }
  try {
    (void)load_model(path);
    ADD_FAILURE() << "load_model accepted a zero-feature scaler";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST(ModelIo, ExportCHeaderContainsEverything) {
  TwoBranchNet net = make_trained_net();
  const std::string header = export_c_header(net, "socpinn");
  // Scaler arrays for both branches.
  EXPECT_NE(header.find("socpinn_b1_mean[3]"), std::string::npos);
  EXPECT_NE(header.find("socpinn_b2_mean[4]"), std::string::npos);
  // Four dense layers per branch.
  EXPECT_NE(header.find("socpinn_b1_w0"), std::string::npos);
  EXPECT_NE(header.find("socpinn_b1_w3"), std::string::npos);
  EXPECT_NE(header.find("socpinn_b2_w3"), std::string::npos);
  EXPECT_NE(header.find("socpinn_b1_layers = 4"), std::string::npos);
  // Guard and docs.
  EXPECT_NE(header.find("#pragma once"), std::string::npos);
}

TEST(ModelIo, ExportRequiresTrainedModel) {
  TwoBranchNet net;
  EXPECT_THROW((void)export_c_header(net, "x"), std::runtime_error);
}

}  // namespace
}  // namespace socpinn::core
