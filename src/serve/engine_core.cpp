#include "serve/engine_core.hpp"

#include <cfloat>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "nn/panel_dispatch.hpp"

namespace socpinn::serve {

namespace {

/// Validates the construction arguments, then converts `net` once.
std::shared_ptr<const core::TwoBranchSnapshot> validated_snapshot(
    const core::TwoBranchNet& net, core::Precision precision,
    const char* engine, const char* precision_knob) {
  if (precision == core::Precision::kFloat32) {
    core::require_trained_for_f32(
        net, (std::string(engine) + ": " + precision_knob).c_str());
  }
  // Resolve the panel-kernel ISA now: a bad SOCPINN_FORCE_ISA value throws
  // std::invalid_argument here, on the caller's thread, instead of from
  // the first forward inside a pool worker.
  (void)nn::simd::active_isa();
  return std::make_shared<const core::TwoBranchSnapshot>(net, precision);
}

}  // namespace

bool rows_finite(const double* rows, std::size_t num_rows,
                 std::size_t width) {
  // |x| <= DBL_MAX is false exactly for NaN and +-Inf. This OR-reduction
  // form vectorizes.
  int bad = 0;
  for (std::size_t k = 0; k < num_rows * width; ++k) {
    bad |= static_cast<int>(!(std::fabs(rows[k]) <= DBL_MAX));
  }
  return bad == 0;
}

void require_finite_rows(const double* rows, std::size_t num_rows,
                         const char* who, const char* row_name,
                         std::size_t width) {
  // The row is only located once a batch is known bad.
  if (rows_finite(rows, num_rows, width)) return;
  std::size_t k = 0;
  while (std::isfinite(rows[k])) ++k;
  throw std::invalid_argument(std::string(who) + ": non-finite " + row_name +
                              " " + std::to_string(k / width));
}

EngineCore::EngineCore(const core::TwoBranchNet& net, std::size_t threads,
                       core::Precision precision, bool clamp_soc,
                       const char* engine, const char* precision_knob)
    : engine_(engine),
      precision_knob_(precision_knob),
      precision_(precision),
      clamp_(clamp_soc),
      model_(validated_snapshot(net, precision, engine, precision_knob)),
      pool_(threads),
      workspaces_(pool_.size()) {}

const char* EngineCore::simd_isa() const {
  return nn::simd::isa_name(nn::simd::active_isa());
}

void EngineCore::swap_model(const core::TwoBranchNet& net) {
  swap_model(std::make_shared<const core::TwoBranchSnapshot>(net, precision_));
}

void EngineCore::swap_model(
    std::shared_ptr<const core::TwoBranchSnapshot> snapshot) {
  if (snapshot == nullptr) {
    throw std::invalid_argument(std::string(engine_) +
                                "::swap_model: null snapshot");
  }
  if (snapshot->precision() != precision_) {
    throw std::invalid_argument(
        std::string(engine_) +
        "::swap_model: snapshot precision does not match " + precision_knob_);
  }
  model_.store(std::move(snapshot));
}

}  // namespace socpinn::serve
