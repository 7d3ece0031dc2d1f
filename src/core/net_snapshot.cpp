#include "core/net_snapshot.hpp"

namespace socpinn::core {

template class TwoBranchSnapshotT<float>;
template class TwoBranchSnapshotT<double>;

namespace {

std::variant<TwoBranchSnapshotT<double>, TwoBranchSnapshotT<float>> convert(
    const TwoBranchNet& net, Precision precision) {
  if (precision == Precision::kFloat32) {
    require_trained_for_f32(net, "TwoBranchSnapshot: precision");
    return TwoBranchSnapshotT<float>(net);
  }
  return TwoBranchSnapshotT<double>(net);
}

}  // namespace

TwoBranchSnapshot::TwoBranchSnapshot(const TwoBranchNet& net,
                                     Precision precision)
    : forward_(convert(net, precision)) {}

}  // namespace socpinn::core
