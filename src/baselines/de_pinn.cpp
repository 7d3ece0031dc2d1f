#include "baselines/de_pinn.hpp"

#include <stdexcept>

#include "nn/loss.hpp"
#include "nn/metrics.hpp"
#include "nn/optimizer.hpp"

namespace socpinn::baselines {

namespace {

nn::Mlp make_net(const DePinnConfig& config) {
  std::vector<std::size_t> dims;
  dims.push_back(3);
  dims.insert(dims.end(), config.hidden.begin(), config.hidden.end());
  dims.push_back(1);
  util::Rng rng(config.seed);
  return nn::Mlp::make(dims, rng);
}

/// Training sample: two consecutive measurements plus the physics target
/// for their SoC increment.
struct PairSample {
  double x_t[3];
  double x_t1[3];
  double soc_t = 0.0;
  double delta_phys = 0.0;  ///< Coulomb-predicted SoC(t+dt) - SoC(t)
};

std::vector<PairSample> collect_pairs(std::span<const data::Trace> traces,
                                      const DePinnConfig& config) {
  std::vector<PairSample> pairs;
  for (const data::Trace& trace : traces) {
    if (trace.size() < 2) continue;
    for (std::size_t t = 0; t + 1 < trace.size(); t += config.train_stride) {
      PairSample s;
      s.x_t[0] = trace[t].voltage;
      s.x_t[1] = trace[t].current;
      s.x_t[2] = trace[t].temp_c;
      s.x_t1[0] = trace[t + 1].voltage;
      s.x_t1[1] = trace[t + 1].current;
      s.x_t1[2] = trace[t + 1].temp_c;
      s.soc_t = trace[t].soc;
      const double dt = trace[t + 1].time_s - trace[t].time_s;
      const double i_avg = 0.5 * (trace[t].current + trace[t + 1].current);
      s.delta_phys = i_avg * dt / (3600.0 * config.capacity_ah);
      pairs.push_back(s);
    }
  }
  return pairs;
}

}  // namespace

DeMlpEstimator::DeMlpEstimator(DePinnConfig config)
    : config_(std::move(config)), net_(make_net(config_)) {
  if (config_.capacity_ah <= 0.0) {
    throw std::invalid_argument("DeMlpEstimator: capacity <= 0");
  }
}

std::vector<double> DeMlpEstimator::fit(std::span<const data::Trace> traces) {
  const std::vector<PairSample> pairs = collect_pairs(traces, config_);
  const std::size_t n = pairs.size();
  if (n == 0) throw std::invalid_argument("DeMlpEstimator::fit: no data");

  // Fit the scaler on both endpoints of every pair.
  nn::Matrix all(2 * n, 3);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < 3; ++c) {
      all(2 * i, c) = pairs[i].x_t[c];
      all(2 * i + 1, c) = pairs[i].x_t1[c];
    }
  }
  scaler_.fit(all);

  util::Rng rng(config_.seed + 31);
  nn::Adam optimizer(config_.lr);
  optimizer.attach(net_.params(), net_.grads());
  const nn::MaeLoss loss;

  std::vector<double> history;
  for (std::size_t epoch = 0; epoch < config_.epochs; ++epoch) {
    std::vector<std::size_t> order = rng.permutation(n);
    double epoch_loss = 0.0;
    std::size_t batches = 0;
    for (std::size_t start = 0; start < n; start += config_.batch_size) {
      const std::size_t count = std::min(config_.batch_size, n - start);
      nn::Matrix x_t(count, 3), x_t1(count, 3);
      nn::Matrix y_t(count, 1), delta_phys(count, 1);
      for (std::size_t b = 0; b < count; ++b) {
        const PairSample& s = pairs[order[start + b]];
        double row_t[3] = {s.x_t[0], s.x_t[1], s.x_t[2]};
        double row_t1[3] = {s.x_t1[0], s.x_t1[1], s.x_t1[2]};
        scaler_.transform_row(row_t);
        scaler_.transform_row(row_t1);
        for (std::size_t c = 0; c < 3; ++c) {
          x_t(b, c) = row_t[c];
          x_t1(b, c) = row_t1[c];
        }
        y_t(b, 0) = s.soc_t;
        delta_phys(b, 0) = s.delta_phys;
      }

      net_.zero_grad();
      // Pass 1: predictions at both endpoints (t first, no backward yet).
      const nn::Matrix pred_t_detached = net_.forward(x_t, /*train=*/false);
      // Pass 2: t+dt endpoint; physics residual backward through it.
      const nn::Matrix pred_t1 = net_.forward(x_t1, /*train=*/true);
      const nn::Matrix delta_pred = pred_t1 - pred_t_detached;
      const double physics_term = loss.value(delta_pred, delta_phys);
      const nn::Matrix g_phys =
          loss.grad(delta_pred, delta_phys) * config_.physics_weight;
      net_.backward(g_phys);  // d residual / d pred_t1 = +1
      // Pass 3: t endpoint; data loss plus the -1 path of the residual.
      const nn::Matrix pred_t = net_.forward(x_t, /*train=*/true);
      const double data_term = loss.value(pred_t, y_t);
      nn::Matrix g_t = loss.grad(pred_t, y_t);
      g_t -= g_phys;  // d residual / d pred_t = -1
      net_.backward(g_t);

      if (config_.grad_clip > 0.0) {
        nn::clip_grad_norm(net_.grads(), config_.grad_clip);
      }
      optimizer.step();
      epoch_loss += data_term + config_.physics_weight * physics_term;
      ++batches;
    }
    history.push_back(epoch_loss / static_cast<double>(batches));
  }
  return history;
}

std::vector<double> DeMlpEstimator::predict(const data::Trace& trace,
                                            std::size_t stride) {
  if (!scaler_.fitted()) {
    throw std::logic_error("DeMlpEstimator::predict before fit");
  }
  if (stride == 0) throw std::invalid_argument("predict: stride 0");
  const std::size_t n = (trace.size() + stride - 1) / stride;
  std::vector<double> out;
  out.reserve(n);
  if (n == 0) return out;

  // One batched forward over every stride-th sample, staged feature-major
  // (one row per feature) instead of a per-sample loop.
  nn::Matrix raw(3, n);
  std::size_t j = 0;
  for (std::size_t t = 0; t < trace.size(); t += stride, ++j) {
    raw(0, j) = trace[t].voltage;
    raw(1, j) = trace[t].current;
    raw(2, j) = trace[t].temp_c;
  }
  nn::ForwardWorkspace ws;
  nn::Matrix scaled;
  scaler_.transform_columns_into(raw, scaled);
  const nn::Matrix& pred = net_.infer_columns(scaled, ws);
  for (std::size_t i = 0; i < n; ++i) out.push_back(pred(0, i));
  return out;
}

double DeMlpEstimator::evaluate_mae(std::span<const data::Trace> traces,
                                    std::size_t stride) {
  std::vector<double> pred, truth;
  for (const data::Trace& trace : traces) {
    const std::vector<double> p = predict(trace, stride);
    pred.insert(pred.end(), p.begin(), p.end());
    for (std::size_t t = 0; t < trace.size(); t += stride) {
      truth.push_back(trace[t].soc);
    }
  }
  return nn::mae(pred, truth);
}

nn::ModelCost DeMlpEstimator::cost() { return nn::mlp_cost(net_); }

}  // namespace socpinn::baselines
