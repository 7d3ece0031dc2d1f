#include "nn/serialize.hpp"

#include <cstdint>
#include <fstream>
#include <iomanip>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "nn/activation.hpp"
#include "nn/dense.hpp"

namespace socpinn::nn {

namespace {

constexpr const char* kMlpMagic = "socpinn-mlp";
constexpr int kVersion = 1;

void write_matrix(std::ostream& out, const Matrix& m) {
  out << m.rows() << ' ' << m.cols() << '\n';
  out << std::setprecision(17);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) {
      out << m(r, c) << (c + 1 < m.cols() ? ' ' : '\n');
    }
  }
}

/// Reads n whitespace-separated doubles; throws `truncated` when the stream
/// runs out first. The buffer grows as values arrive and is never sized
/// from a count in the file, so a forged header costs no more memory than
/// the stream actually holds.
std::vector<double> read_values(std::istream& in, std::size_t n,
                                const char* truncated) {
  std::vector<double> values;
  for (std::size_t i = 0; i < n; ++i) {
    double v = 0.0;
    if (!(in >> v)) throw std::runtime_error(truncated);
    values.push_back(v);
  }
  return values;
}

Matrix read_matrix(std::istream& in) {
  std::size_t rows = 0, cols = 0;
  if (!(in >> rows >> cols)) {
    throw std::runtime_error("load_mlp: bad matrix header");
  }
  // A wrapped rows * cols would read a few values into a matrix that
  // claims rows x cols.
  if (rows == 0 || cols == 0 || rows > SIZE_MAX / cols) {
    throw std::runtime_error("load_mlp: bad matrix dimensions " +
                             std::to_string(rows) + " x " +
                             std::to_string(cols));
  }
  return Matrix(rows, cols,
                read_values(in, rows * cols, "load_mlp: truncated matrix data"));
}

}  // namespace

void save_mlp(std::ostream& out, const Mlp& net) {
  out << kMlpMagic << ' ' << kVersion << '\n';
  out << net.num_layers() << '\n';
  for (std::size_t i = 0; i < net.num_layers(); ++i) {
    const Layer& layer = net.layer(i);
    if (const auto* dense = dynamic_cast<const Dense*>(&layer)) {
      out << "dense\n";
      write_matrix(out, dense->weights());
      write_matrix(out, dense->bias());
    } else if (const auto* act = dynamic_cast<const Activation*>(&layer)) {
      out << "activation " << to_string(act->kind()) << '\n';
    } else {
      throw std::runtime_error("save_mlp: unsupported layer " + layer.name());
    }
  }
  if (!out) throw std::runtime_error("save_mlp: stream failure");
}

Mlp load_mlp(std::istream& in) {
  std::string magic;
  int version = 0;
  if (!(in >> magic >> version) || magic != kMlpMagic) {
    throw std::runtime_error("load_mlp: not a socpinn MLP file");
  }
  if (version != kVersion) {
    throw std::runtime_error("load_mlp: unsupported version " +
                             std::to_string(version));
  }
  std::size_t num_layers = 0;
  if (!(in >> num_layers)) throw std::runtime_error("load_mlp: layer count");

  Mlp net;
  util::Rng dummy_rng(0);  // weights are overwritten right after
  for (std::size_t i = 0; i < num_layers; ++i) {
    std::string kind;
    if (!(in >> kind)) throw std::runtime_error("load_mlp: truncated layers");
    if (kind == "dense") {
      Matrix w = read_matrix(in);
      Matrix b = read_matrix(in);
      if (b.rows() != 1 || b.cols() != w.cols()) {
        throw std::runtime_error("load_mlp: inconsistent dense shapes");
      }
      auto dense = std::make_unique<Dense>(w.rows(), w.cols(), dummy_rng);
      dense->weights() = std::move(w);
      dense->bias() = std::move(b);
      net.add(std::move(dense));
    } else if (kind == "activation") {
      std::string act_name;
      if (!(in >> act_name)) throw std::runtime_error("load_mlp: activation");
      net.add(std::make_unique<Activation>(activation_from_string(act_name)));
    } else {
      throw std::runtime_error("load_mlp: unknown layer kind '" + kind + "'");
    }
  }
  return net;
}

void save_scaler(std::ostream& out, const StandardScaler& scaler) {
  if (!scaler.fitted()) throw std::runtime_error("save_scaler: not fitted");
  out << "socpinn-scaler 1\n" << scaler.num_features() << '\n';
  out << std::setprecision(17);
  for (double m : scaler.means()) out << m << ' ';
  out << '\n';
  for (double s : scaler.stds()) out << s << ' ';
  out << '\n';
  if (!out) throw std::runtime_error("save_scaler: stream failure");
}

StandardScaler load_scaler(std::istream& in) {
  std::string magic;
  int version = 0;
  std::size_t n = 0;
  if (!(in >> magic >> version >> n) || magic != "socpinn-scaler" ||
      version != 1) {
    throw std::runtime_error("load_scaler: bad header");
  }
  std::vector<double> means =
      read_values(in, n, "load_scaler: truncated means");
  std::vector<double> stds = read_values(in, n, "load_scaler: truncated stds");
  // A zero feature count or a bad moment is a malformed file like any
  // other: runtime_error, which load_model(path) tags with the path.
  try {
    return StandardScaler::from_moments(std::move(means), std::move(stds));
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error(std::string("load_scaler: ") + e.what());
  }
}

void save_mlp_file(const std::string& path, const Mlp& net) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("save_mlp_file: cannot open " + path);
  save_mlp(out, net);
}

Mlp load_mlp_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load_mlp_file: cannot open " + path);
  return load_mlp(in);
}

}  // namespace socpinn::nn
