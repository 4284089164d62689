#include "nn/tensor.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "nn/gemm_avx2.h"
#include "util/rng.h"
#include "util/simd.h"

namespace sim2rec {
namespace nn {

Tensor::Tensor(int rows, int cols, double fill)
    : rows_(rows), cols_(cols),
      data_(static_cast<size_t>(rows) * cols, fill) {
  S2R_CHECK(rows >= 0 && cols >= 0);
}

Tensor::Tensor(int rows, int cols, std::vector<double> data)
    : rows_(rows), cols_(cols), data_(std::move(data)) {
  S2R_CHECK(static_cast<size_t>(rows) * cols == data_.size());
}

Tensor Tensor::Identity(int n) {
  Tensor out(n, n, 0.0);
  for (int i = 0; i < n; ++i) out(i, i) = 1.0;
  return out;
}

Tensor Tensor::RowVector(const std::vector<double>& values) {
  return Tensor(1, static_cast<int>(values.size()), values);
}

Tensor Tensor::ColVector(const std::vector<double>& values) {
  return Tensor(static_cast<int>(values.size()), 1, values);
}

Tensor Tensor::Randn(int rows, int cols, Rng& rng, double mean,
                     double stddev) {
  Tensor out(rows, cols);
  for (int i = 0; i < out.size(); ++i) out[i] = rng.Normal(mean, stddev);
  return out;
}

Tensor Tensor::Rand(int rows, int cols, Rng& rng, double lo, double hi) {
  Tensor out(rows, cols);
  for (int i = 0; i < out.size(); ++i) out[i] = rng.Uniform(lo, hi);
  return out;
}

Tensor Tensor::Row(int r) const {
  S2R_CHECK(r >= 0 && r < rows_);
  Tensor out(1, cols_);
  std::copy(data_.begin() + static_cast<size_t>(r) * cols_,
            data_.begin() + static_cast<size_t>(r + 1) * cols_,
            out.data());
  return out;
}

Tensor Tensor::Col(int c) const {
  S2R_CHECK(c >= 0 && c < cols_);
  Tensor out(rows_, 1);
  for (int r = 0; r < rows_; ++r) out(r, 0) = (*this)(r, c);
  return out;
}

void Tensor::SetRow(int r, const Tensor& row) {
  S2R_CHECK(r >= 0 && r < rows_);
  S2R_CHECK(row.rows() == 1 && row.cols() == cols_);
  std::copy(row.data(), row.data() + cols_,
            data_.begin() + static_cast<size_t>(r) * cols_);
}

std::vector<double> Tensor::RowVecStd(int r) const {
  S2R_CHECK(r >= 0 && r < rows_);
  return std::vector<double>(
      data_.begin() + static_cast<size_t>(r) * cols_,
      data_.begin() + static_cast<size_t>(r + 1) * cols_);
}

Tensor Tensor::SliceCols(int begin, int end) const {
  S2R_CHECK(0 <= begin && begin <= end && end <= cols_);
  Tensor out(rows_, end - begin);
  for (int r = 0; r < rows_; ++r) {
    for (int c = begin; c < end; ++c) out(r, c - begin) = (*this)(r, c);
  }
  return out;
}

Tensor Tensor::SliceRows(int begin, int end) const {
  S2R_CHECK(0 <= begin && begin <= end && end <= rows_);
  Tensor out(end - begin, cols_);
  std::copy(data_.begin() + static_cast<size_t>(begin) * cols_,
            data_.begin() + static_cast<size_t>(end) * cols_, out.data());
  return out;
}

Tensor Tensor::Transposed() const {
  Tensor out(cols_, rows_);
  for (int r = 0; r < rows_; ++r) {
    for (int c = 0; c < cols_; ++c) out(c, r) = (*this)(r, c);
  }
  return out;
}

void Tensor::Apply(const std::function<double(double)>& f) {
  for (double& v : data_) v = f(v);
}

void Tensor::Fill(double v) { std::fill(data_.begin(), data_.end(), v); }

double Tensor::Sum() const {
  double s = 0.0;
  for (double v : data_) s += v;
  return s;
}

double Tensor::MeanAll() const {
  if (data_.empty()) return 0.0;
  return Sum() / static_cast<double>(data_.size());
}

double Tensor::MinAll() const {
  S2R_CHECK(!data_.empty());
  return *std::min_element(data_.begin(), data_.end());
}

double Tensor::MaxAll() const {
  S2R_CHECK(!data_.empty());
  return *std::max_element(data_.begin(), data_.end());
}

double Tensor::Norm() const {
  double s = 0.0;
  for (double v : data_) s += v * v;
  return std::sqrt(s);
}

bool Tensor::HasNonFinite() const {
  for (double v : data_) {
    if (!std::isfinite(v)) return true;
  }
  return false;
}

std::string Tensor::ShapeString() const {
  std::ostringstream os;
  os << '[' << rows_ << " x " << cols_ << ']';
  return os.str();
}

std::string Tensor::ToString(int max_rows, int max_cols) const {
  std::ostringstream os;
  os << ShapeString() << '\n';
  const int rr = std::min(rows_, max_rows);
  const int cc = std::min(cols_, max_cols);
  for (int r = 0; r < rr; ++r) {
    for (int c = 0; c < cc; ++c) {
      os << (*this)(r, c) << (c + 1 < cc ? " " : "");
    }
    if (cc < cols_) os << " ...";
    os << '\n';
  }
  if (rr < rows_) os << "...\n";
  return os.str();
}

Tensor MatMul(const Tensor& a, const Tensor& b) {
  S2R_CHECK(a.cols() == b.rows());
  Tensor out(a.rows(), b.cols(), 0.0);
  const int n = a.rows(), k = a.cols(), m = b.cols();
  const double* ad = a.data();
  const double* bd = b.data();
  double* od = out.data();
#if defined(SIM2REC_HAVE_AVX2)
  if (ActiveSimdLevel() == SimdLevel::kAvx2) {
    GemmAvx2(ad, k, 1, bd, od, n, k, m, /*skip_zero=*/true);
    return out;
  }
#endif
  for (int i = 0; i < n; ++i) {
    for (int p = 0; p < k; ++p) {
      const double av = ad[static_cast<size_t>(i) * k + p];
      if (av == 0.0) continue;
      const double* brow = bd + static_cast<size_t>(p) * m;
      double* orow = od + static_cast<size_t>(i) * m;
      for (int j = 0; j < m; ++j) orow[j] += av * brow[j];
    }
  }
  return out;
}

Tensor MatMulTransA(const Tensor& a, const Tensor& b) {
  S2R_CHECK(a.rows() == b.rows());
  Tensor out(a.cols(), b.cols(), 0.0);
  const int n = a.rows(), k = a.cols(), m = b.cols();
  const double* ad = a.data();
  const double* bd = b.data();
  double* od = out.data();
#if defined(SIM2REC_HAVE_AVX2)
  if (ActiveSimdLevel() == SimdLevel::kAvx2) {
    // Output row p reads column p of a.
    GemmAvx2(ad, 1, k, bd, od, k, n, m, /*skip_zero=*/true);
    return out;
  }
#endif
  for (int i = 0; i < n; ++i) {
    const double* arow = ad + static_cast<size_t>(i) * k;
    const double* brow = bd + static_cast<size_t>(i) * m;
    for (int p = 0; p < k; ++p) {
      const double av = arow[p];
      if (av == 0.0) continue;
      double* orow = od + static_cast<size_t>(p) * m;
      for (int j = 0; j < m; ++j) orow[j] += av * brow[j];
    }
  }
  return out;
}

Tensor MatMulTransB(const Tensor& a, const Tensor& b) {
  S2R_CHECK(a.cols() == b.cols());
  Tensor out(a.rows(), b.rows(), 0.0);
  const int n = a.rows(), k = a.cols(), m = b.rows();
  const double* ad = a.data();
  const double* bd = b.data();
  double* od = out.data();
#if defined(SIM2REC_HAVE_AVX2)
  if (ActiveSimdLevel() == SimdLevel::kAvx2) {
    // Packs b^T (k x m) into a buffer reused per thread, so that the
    // kernel streams rows of it as it does for MatMul.
    thread_local std::vector<double> bt;
    bt.resize(static_cast<size_t>(k) * m);
    for (int j = 0; j < m; ++j) {
      const double* brow = bd + static_cast<size_t>(j) * k;
      for (int p = 0; p < k; ++p) bt[static_cast<size_t>(p) * m + j] = brow[p];
    }
    GemmAvx2(ad, k, 1, bt.data(), od, n, k, m, /*skip_zero=*/false);
    return out;
  }
#endif
  for (int i = 0; i < n; ++i) {
    const double* arow = ad + static_cast<size_t>(i) * k;
    double* orow = od + static_cast<size_t>(i) * m;
    for (int j = 0; j < m; ++j) {
      const double* brow = bd + static_cast<size_t>(j) * k;
      double s = 0.0;
      for (int p = 0; p < k; ++p) s += arow[p] * brow[p];
      orow[j] = s;
    }
  }
  return out;
}

Tensor operator+(const Tensor& a, const Tensor& b) {
  S2R_CHECK(a.SameShape(b));
  Tensor out = a;
  for (int i = 0; i < out.size(); ++i) out[i] += b[i];
  return out;
}

Tensor operator-(const Tensor& a, const Tensor& b) {
  S2R_CHECK(a.SameShape(b));
  Tensor out = a;
  for (int i = 0; i < out.size(); ++i) out[i] -= b[i];
  return out;
}

Tensor operator*(const Tensor& a, const Tensor& b) {
  S2R_CHECK(a.SameShape(b));
  Tensor out = a;
  for (int i = 0; i < out.size(); ++i) out[i] *= b[i];
  return out;
}

Tensor operator*(const Tensor& a, double s) {
  Tensor out = a;
  for (int i = 0; i < out.size(); ++i) out[i] *= s;
  return out;
}

Tensor operator*(double s, const Tensor& a) { return a * s; }

Tensor operator+(const Tensor& a, double s) {
  Tensor out = a;
  for (int i = 0; i < out.size(); ++i) out[i] += s;
  return out;
}

Tensor operator-(const Tensor& a, double s) { return a + (-s); }

void AddScaled(Tensor* a, const Tensor& b, double s) {
  S2R_CHECK(a->SameShape(b));
  for (int i = 0; i < a->size(); ++i) (*a)[i] += s * b[i];
}

Tensor VStack(const std::vector<Tensor>& parts) {
  S2R_CHECK(!parts.empty());
  const int cols = parts[0].cols();
  int rows = 0;
  for (const auto& p : parts) {
    S2R_CHECK(p.cols() == cols);
    rows += p.rows();
  }
  Tensor out(rows, cols);
  int r0 = 0;
  for (const auto& p : parts) {
    std::copy(p.data(), p.data() + p.size(),
              out.data() + static_cast<size_t>(r0) * cols);
    r0 += p.rows();
  }
  return out;
}

Tensor HStack(const std::vector<Tensor>& parts) {
  S2R_CHECK(!parts.empty());
  const int rows = parts[0].rows();
  int cols = 0;
  for (const auto& p : parts) {
    S2R_CHECK(p.rows() == rows);
    cols += p.cols();
  }
  Tensor out(rows, cols);
  for (int r = 0; r < rows; ++r) {
    int c0 = 0;
    for (const auto& p : parts) {
      for (int c = 0; c < p.cols(); ++c) out(r, c0 + c) = p(r, c);
      c0 += p.cols();
    }
  }
  return out;
}

Tensor ColMean(const Tensor& a) {
  S2R_CHECK(a.rows() > 0);
  Tensor out(1, a.cols(), 0.0);
  for (int r = 0; r < a.rows(); ++r) {
    for (int c = 0; c < a.cols(); ++c) out(0, c) += a(r, c);
  }
  for (int c = 0; c < a.cols(); ++c) out(0, c) /= a.rows();
  return out;
}

Tensor ColStd(const Tensor& a) {
  S2R_CHECK(a.rows() > 0);
  const Tensor mean = ColMean(a);
  Tensor out(1, a.cols(), 0.0);
  for (int r = 0; r < a.rows(); ++r) {
    for (int c = 0; c < a.cols(); ++c) {
      const double d = a(r, c) - mean(0, c);
      out(0, c) += d * d;
    }
  }
  for (int c = 0; c < a.cols(); ++c)
    out(0, c) = std::sqrt(out(0, c) / a.rows());
  return out;
}

double MaxAbsDiff(const Tensor& a, const Tensor& b) {
  S2R_CHECK(a.SameShape(b));
  double m = 0.0;
  for (int i = 0; i < a.size(); ++i)
    m = std::max(m, std::abs(a[i] - b[i]));
  return m;
}

bool AllClose(const Tensor& a, const Tensor& b, double tol) {
  if (!a.SameShape(b)) return false;
  return MaxAbsDiff(a, b) <= tol;
}

}  // namespace nn
}  // namespace sim2rec
