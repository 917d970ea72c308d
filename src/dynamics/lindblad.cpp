#include "dynamics/lindblad.h"

#include <algorithm>
#include <cmath>

#include "common/require.h"
#include "linalg/types.h"

// Every product below adds, to each output element, the same nonzero terms
// in the same (k-ascending) order as the dense i-k-j loop of
// `operator*(Matrix, Matrix)`; the only terms left out are exact-zero
// products, and an accumulator that starts at +0 never becomes -0, so
// leaving them out changes no bit. The element-wise combinations keep the
// operation order of the dense expressions they replace, written as
// comments above each loop.

namespace qs {

namespace {

void set_zero(Matrix& m) {
  std::fill(m.data(), m.data() + m.rows() * m.cols(), cplx{0.0, 0.0});
}

}  // namespace

LindbladSystem::SparseOp LindbladSystem::SparseOp::from_dense(
    const Matrix& m) {
  SparseOp s;
  s.row_start.reserve(m.rows() + 1);
  s.row_start.push_back(0);
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t k = 0; k < m.cols(); ++k) {
      if (m(i, k) == cplx{0.0, 0.0}) continue;
      s.col.push_back(k);
      s.val.push_back(m(i, k));
    }
    s.row_start.push_back(s.col.size());
  }
  return s;
}

void LindbladSystem::SparseOp::left_multiply(const Matrix& rho,
                                             Matrix& out) const {
  set_zero(out);
  const std::size_t n = rho.cols();
  for (std::size_t i = 0; i + 1 < row_start.size(); ++i) {
    cplx* orow = out.data() + i * n;
    for (std::size_t p = row_start[i]; p < row_start[i + 1]; ++p) {
      const cplx sik = val[p];
      const cplx* rrow = rho.data() + col[p] * n;
      for (std::size_t j = 0; j < n; ++j) orow[j] += sik * rrow[j];
    }
  }
}

void LindbladSystem::SparseOp::right_multiply(const Matrix& rho,
                                              Matrix& out) const {
  set_zero(out);
  const std::size_t n = rho.cols();
  for (std::size_t i = 0; i < rho.rows(); ++i) {
    const cplx* rrow = rho.data() + i * n;
    cplx* orow = out.data() + i * n;
    for (std::size_t k = 0; k < n; ++k) {
      const cplx rik = rrow[k];
      if (rik == cplx{0.0, 0.0}) continue;
      for (std::size_t p = row_start[k]; p < row_start[k + 1]; ++p)
        orow[col[p]] += rik * val[p];
    }
  }
}

LindbladSystem::Workspace::Workspace(std::size_t n)
    : p1(n, n), p2(n, n), p3(n, n) {}

LindbladSystem::LindbladSystem(QuditSpace space) : space_(std::move(space)) {
  h_.row_start.assign(space_.dimension() + 1, 0);
}

void LindbladSystem::set_hamiltonian(const Hamiltonian& h) {
  require(h.space() == space_, "LindbladSystem: Hamiltonian space mismatch");
  h_ = SparseOp::from_dense(h.dense(space_.dimension()));
}

void LindbladSystem::set_hamiltonian_dense(const Matrix& h) {
  require(h.rows() == space_.dimension() && h.is_square(),
          "LindbladSystem: dense Hamiltonian dimension mismatch");
  require(h.is_hermitian(1e-8), "LindbladSystem: Hamiltonian not Hermitian");
  h_ = SparseOp::from_dense(h);
}

void LindbladSystem::add_collapse(const Matrix& op,
                                  const std::vector<int>& sites,
                                  double rate) {
  require(rate >= 0.0, "LindbladSystem: negative rate");
  Matrix full = embed(op, sites, space_);
  full *= cplx{std::sqrt(rate), 0.0};
  const Matrix adj = full.adjoint();
  collapse_.push_back({SparseOp::from_dense(full), SparseOp::from_dense(adj),
                       SparseOp::from_dense(adj * full)});
}

void LindbladSystem::rhs_into(const Matrix& rho, Workspace& ws,
                              Matrix& out) const {
  const std::size_t size = rho.rows() * rho.cols();
  cplx* o = out.data();
  const cplx* p1 = ws.p1.data();
  const cplx* p2 = ws.p2.data();
  const cplx* p3 = ws.p3.data();
  // out = (H rho - rho H) * (-i)
  h_.left_multiply(rho, out);
  h_.right_multiply(rho, ws.p1);
  for (std::size_t e = 0; e < size; ++e) {
    cplx v = o[e];
    v -= p1[e];
    v *= cplx{0.0, -1.0};
    o[e] = v;
  }
  for (const Collapse& c : collapse_) {
    // out += (L rho) L^dag;  out -= (LdL rho + rho LdL) * 0.5
    c.l.left_multiply(rho, ws.p1);
    c.l_adj.right_multiply(ws.p1, ws.p2);
    c.ldl.left_multiply(rho, ws.p3);
    c.ldl.right_multiply(rho, ws.p1);
    for (std::size_t e = 0; e < size; ++e) {
      o[e] += p2[e];
      cplx anti = p3[e];
      anti += p1[e];
      anti *= cplx{0.5, 0.0};
      o[e] -= anti;
    }
  }
}

Matrix LindbladSystem::rhs(const Matrix& rho) const {
  const std::size_t n = space_.dimension();
  require(rho.rows() == n && rho.cols() == n, "rhs: rho dimension mismatch");
  Workspace ws(n);
  Matrix out(n, n);
  rhs_into(rho, ws, out);
  return out;
}

void LindbladSystem::evolve(Matrix& rho, double t, int steps) const {
  require(steps >= 1, "LindbladSystem::evolve: steps >= 1 required");
  const std::size_t n = space_.dimension();
  require(rho.rows() == n && rho.cols() == n,
          "evolve: rho dimension mismatch");
  const double dt = t / steps;
  const cplx half_dt{dt / 2.0, 0.0};
  const cplx full_dt{dt, 0.0};
  const cplx two{2.0, 0.0};
  const cplx sixth_dt{dt / 6.0, 0.0};
  // The RK4 increment k1 + 2 k2 + 2 k3 + k4 is summed left to right into
  // `acc` as each stage lands, so only the current stage is kept.
  Workspace ws(n);
  Matrix acc(n, n), k(n, n), tmp(n, n);
  const std::size_t size = n * n;
  cplx* r = rho.data();
  cplx* a = acc.data();
  const cplx* kk = k.data();
  cplx* y = tmp.data();
  for (int s = 0; s < steps; ++s) {
    // acc = k1;  tmp = rho + k1 * dt/2
    rhs_into(rho, ws, acc);
    for (std::size_t e = 0; e < size; ++e) y[e] = r[e] + a[e] * half_dt;
    // acc += k2 * 2;  tmp = rho + k2 * dt/2
    rhs_into(tmp, ws, k);
    for (std::size_t e = 0; e < size; ++e) {
      a[e] += kk[e] * two;
      y[e] = r[e] + kk[e] * half_dt;
    }
    // acc += k3 * 2;  tmp = rho + k3 * dt
    rhs_into(tmp, ws, k);
    for (std::size_t e = 0; e < size; ++e) {
      a[e] += kk[e] * two;
      y[e] = r[e] + kk[e] * full_dt;
    }
    // rho += (acc + k4) * dt/6
    rhs_into(tmp, ws, k);
    for (std::size_t e = 0; e < size; ++e) {
      cplx incr = a[e];
      incr += kk[e];
      incr *= sixth_dt;
      r[e] += incr;
    }
  }
}

std::vector<std::vector<double>> LindbladSystem::evolve_recording(
    Matrix& rho, double t, int steps_per_sample, int samples,
    const std::vector<Matrix>& observables) const {
  require(samples >= 1, "evolve_recording: samples >= 1 required");
  const std::size_t n = space_.dimension();
  for (const Matrix& obs : observables)
    require(obs.rows() == n && obs.cols() == n,
            "evolve_recording: observable dimension mismatch");
  std::vector<std::vector<double>> records;
  records.reserve(static_cast<std::size_t>(samples));
  const double t_sample = t / samples;
  for (int s = 0; s < samples; ++s) {
    evolve(rho, t_sample, steps_per_sample);
    std::vector<double> row;
    row.reserve(observables.size());
    for (const Matrix& obs : observables) {
      // Tr(rho O) = sum_i sum_k rho(i,k) O(k,i): the diagonal of the dense
      // product rho * O, summed in trace order.
      cplx tr{0.0, 0.0};
      for (std::size_t i = 0; i < n; ++i) {
        cplx diag{0.0, 0.0};
        for (std::size_t k = 0; k < n; ++k) {
          const cplx rik = rho(i, k);
          if (rik == cplx{0.0, 0.0}) continue;
          diag += rik * obs(k, i);
        }
        tr += diag;
      }
      row.push_back(tr.real());
    }
    records.push_back(std::move(row));
  }
  return records;
}

}  // namespace qs
