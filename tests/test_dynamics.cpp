#include <gtest/gtest.h>

#include <cmath>

#include "circuit/executor.h"
#include "common/rng.h"
#include "dynamics/hamiltonian.h"
#include "dynamics/lindblad.h"
#include "dynamics/trotter.h"
#include "gates/bosonic.h"
#include "gates/qudit_gates.h"
#include "gates/two_qudit.h"
#include "linalg/eigen.h"
#include "linalg/expm.h"
#include "linalg/metrics.h"

namespace qs {
namespace {

/// Transverse-field Ising chain on qubits: H = -J sum Z Z - h sum X.
Hamiltonian tfim(int n, double j, double h) {
  Hamiltonian ham(QuditSpace::uniform(static_cast<std::size_t>(n), 2));
  const Matrix z = weyl_z(2);
  const Matrix x{{0.0, 1.0}, {1.0, 0.0}};
  for (int i = 0; i + 1 < n; ++i)
    ham.add("ZZ", two_site(z, z) * cplx{-j, 0.0}, {i, i + 1});
  for (int i = 0; i < n; ++i) ham.add("X", x * cplx{-h, 0.0}, {i});
  return ham;
}

TEST(Hamiltonian, DenseMatchesApply) {
  Rng rng(61);
  const Hamiltonian h = tfim(3, 1.0, 0.7);
  const Matrix dense = h.dense();
  const std::vector<cplx> v =
      random_state(static_cast<int>(h.space().dimension()), rng);
  const std::vector<cplx> via_dense = dense * v;
  const std::vector<cplx> via_apply = h.apply(v);
  for (std::size_t i = 0; i < v.size(); ++i)
    EXPECT_NEAR(std::abs(via_dense[i] - via_apply[i]), 0.0, 1e-10);
}

TEST(Hamiltonian, EmbedPlacesOperatorCorrectly) {
  const QuditSpace space({2, 3});
  const Matrix x = weyl_x(2);
  const Matrix full = embed(x, {0}, space);
  // Should equal X (x) I3 arranged with site 0 least significant.
  const Matrix expect = kron(Matrix::identity(3), x);
  EXPECT_LT(max_abs_diff(full, expect), 1e-12);
}

TEST(Hamiltonian, RejectsNonHermitianTerm) {
  Hamiltonian h(QuditSpace({3}));
  EXPECT_THROW(h.add("a", annihilation(3), {0}), std::invalid_argument);
}

TEST(Hamiltonian, ExpectationOnBasisState) {
  const Hamiltonian h = tfim(2, 1.0, 0.0);
  StateVector psi(h.space());  // |00>: Z|0> = +|0>, so E = -J.
  EXPECT_NEAR(h.expectation(psi), -1.0, 1e-12);
}

TEST(Hamiltonian, LanczosGroundStateMatchesDense) {
  Rng rng(62);
  const Hamiltonian h = tfim(4, 1.0, 0.5);
  const EigResult er = eigh(h.dense());
  const auto low = h.lowest_eigenvalues(2, rng);
  EXPECT_NEAR(low[0], er.values[0], 1e-7);
  EXPECT_NEAR(low[1], er.values[1], 1e-7);
}

TEST(Trotter, FirstOrderConvergesLinearly) {
  const Hamiltonian h = tfim(2, 1.0, 0.6);
  const double t = 1.0;
  const Matrix exact = exact_evolution(h, t);
  double prev_err = 1e9;
  for (int steps : {4, 8, 16}) {
    TrotterOptions opt;
    opt.order = 1;
    opt.dt = t / steps;
    opt.steps = steps;
    const Matrix u = circuit_unitary(trotter_circuit(h, opt));
    const double err = 1.0 - unitary_fidelity(u, exact);
    EXPECT_LT(err, prev_err);
    prev_err = err;
  }
  EXPECT_LT(prev_err, 2e-3);
}

TEST(Trotter, SecondOrderBeatsFirstOrder) {
  const Hamiltonian h = tfim(2, 1.0, 0.6);
  const double t = 1.0;
  const Matrix exact = exact_evolution(h, t);
  TrotterOptions o1{1, t / 8, 8};
  TrotterOptions o2{2, t / 8, 8};
  const double e1 =
      1.0 - unitary_fidelity(circuit_unitary(trotter_circuit(h, o1)), exact);
  const double e2 =
      1.0 - unitary_fidelity(circuit_unitary(trotter_circuit(h, o2)), exact);
  EXPECT_LT(e2, e1);
}

TEST(Trotter, SecondOrderQuadraticScaling) {
  const Hamiltonian h = tfim(2, 1.0, 0.6);
  const double t = 1.0;
  const Matrix exact = exact_evolution(h, t);
  auto err_for = [&](int steps) {
    TrotterOptions opt{2, t / steps, steps};
    return 1.0 -
           unitary_fidelity(circuit_unitary(trotter_circuit(h, opt)), exact);
  };
  // Infidelity of Strang splitting scales ~ dt^4 (error operator dt^2,
  // fidelity quadratic in it): doubling steps gains ~16x.
  const double e4 = err_for(4);
  const double e8 = err_for(8);
  EXPECT_GT(e4 / e8, 8.0);
}

TEST(Trotter, DiagonalTermsUseDiagonalPath) {
  Hamiltonian h(QuditSpace({3, 3}));
  Matrix nn(9, 9);
  for (int a = 0; a < 3; ++a)
    for (int b = 0; b < 3; ++b) {
      const auto i = static_cast<std::size_t>(a + 3 * b);
      nn(i, i) = a * b;
    }
  h.add("nn", nn, {0, 1});
  const Circuit c = trotter_circuit(h, {1, 0.3, 2});
  for (const auto& op : c.operations()) EXPECT_TRUE(op.diagonal);
}

TEST(Lindblad, PureDecayToVacuum) {
  // Single mode, no Hamiltonian, loss rate kappa: <n>(t) = n0 e^{-kappa t}.
  const int d = 6;
  const QuditSpace space({d});
  LindbladSystem sys(space);
  const double kappa = 2.0;
  sys.add_collapse(annihilation(d), {0}, kappa);
  StateVector psi(space, std::vector<int>{3});
  DensityMatrix rho0(psi);
  Matrix rho = rho0.matrix();
  const double t = 0.5;
  sys.evolve(rho, t, 500);
  double nbar = 0.0;
  for (int k = 0; k < d; ++k)
    nbar += k * rho(static_cast<std::size_t>(k),
                    static_cast<std::size_t>(k)).real();
  EXPECT_NEAR(nbar, 3.0 * std::exp(-kappa * t), 1e-5);
}

TEST(Lindblad, TracePreserved) {
  const int d = 5;
  const QuditSpace space({d});
  LindbladSystem sys(space);
  sys.set_hamiltonian_dense(number_operator(d));
  sys.add_collapse(annihilation(d), {0}, 1.0);
  Matrix rho(static_cast<std::size_t>(d), static_cast<std::size_t>(d));
  // Start from coherent-state projector.
  const auto coh = coherent_state(d, cplx{1.0, 0.0});
  for (int r = 0; r < d; ++r)
    for (int c = 0; c < d; ++c)
      rho(static_cast<std::size_t>(r), static_cast<std::size_t>(c)) =
          coh[static_cast<std::size_t>(r)] *
          std::conj(coh[static_cast<std::size_t>(c)]);
  sys.evolve(rho, 1.0, 400);
  EXPECT_NEAR(rho.trace().real(), 1.0, 1e-8);
  // Hermiticity preserved.
  EXPECT_TRUE(rho.is_hermitian(1e-8));
}

TEST(Lindblad, ClosedSystemMatchesUnitary) {
  // No collapse operators: RK4 must track exp(-iHt).
  const int d = 4;
  const QuditSpace space({d});
  LindbladSystem sys(space);
  const Matrix h = shift_mixer_hamiltonian(d);
  sys.set_hamiltonian_dense(h);
  StateVector psi0(space, std::vector<int>{0});
  Matrix rho = DensityMatrix(psi0).matrix();
  const double t = 0.8;
  sys.evolve(rho, t, 400);
  const Matrix u = evolution_unitary(h, t);
  std::vector<cplx> evolved(static_cast<std::size_t>(d), cplx{0.0, 0.0});
  evolved[0] = 1.0;
  evolved = u * evolved;
  EXPECT_NEAR(density_pure_fidelity(rho, evolved), 1.0, 1e-7);
}

TEST(Lindblad, DampedRabiReachesSteadyState) {
  // Driven-dissipative qubit reaches a steady state with purity < 1.
  const QuditSpace space({2});
  LindbladSystem sys(space);
  Matrix drive(2, 2);
  drive(0, 1) = drive(1, 0) = 1.0;  // sigma_x drive
  sys.set_hamiltonian_dense(drive);
  sys.add_collapse(annihilation(2), {0}, 2.0);
  StateVector psi(space);
  Matrix rho = DensityMatrix(psi).matrix();
  sys.evolve(rho, 20.0, 4000);
  Matrix rho2 = rho;
  sys.evolve(rho2, 1.0, 200);
  EXPECT_LT(max_abs_diff(rho, rho2), 1e-5);  // stationary
  const double purity = (rho * rho).trace().real();
  EXPECT_LT(purity, 1.0);
  EXPECT_GT(purity, 0.4);
}

TEST(Lindblad, EvolveRecordingShapes) {
  const int d = 4;
  const QuditSpace space({d});
  LindbladSystem sys(space);
  sys.add_collapse(annihilation(d), {0}, 1.0);
  StateVector psi(space, std::vector<int>{2});
  Matrix rho = DensityMatrix(psi).matrix();
  const auto rec =
      sys.evolve_recording(rho, 1.0, 50, 4, {number_operator(d)});
  ASSERT_EQ(rec.size(), 4u);
  ASSERT_EQ(rec[0].size(), 1u);
  // Photon number decreases monotonically under pure loss.
  EXPECT_GT(rec[0][0], rec[1][0]);
  EXPECT_GT(rec[1][0], rec[2][0]);
  EXPECT_GT(rec[2][0], rec[3][0]);
}

// ---------------------------------------------------------------------------
// Path-vs-path oracle: LindbladSystem against the master equation and RK4
// written with dense Matrix products. The sparse operator products must
// reproduce them bit for bit (docs/ARCHITECTURE.md "Dynamics layer"). All
// inputs are closed-form, so no RNG change can move these tests.

/// Dense reference integrator: the same expressions, term for term.
struct DenseLindblad {
  Matrix h;
  std::vector<Matrix> l;    // scaled by sqrt(rate)
  std::vector<Matrix> ldl;  // L^dag L

  Matrix rhs(const Matrix& rho) const {
    Matrix out = h * rho - rho * h;
    out *= cplx{0.0, -1.0};
    for (std::size_t k = 0; k < l.size(); ++k) {
      out += l[k] * rho * l[k].adjoint();
      Matrix anti = ldl[k] * rho + rho * ldl[k];
      anti *= cplx{0.5, 0.0};
      out -= anti;
    }
    return out;
  }

  void evolve(Matrix& rho, double t, int steps) const {
    const double dt = t / steps;
    for (int s = 0; s < steps; ++s) {
      const Matrix k1 = rhs(rho);
      Matrix tmp = rho;
      tmp += k1 * cplx{dt / 2.0, 0.0};
      const Matrix k2 = rhs(tmp);
      tmp = rho;
      tmp += k2 * cplx{dt / 2.0, 0.0};
      const Matrix k3 = rhs(tmp);
      tmp = rho;
      tmp += k3 * cplx{dt, 0.0};
      const Matrix k4 = rhs(tmp);
      Matrix incr = k1;
      incr += k2 * cplx{2.0, 0.0};
      incr += k3 * cplx{2.0, 0.0};
      incr += k4;
      incr *= cplx{dt / 6.0, 0.0};
      rho += incr;
    }
  }
};

/// A LindbladSystem and its dense reference, built from the same terms.
struct OraclePair {
  explicit OraclePair(const QuditSpace& space)
      : sys(space),
        ref{Matrix::zero(space.dimension(), space.dimension()), {}, {}} {}

  void set_hamiltonian(const Hamiltonian& h) {
    sys.set_hamiltonian(h);
    ref.h = h.dense(sys.space().dimension());
  }

  void set_hamiltonian_dense(const Matrix& h) {
    sys.set_hamiltonian_dense(h);
    ref.h = h;
  }

  void add_collapse(const Matrix& op, const std::vector<int>& sites,
                    double rate) {
    sys.add_collapse(op, sites, rate);
    Matrix full = embed(op, sites, sys.space());
    full *= cplx{std::sqrt(rate), 0.0};
    ref.ldl.push_back(full.adjoint() * full);
    ref.l.push_back(std::move(full));
  }

  LindbladSystem sys;
  DenseLindblad ref;
};

/// Closed-form n x n matrix with exact zeros (one of them -0) scattered
/// through it, so the zero-skipping paths are exercised.
Matrix pattern_matrix(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c)
      if ((r + 2 * c) % 5 != 0)
        m(r, c) = cplx{std::cos(0.37 * r + 0.11 * c + 0.2),
                       std::sin(0.23 * r - 0.41 * c)};
  m(0, 1) = cplx{-0.0, 0.0};
  return m;
}

/// Hermitian, positive, unit-trace state M M^dag / Tr(M M^dag).
Matrix pattern_state(std::size_t n) {
  const Matrix m = pattern_matrix(n);
  Matrix rho = m * m.adjoint();
  rho *= cplx{1.0 / rho.trace().real(), 0.0};
  return rho;
}

void expect_identical(const Matrix& got, const Matrix& want) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  for (std::size_t r = 0; r < got.rows(); ++r)
    for (std::size_t c = 0; c < got.cols(); ++c) {
      EXPECT_EQ(got(r, c).real(), want(r, c).real()) << r << "," << c;
      EXPECT_EQ(got(r, c).imag(), want(r, c).imag()) << r << "," << c;
    }
}

/// rhs() and a few RK4 steps of evolve() on a physical state and on a
/// non-Hermitian one, which rhs must not treat as Hermitian.
void expect_matches_reference(const OraclePair& p) {
  const std::size_t n = p.sys.space().dimension();
  for (const Matrix& rho0 : {pattern_state(n), pattern_matrix(n)}) {
    expect_identical(p.sys.rhs(rho0), p.ref.rhs(rho0));
    Matrix got = rho0;
    Matrix want = rho0;
    p.sys.evolve(got, 0.3, 3);
    p.ref.evolve(want, 0.3, 3);
    expect_identical(got, want);
  }
}

/// The two-mode reservoir system of qrc/reservoir.cpp: detunings, Kerr,
/// beamsplitter hop, photon loss on both modes.
OraclePair reservoir_pair(int d) {
  const QuditSpace space = QuditSpace::uniform(2, d);
  OraclePair p(space);
  Hamiltonian h(space);
  for (int m = 0; m < 2; ++m) {
    if (m != 0) h.add("n", number_operator(d) * cplx{0.5 * m, 0.0}, {m});
    Matrix kerr(static_cast<std::size_t>(d), static_cast<std::size_t>(d));
    for (int k = 0; k < d; ++k)
      kerr(static_cast<std::size_t>(k), static_cast<std::size_t>(k)) =
          0.5 * 0.6 * k * (k - 1.0);
    h.add("kerr", kerr, {m});
  }
  const Matrix a = annihilation(d);
  Matrix hop = two_site(a.adjoint(), a);
  hop += hop.adjoint();
  h.add("g", hop, {0, 1});
  p.set_hamiltonian(h);
  for (int m = 0; m < 2; ++m) p.add_collapse(a, {m}, 0.35);
  return p;
}

TEST(LindbladOracle, ReservoirSystemBitwise) {
  expect_matches_reference(reservoir_pair(4));
}

TEST(LindbladOracle, DenseHamiltonianBitwise) {
  const QuditSpace space({3, 3});
  OraclePair p(space);
  const Matrix m = pattern_matrix(space.dimension());
  p.set_hamiltonian_dense(m + m.adjoint());
  p.add_collapse(annihilation(3), {0}, 0.4);
  expect_matches_reference(p);
}

TEST(LindbladOracle, NoHamiltonianBitwise) {
  const QuditSpace space({4, 3});
  OraclePair p(space);
  p.add_collapse(annihilation(4), {0}, 0.7);
  p.add_collapse(annihilation(3), {1}, 0.2);
  expect_matches_reference(p);
}

TEST(LindbladOracle, ZeroRateCollapseBitwise) {
  OraclePair p = reservoir_pair(3);
  p.add_collapse(annihilation(3), {1}, 0.0);
  expect_matches_reference(p);
}

TEST(LindbladOracle, EvolveRecordingBitwise) {
  OraclePair p = reservoir_pair(3);
  const std::size_t n = p.sys.space().dimension();
  const std::vector<Matrix> obs = {embed(number_operator(3), {0}, p.sys.space()),
                                   pattern_matrix(n)};
  Matrix got = pattern_state(n);
  Matrix want = got;
  const auto rec = p.sys.evolve_recording(got, 0.4, 2, 2, obs);
  ASSERT_EQ(rec.size(), 2u);
  for (const auto& row : rec) {
    p.ref.evolve(want, 0.2, 2);
    ASSERT_EQ(row.size(), obs.size());
    for (std::size_t i = 0; i < obs.size(); ++i)
      EXPECT_EQ(row[i], (want * obs[i]).trace().real());
  }
  expect_identical(got, want);
}

}  // namespace
}  // namespace qs
