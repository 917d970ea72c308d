// Lindblad master-equation integration.
//
// d rho / dt = -i [H, rho] + sum_k rate_k ( L_k rho L_k^dag
//                                           - 1/2 {L_k^dag L_k, rho} ).
//
// The density matrix is dense and integrated with classic RK4; H, every
// L_k, L_k^dag and L_k^dag L_k are stored row-compressed, so each operator
// product of the right-hand side costs O(nnz n) instead of O(n^3). Results
// are bitwise identical to the same expressions written with dense Matrix
// products (see docs/ARCHITECTURE.md "Dynamics layer"). Intended for
// registers up to a few hundred dimensions (the coupled-oscillator
// reservoir, cavity-transmon tomography setups).
#ifndef QS_DYNAMICS_LINDBLAD_H
#define QS_DYNAMICS_LINDBLAD_H

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "dynamics/hamiltonian.h"
#include "linalg/matrix.h"
#include "qudit/density_matrix.h"
#include "qudit/space.h"

namespace qs {

/// Open quantum system: Hamiltonian + collapse operators with rates.
/// Immutable after setup: the integrators are const and own their scratch
/// for the length of each call, so one system may be shared across threads.
class LindbladSystem {
 public:
  explicit LindbladSystem(QuditSpace space);

  const QuditSpace& space() const { return space_; }

  /// Sets the Hamiltonian from k-local terms.
  void set_hamiltonian(const Hamiltonian& h);

  /// Sets a dense full-space Hamiltonian directly.
  void set_hamiltonian_dense(const Matrix& h);

  /// Adds collapse operator `op` on `sites` with the given rate (1/s).
  void add_collapse(const Matrix& op, const std::vector<int>& sites,
                    double rate);

  /// Right-hand side of the master equation for the current system
  /// (`rho` need not be Hermitian).
  Matrix rhs(const Matrix& rho) const;

  /// Evolves `rho` in place for duration `t` using `steps` RK4 steps.
  void evolve(Matrix& rho, double t, int steps) const;

  /// Evolves and records observable expectation values Tr(rho O_i) at the
  /// end of each of `samples` equal sub-intervals of `t`.
  /// Returns [samples x observables].
  std::vector<std::vector<double>> evolve_recording(
      Matrix& rho, double t, int steps_per_sample, int samples,
      const std::vector<Matrix>& observables) const;

 private:
  /// Row-compressed operator: the nonzeros of row i are (col[p], val[p])
  /// for p in [row_start[i], row_start[i + 1]), columns ascending.
  struct SparseOp {
    static SparseOp from_dense(const Matrix& m);
    /// out = S * rho (out is overwritten).
    void left_multiply(const Matrix& rho, Matrix& out) const;
    /// out = rho * S (out is overwritten).
    void right_multiply(const Matrix& rho, Matrix& out) const;

    std::vector<std::size_t> row_start;
    std::vector<std::size_t> col;
    std::vector<cplx> val;
  };

  /// One collapse channel, L scaled by sqrt(rate).
  struct Collapse {
    SparseOp l;
    SparseOp l_adj;
    SparseOp ldl;  // L^dag L
  };

  /// Product buffers of one rhs evaluation, owned by the calling integrator.
  struct Workspace {
    explicit Workspace(std::size_t n);
    Matrix p1, p2, p3;
  };

  /// rhs(rho) written into `out` (distinct from `rho` and `ws`).
  void rhs_into(const Matrix& rho, Workspace& ws, Matrix& out) const;

  QuditSpace space_;
  SparseOp h_;
  std::vector<Collapse> collapse_;
};

}  // namespace qs

#endif  // QS_DYNAMICS_LINDBLAD_H
