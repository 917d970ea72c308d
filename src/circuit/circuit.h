// Circuit intermediate representation.
//
// A Circuit is an ordered list of named k-local operations over a
// QuditSpace. Gates carry their dense matrix (or a diagonal fast path) plus
// an optional duration in seconds, which hardware-aware passes fill in and
// the scheduler/noise model consume.
//
// Rotation-angle operands may be symbolic: a parametric operation carries a
// ParamExpr (an affine slot into a parameter vector) and a ParamGenerator
// that re-materializes its payload from a bound angle. Circuit::bind(params)
// produces the fully-bound circuit; structural_fingerprint() digests the
// circuit ignoring bound values, which is what lets the transpile/plan
// caches and the serve layer's batching share one artifact across a whole
// angle sweep (see docs/ARCHITECTURE.md "Parametric compilation").
#ifndef QS_CIRCUIT_CIRCUIT_H
#define QS_CIRCUIT_CIRCUIT_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "linalg/matrix.h"
#include "qudit/space.h"

namespace qs {

/// A symbolic rotation-angle operand: the bound angle is
/// `scale * params[index] + offset`. index < 0 means "not parametric".
struct ParamExpr {
  int index = -1;
  double scale = 1.0;
  double offset = 0.0;

  bool valid() const { return index >= 0; }

  /// The bound angle under `params`. The arithmetic is fixed here -- one
  /// fused expression everywhere -- so every bind path produces bitwise
  /// the same angle.
  double evaluate(const std::vector<double>& params) const {
    return scale * params[static_cast<std::size_t>(index)] + offset;
  }
};

/// Re-materializes a parametric operation's payload from a bound angle.
/// Exactly one of `dense` / `diagonal` is set (the operation kind).
/// Generators must be pure: the same angle yields bitwise the same
/// payload, which is what makes bound execution bitwise identical to
/// compiling the fully-bound circuit from scratch. `tag` is the
/// generator's identity inside structural fingerprints: two generators
/// with equal tags MUST produce identical payloads for every angle.
struct ParamGenerator {
  std::uint64_t tag = 0;
  std::function<Matrix(double)> dense;
  std::function<std::vector<cplx>(double)> diagonal;
};

/// Generator for a dense rotation family (e.g. exp(-i angle H)).
std::shared_ptr<const ParamGenerator> make_dense_generator(
    std::uint64_t tag, std::function<Matrix(double)> dense);

/// Generator for a diagonal (phase-type) rotation family.
std::shared_ptr<const ParamGenerator> make_diagonal_generator(
    std::uint64_t tag, std::function<std::vector<cplx>(double)> diagonal);

/// One gate application. `diag` is used instead of `matrix` when
/// `diagonal` is set (phase-type gates).
struct Operation {
  std::string name;
  Matrix matrix;            ///< dense operator (empty when diagonal)
  std::vector<cplx> diag;   ///< diagonal entries (when diagonal == true)
  std::vector<int> sites;   ///< target sites; sites[0] least significant
  double duration = 0.0;    ///< seconds; 0 = not yet scheduled
  bool diagonal = false;
  /// Number of elementary (noise-carrying) gates this operation stands
  /// for. A dense multi-qubit gate that would decompose into n two-qubit
  /// gates on hardware carries multiplicity n, and the noise model applies
  /// its per-gate channels n times. Default 1 (native operation).
  int noise_multiplicity = 1;
  /// Parametric operations only: the angle slot and the payload
  /// re-materializer. The stored matrix/diag is the payload at the most
  /// recently bound angle (the placeholder angle expr.offset until the
  /// first bind) -- compiler passes treat parametric payload values as
  /// opaque, so structure never depends on them.
  ParamExpr param;
  std::shared_ptr<const ParamGenerator> generator;

  bool parametric() const { return param.valid(); }

  /// Dimension the operator acts on (product of target site dims).
  std::size_t block_dim() const {
    return diagonal ? diag.size() : matrix.rows();
  }
};

/// Aggregate gate-count statistics.
struct GateStats {
  std::size_t total = 0;
  std::size_t single_site = 0;
  std::size_t two_site = 0;
  std::size_t multi_site = 0;
  std::map<std::string, std::size_t> by_name;
};

/// Ordered gate list over a fixed register.
class Circuit {
 public:
  explicit Circuit(QuditSpace space) : space_(std::move(space)) {}

  const QuditSpace& space() const { return space_; }
  const std::vector<Operation>& operations() const { return ops_; }
  std::size_t size() const { return ops_.size(); }
  bool empty() const { return ops_.empty(); }

  /// Appends a dense gate. Validates that the matrix dimension matches the
  /// product of the target sites' dimensions.
  void add(std::string name, Matrix u, std::vector<int> sites,
           double duration = 0.0);

  /// Appends a diagonal (phase-type) gate given its diagonal entries.
  void add_diagonal(std::string name, std::vector<cplx> diag,
                    std::vector<int> sites, double duration = 0.0);

  /// Appends a parametric gate: its payload is `generator` evaluated at
  /// the bound angle `expr`. The stored placeholder payload is the
  /// generator at angle expr.offset (params = 0); it is never executed --
  /// execution requires bind() or a request-level parameter vector.
  void add_parametric(std::string name,
                      std::shared_ptr<const ParamGenerator> generator,
                      ParamExpr expr, std::vector<int> sites,
                      double duration = 0.0);

  /// Appends a fully-formed operation (all metadata preserved). The
  /// compiler passes move operations between circuits through this so
  /// parametric metadata survives commutation, routing, and scheduling.
  void add_operation(Operation op);

  /// Sets the noise multiplicity of the most recently added operation.
  void set_last_noise_multiplicity(int multiplicity);

  /// Appends all operations of another circuit over the same space.
  void append(const Circuit& other);

  // --- parameters ---------------------------------------------------------

  /// True when any operation carries an unbound-able parameter slot.
  bool parametric() const { return num_parameters_ > 0; }

  /// Size of the parameter vector this circuit expects
  /// (max ParamExpr::index + 1 over its operations).
  std::size_t num_parameters() const { return num_parameters_; }

  /// The parameter vector this circuit was bound with; empty when the
  /// circuit is symbolic (never bound).
  const std::vector<double>& parameter_values() const {
    return parameter_values_;
  }

  /// The circuit with every parametric payload re-materialized at
  /// `params` (size must equal num_parameters()). Parametric metadata is
  /// retained -- compiler passes treat the operations identically bound
  /// or symbolic, which is what makes binding commute with transpilation
  /// and lowering bitwise (the parametric correctness contract).
  Circuit bind(const std::vector<double>& params) const;

  /// Reversed circuit with adjoint gates: runs this circuit backwards.
  /// Parametric circuits are rejected (a generator's adjoint family is
  /// not derivable in general); bind first.
  Circuit inverse() const;

  /// Circuit depth under greedy ASAP layering (gates on disjoint sites
  /// share a layer).
  std::size_t depth() const;

  /// Gate-count statistics.
  GateStats stats() const;

  /// Sum of per-gate durations (serial execution time).
  double total_duration() const;

  /// Human-readable listing, one gate per line.
  std::string to_string() const;

 private:
  friend std::uint64_t structural_fingerprint(const Circuit& circuit);

  /// The memoized structural digest; 0 means "not computed" (a digest
  /// that really is 0 is just recomputed). Relaxed atomic, so const
  /// readers on several threads may fill it at once: they all store the
  /// same value. Copies carry it.
  class DigestMemo {
   public:
    DigestMemo() = default;
    DigestMemo(const DigestMemo& other) : value_(other.get()) {}
    DigestMemo& operator=(const DigestMemo& other) {
      set(other.get());
      return *this;
    }
    std::uint64_t get() const {
      return value_.load(std::memory_order_relaxed);
    }
    void set(std::uint64_t value) {
      value_.store(value, std::memory_order_relaxed);
    }

   private:
    std::atomic<std::uint64_t> value_{0};
  };

  void check_sites(const std::vector<int>& sites, std::size_t block) const;

  QuditSpace space_;
  std::vector<Operation> ops_;
  std::size_t num_parameters_ = 0;
  std::vector<double> parameter_values_;
  mutable DigestMemo structural_digest_;
};

/// Order-sensitive 64-bit digest of a circuit: space dims plus every
/// operation's name, kind, sites, duration, multiplicity, parameter slot,
/// and exact matrix or diagonal payload bits. Value-sensitive: two
/// bindings of the same symbolic circuit digest differently. Cache-key
/// code paths must use structural_fingerprint() instead (enforced by
/// tools/lint_invariants.py).
std::uint64_t fingerprint(const Circuit& circuit);

/// Unbound-structure digest: like fingerprint(), but parametric
/// operations contribute their parameter slot (index/scale/offset) and
/// generator tag instead of their materialized payload bits, so every
/// binding of one symbolic circuit -- and the symbolic circuit itself --
/// digests identically. Equals fingerprint() for circuits with no
/// parametric operations. This is THE cache key of the transpile cache,
/// the plan cache, and the serve layer's batching keys.
///
/// Memoized: the first call stores the digest in the circuit, and later
/// calls return it without walking the operations. Every mutator (add,
/// add_diagonal, add_parametric, add_operation,
/// set_last_noise_multiplicity, append) clears it. Copies carry it, and
/// so does bind(), which changes only the payload values this digest
/// does not read. Safe to call from several threads on one const
/// circuit.
std::uint64_t structural_fingerprint(const Circuit& circuit);

}  // namespace qs

#endif  // QS_CIRCUIT_CIRCUIT_H
