//===- analysis/SymExpr.h - Symbolic linear bounds and intervals -*- C++ -*-=//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The symbolic interval domain of the paper's range analysis (Section 5):
/// interval bounds are linear expressions over program variables (loop
/// indices and, transitively, anything bound to them), so an array access
/// `a[i]` inside the i-th iteration is described exactly as [i, i] and the
/// disjointness of iteration i's and iteration i+1's accesses is decidable
/// by constant-difference comparison.
///
//===----------------------------------------------------------------------===//

#ifndef SPECPAR_ANALYSIS_SYMEXPR_H
#define SPECPAR_ANALYSIS_SYMEXPR_H

#include "lang/Ast.h"

#include <cstdint>
#include <map>
#include <optional>
#include <string>

namespace specpar {
namespace analysis {

/// A linear expression c0 + sum(ci * vi) over analysis variables (language
/// bindings holding symbolic integers), or +/- infinity, or *overflowed*:
/// an expression whose constant or a coefficient left the int64_t range.
/// Speculate integers wrap, so an overflowed bound says nothing about the
/// value; the arithmetic propagates it and an interval holding one is
/// full() (see SymInterval::of).
class SymExpr {
public:
  /// The constant \p C.
  static SymExpr constant(int64_t C) {
    SymExpr E;
    E.Const = C;
    return E;
  }
  /// The variable \p B.
  static SymExpr variable(const lang::Binding *B) {
    SymExpr E;
    E.Coeffs[B] = 1;
    return E;
  }
  static SymExpr posInf() {
    SymExpr E;
    E.K = Kind::PosInf;
    return E;
  }
  static SymExpr negInf() {
    SymExpr E;
    E.K = Kind::NegInf;
    return E;
  }

  SymExpr() = default;

  bool isPosInf() const { return K == Kind::PosInf; }
  bool isNegInf() const { return K == Kind::NegInf; }
  bool isOverflow() const { return K == Kind::Overflow; }
  bool isFinite() const { return K == Kind::Finite; }
  bool isConstant() const { return isFinite() && Coeffs.empty(); }
  int64_t constantValue() const { return Const; }

  friend SymExpr operator+(const SymExpr &A, const SymExpr &B);
  friend SymExpr operator-(const SymExpr &A, const SymExpr &B);
  /// Multiplication by a constant expression; returns nullopt when neither
  /// side is constant (non-linear) or a side is not finite.
  static std::optional<SymExpr> mul(const SymExpr &A, const SymExpr &B);

  /// A - B if the difference is a known constant that fits int64_t, else
  /// nullopt. This is the comparability test behind all symbolic interval
  /// decisions.
  std::optional<int64_t> differenceFrom(const SymExpr &B) const;

  /// Substitutes \p Var := \p Replacement.
  SymExpr substitute(const lang::Binding *Var,
                     const SymExpr &Replacement) const;

  /// The coefficient of \p Var (0 when absent); nullopt for infinities.
  std::optional<int64_t> coefficientOf(const lang::Binding *Var) const {
    if (!isFinite())
      return std::nullopt;
    auto It = Coeffs.find(Var);
    return It == Coeffs.end() ? 0 : It->second;
  }

  friend bool operator==(const SymExpr &A, const SymExpr &B) {
    return A.K == B.K && (A.K != Kind::Finite ||
                          (A.Const == B.Const && A.Coeffs == B.Coeffs));
  }

  std::string str() const;

private:
  static SymExpr overflow() {
    SymExpr E;
    E.K = Kind::Overflow;
    return E;
  }

  enum class Kind { Finite, PosInf, NegInf, Overflow } K = Kind::Finite;
  int64_t Const = 0;
  std::map<const lang::Binding *, int64_t> Coeffs;
};

SymExpr operator+(const SymExpr &A, const SymExpr &B);
SymExpr operator-(const SymExpr &A, const SymExpr &B);

/// An interval with symbolic bounds. Empty is canonical.
class SymInterval {
public:
  static SymInterval empty() { return SymInterval(); }
  static SymInterval full() {
    return SymInterval(SymExpr::negInf(), SymExpr::posInf());
  }
  static SymInterval point(const SymExpr &E) { return SymInterval(E, E); }
  static SymInterval of(SymExpr Lo, SymExpr Hi) {
    return SymInterval(std::move(Lo), std::move(Hi));
  }

  bool isEmpty() const { return Empty; }
  bool isPoint() const { return !Empty && Lo == Hi; }
  const SymExpr &lo() const { return Lo; }
  const SymExpr &hi() const { return Hi; }

  /// May the two intervals overlap? Conservative: true unless provably
  /// disjoint via constant bound differences.
  static bool mayOverlap(const SymInterval &A, const SymInterval &B);

  /// Does \p Outer provably contain \p Inner? Conservative: false unless
  /// provable.
  static bool mustContain(const SymInterval &Outer, const SymInterval &Inner);

  /// Convex hull; incomparable bounds widen to infinity.
  static SymInterval join(const SymInterval &A, const SymInterval &B);

  /// Pointwise addition.
  friend SymInterval operator+(const SymInterval &A, const SymInterval &B);
  friend SymInterval operator-(const SymInterval &A, const SymInterval &B);
  /// Multiplication; precise only when one side is a constant point,
  /// otherwise full() (kept sound and simple).
  static SymInterval mul(const SymInterval &A, const SymInterval &B);

  /// Substitutes \p Var := \p Replacement in both bounds.
  SymInterval substitute(const lang::Binding *Var,
                         const SymExpr &Replacement) const;

  friend bool operator==(const SymInterval &A, const SymInterval &B) {
    if (A.Empty || B.Empty)
      return A.Empty == B.Empty;
    return A.Lo == B.Lo && A.Hi == B.Hi;
  }

  std::string str() const;

private:
  SymInterval() : Empty(true) {}
  /// An overflowed bound is unknown, so the interval is the full range.
  SymInterval(SymExpr Lo, SymExpr Hi)
      : Empty(false), Lo(std::move(Lo)), Hi(std::move(Hi)) {
    if (this->Lo.isOverflow() || this->Hi.isOverflow()) {
      this->Lo = SymExpr::negInf();
      this->Hi = SymExpr::posInf();
    }
  }

  bool Empty;
  SymExpr Lo, Hi;
};

SymInterval operator+(const SymInterval &A, const SymInterval &B);
SymInterval operator-(const SymInterval &A, const SymInterval &B);

} // namespace analysis
} // namespace specpar

#endif // SPECPAR_ANALYSIS_SYMEXPR_H
