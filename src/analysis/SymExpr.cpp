//===- analysis/SymExpr.cpp - Symbolic linear bounds and intervals ---------===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/SymExpr.h"

#include "support/StringUtils.h"

using namespace specpar;
using namespace specpar::analysis;

SymExpr specpar::analysis::operator+(const SymExpr &A, const SymExpr &B) {
  if (A.isOverflow() || B.isOverflow())
    return SymExpr::overflow();
  if (A.isPosInf() || B.isPosInf())
    return SymExpr::posInf();
  if (A.isNegInf() || B.isNegInf())
    return SymExpr::negInf();
  SymExpr R = A;
  if (__builtin_add_overflow(R.Const, B.Const, &R.Const))
    return SymExpr::overflow();
  for (const auto &[Var, Coeff] : B.Coeffs) {
    int64_t &C = R.Coeffs[Var];
    if (__builtin_add_overflow(C, Coeff, &C))
      return SymExpr::overflow();
    if (C == 0)
      R.Coeffs.erase(Var);
  }
  return R;
}

SymExpr specpar::analysis::operator-(const SymExpr &A, const SymExpr &B) {
  if (A.isOverflow() || B.isOverflow())
    return SymExpr::overflow();
  if (B.isPosInf())
    return SymExpr::negInf();
  if (B.isNegInf())
    return SymExpr::posInf();
  std::optional<SymExpr> Neg = SymExpr::mul(SymExpr::constant(-1), B);
  return Neg ? A + *Neg : SymExpr::overflow();
}

std::optional<SymExpr> SymExpr::mul(const SymExpr &A, const SymExpr &B) {
  if (!A.isFinite() || !B.isFinite())
    return std::nullopt;
  const SymExpr *Scalar = nullptr, *Linear = nullptr;
  if (A.isConstant()) {
    Scalar = &A;
    Linear = &B;
  } else if (B.isConstant()) {
    Scalar = &B;
    Linear = &A;
  } else {
    return std::nullopt;
  }
  SymExpr R;
  int64_t K = Scalar->Const;
  if (__builtin_mul_overflow(Linear->Const, K, &R.Const))
    return overflow();
  if (K != 0)
    for (const auto &[Var, Coeff] : Linear->Coeffs)
      if (__builtin_mul_overflow(Coeff, K, &R.Coeffs[Var]))
        return overflow();
  return R;
}

std::optional<int64_t> SymExpr::differenceFrom(const SymExpr &B) const {
  if (!isFinite() || !B.isFinite())
    return std::nullopt;
  int64_t D;
  if (Coeffs != B.Coeffs || __builtin_sub_overflow(Const, B.Const, &D))
    return std::nullopt;
  return D;
}

SymExpr SymExpr::substitute(const lang::Binding *Var,
                            const SymExpr &Replacement) const {
  if (!isFinite())
    return *this;
  auto It = Coeffs.find(Var);
  if (It == Coeffs.end())
    return *this;
  int64_t K = It->second;
  SymExpr Rest = *this;
  Rest.Coeffs.erase(Var);
  std::optional<SymExpr> Scaled = mul(SymExpr::constant(K), Replacement);
  if (!Scaled) {
    // Nonlinear substitution: only infinities survive.
    return K > 0 ? Replacement : (SymExpr::constant(0) - Replacement);
  }
  return Rest + *Scaled;
}

std::string SymExpr::str() const {
  if (isPosInf())
    return "+inf";
  if (isNegInf())
    return "-inf";
  if (isOverflow())
    return "overflow";
  std::string S;
  for (const auto &[Var, Coeff] : Coeffs) {
    if (!S.empty())
      S += " + ";
    if (Coeff == 1)
      S += Var->Name;
    else
      S += formatString("%lld*%s", static_cast<long long>(Coeff),
                        Var->Name.c_str());
  }
  if (Const != 0 || S.empty()) {
    if (!S.empty())
      S += " + ";
    S += std::to_string(Const);
  }
  return S;
}

//===----------------------------------------------------------------------===//
// SymInterval
//===----------------------------------------------------------------------===//

/// Is A provably <= B? (via constant difference, or infinities)
static bool provablyLe(const SymExpr &A, const SymExpr &B) {
  if (A.isNegInf() || B.isPosInf())
    return true;
  if (A.isPosInf())
    return B.isPosInf();
  if (B.isNegInf())
    return A.isNegInf();
  std::optional<int64_t> D = A.differenceFrom(B);
  return D && *D <= 0;
}

/// Is A provably < B?
static bool provablyLt(const SymExpr &A, const SymExpr &B) {
  if (A.isNegInf())
    return !B.isNegInf();
  if (B.isPosInf())
    return !A.isPosInf();
  if (A.isPosInf() || B.isNegInf())
    return false;
  std::optional<int64_t> D = A.differenceFrom(B);
  return D && *D < 0;
}

bool SymInterval::mayOverlap(const SymInterval &A, const SymInterval &B) {
  if (A.Empty || B.Empty)
    return false;
  // Disjoint iff A.hi < B.lo or B.hi < A.lo, provably.
  if (provablyLt(A.Hi, B.Lo) || provablyLt(B.Hi, A.Lo))
    return false;
  return true;
}

bool SymInterval::mustContain(const SymInterval &Outer,
                              const SymInterval &Inner) {
  if (Inner.Empty)
    return true;
  if (Outer.Empty)
    return false;
  return provablyLe(Outer.Lo, Inner.Lo) && provablyLe(Inner.Hi, Outer.Hi);
}

SymInterval SymInterval::join(const SymInterval &A, const SymInterval &B) {
  if (A.Empty)
    return B;
  if (B.Empty)
    return A;
  SymExpr Lo = provablyLe(A.Lo, B.Lo)
                   ? A.Lo
                   : (provablyLe(B.Lo, A.Lo) ? B.Lo : SymExpr::negInf());
  SymExpr Hi = provablyLe(B.Hi, A.Hi)
                   ? A.Hi
                   : (provablyLe(A.Hi, B.Hi) ? B.Hi : SymExpr::posInf());
  return SymInterval(std::move(Lo), std::move(Hi));
}

SymInterval specpar::analysis::operator+(const SymInterval &A,
                                         const SymInterval &B) {
  if (A.isEmpty() || B.isEmpty())
    return SymInterval::empty();
  return SymInterval::of(A.lo() + B.lo(), A.hi() + B.hi());
}

SymInterval specpar::analysis::operator-(const SymInterval &A,
                                         const SymInterval &B) {
  if (A.isEmpty() || B.isEmpty())
    return SymInterval::empty();
  return SymInterval::of(A.lo() - B.hi(), A.hi() - B.lo());
}

SymInterval SymInterval::mul(const SymInterval &A, const SymInterval &B) {
  if (A.isEmpty() || B.isEmpty())
    return empty();
  // Precise only for point * point with a linear product; otherwise, if a
  // constant point scales an interval with a known sign, scale the bounds.
  if (A.isPoint() && B.isPoint()) {
    std::optional<SymExpr> P = SymExpr::mul(A.lo(), B.lo());
    if (P)
      return point(*P);
    return full();
  }
  auto ScaleByConst = [](const SymInterval &I, int64_t K) -> SymInterval {
    SymExpr KE = SymExpr::constant(K);
    std::optional<SymExpr> L = SymExpr::mul(I.lo(), KE);
    std::optional<SymExpr> H = SymExpr::mul(I.hi(), KE);
    auto InfMul = [K](const SymExpr &E) {
      if (E.isPosInf())
        return K >= 0 ? SymExpr::posInf() : SymExpr::negInf();
      return K >= 0 ? SymExpr::negInf() : SymExpr::posInf();
    };
    SymExpr Lo = L ? *L : InfMul(I.lo());
    SymExpr Hi = H ? *H : InfMul(I.hi());
    if (K < 0)
      std::swap(Lo, Hi);
    return of(std::move(Lo), std::move(Hi));
  };
  if (A.isPoint() && A.lo().isConstant())
    return ScaleByConst(B, A.lo().constantValue());
  if (B.isPoint() && B.lo().isConstant())
    return ScaleByConst(A, B.lo().constantValue());
  return full();
}

SymInterval SymInterval::substitute(const lang::Binding *Var,
                                    const SymExpr &Replacement) const {
  if (Empty)
    return *this;
  return of(Lo.substitute(Var, Replacement), Hi.substitute(Var, Replacement));
}

std::string SymInterval::str() const {
  if (Empty)
    return "[]";
  return "[" + Lo.str() + ", " + Hi.str() + "]";
}
