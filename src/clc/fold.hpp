#ifndef HPLREPRO_CLC_FOLD_HPP
#define HPLREPRO_CLC_FOLD_HPP

/// \file fold.hpp
/// Compile-time evaluation of bytecode operations on constant operands.
///
/// The optimizer and the VM must agree bit-for-bit: a kernel compiled at
/// -O2 has to produce exactly the output of the same kernel interpreted at
/// -O0. Every expression here is therefore the same C++ expression the VM
/// dispatch loop evaluates (see vm.cpp), including the defined-everywhere
/// semantics clc gives to division by zero, INT64_MIN / -1, over-wide shift
/// counts and float->int truncation.

#include <cmath>
#include <cstdint>

#include <bit>

#include "clc/bytecode.hpp"

namespace hplrepro::clc {

/// Scalar class of a constant the optimizer tracks. Integer values of every
/// width live in I64, normalised exactly as the VM keeps them on its stack.
enum class FoldKind : std::uint8_t { None, I64, F32, F64 };

/// Result of a fold attempt; kind == None means "not foldable".
struct Folded {
  FoldKind kind = FoldKind::None;
  Value v{};
};

/// Saturating float->signed truncation (the VM's F2I/D2I semantics).
inline std::int64_t checked_trunc_i64(double v) {
  if (std::isnan(v)) return 0;
  if (v >= 9.2233720368547758e18) return INT64_MAX;
  if (v <= -9.2233720368547758e18) return INT64_MIN;
  return static_cast<std::int64_t>(v);
}

/// Saturating float->unsigned truncation (the VM's F2U/D2U semantics).
inline std::uint64_t checked_trunc_u64(double v) {
  if (std::isnan(v) || v <= 0) return 0;
  if (v >= 1.8446744073709552e19) return UINT64_MAX;
  return static_cast<std::uint64_t>(v);
}

/// Folds a binary operation over two constants. Returns kind == None when
/// the op is not a foldable binary op or the operand kinds don't match.
inline Folded fold_binary(Op op, FoldKind ka, const Value& a, FoldKind kb,
                          const Value& b) {
  Folded out;
#define HPLREPRO_FOLD_BIN(OPNAME, REQ, RES, FIELD, EXPR) \
  case Op::OPNAME:                                       \
    if (ka != FoldKind::REQ || kb != FoldKind::REQ) return out; \
    out.kind = FoldKind::RES;                            \
    out.v.FIELD = (EXPR);                                \
    return out;
  switch (op) {
    // Integer add/sub/mul (and NegI below) wrap in two's complement: they
    // run on the u64 view because signed overflow is undefined in C++.
    HPLREPRO_FOLD_BIN(AddI, I64, I64, u64, a.u64 + b.u64)
    HPLREPRO_FOLD_BIN(SubI, I64, I64, u64, a.u64 - b.u64)
    HPLREPRO_FOLD_BIN(MulI, I64, I64, u64, a.u64 * b.u64)
    HPLREPRO_FOLD_BIN(DivI, I64, I64, i64,
                      b.i64 == 0 ? 0
                                 : (a.i64 == INT64_MIN && b.i64 == -1
                                        ? a.i64
                                        : a.i64 / b.i64))
    HPLREPRO_FOLD_BIN(DivU, I64, I64, u64, b.u64 == 0 ? 0 : a.u64 / b.u64)
    HPLREPRO_FOLD_BIN(RemI, I64, I64, i64,
                      b.i64 == 0 ? 0
                                 : (a.i64 == INT64_MIN && b.i64 == -1
                                        ? 0
                                        : a.i64 % b.i64))
    HPLREPRO_FOLD_BIN(RemU, I64, I64, u64, b.u64 == 0 ? 0 : a.u64 % b.u64)
    HPLREPRO_FOLD_BIN(AndI, I64, I64, u64, a.u64 & b.u64)
    HPLREPRO_FOLD_BIN(OrI, I64, I64, u64, a.u64 | b.u64)
    HPLREPRO_FOLD_BIN(XorI, I64, I64, u64, a.u64 ^ b.u64)
    HPLREPRO_FOLD_BIN(ShlI, I64, I64, u64, a.u64 << (b.u64 & 63))
    HPLREPRO_FOLD_BIN(ShrI, I64, I64, i64, a.i64 >> (b.u64 & 63))
    HPLREPRO_FOLD_BIN(ShrU, I64, I64, u64, a.u64 >> (b.u64 & 63))
    HPLREPRO_FOLD_BIN(AddF, F32, F32, f32, a.f32 + b.f32)
    HPLREPRO_FOLD_BIN(SubF, F32, F32, f32, a.f32 - b.f32)
    HPLREPRO_FOLD_BIN(MulF, F32, F32, f32, a.f32 * b.f32)
    HPLREPRO_FOLD_BIN(DivF, F32, F32, f32, a.f32 / b.f32)
    HPLREPRO_FOLD_BIN(AddD, F64, F64, f64, a.f64 + b.f64)
    HPLREPRO_FOLD_BIN(SubD, F64, F64, f64, a.f64 - b.f64)
    HPLREPRO_FOLD_BIN(MulD, F64, F64, f64, a.f64 * b.f64)
    HPLREPRO_FOLD_BIN(DivD, F64, F64, f64, a.f64 / b.f64)
    HPLREPRO_FOLD_BIN(EqI, I64, I64, i64, a.i64 == b.i64 ? 1 : 0)
    HPLREPRO_FOLD_BIN(NeI, I64, I64, i64, a.i64 != b.i64 ? 1 : 0)
    HPLREPRO_FOLD_BIN(LtI, I64, I64, i64, a.i64 < b.i64 ? 1 : 0)
    HPLREPRO_FOLD_BIN(LeI, I64, I64, i64, a.i64 <= b.i64 ? 1 : 0)
    HPLREPRO_FOLD_BIN(GtI, I64, I64, i64, a.i64 > b.i64 ? 1 : 0)
    HPLREPRO_FOLD_BIN(GeI, I64, I64, i64, a.i64 >= b.i64 ? 1 : 0)
    HPLREPRO_FOLD_BIN(LtU, I64, I64, i64, a.u64 < b.u64 ? 1 : 0)
    HPLREPRO_FOLD_BIN(LeU, I64, I64, i64, a.u64 <= b.u64 ? 1 : 0)
    HPLREPRO_FOLD_BIN(GtU, I64, I64, i64, a.u64 > b.u64 ? 1 : 0)
    HPLREPRO_FOLD_BIN(GeU, I64, I64, i64, a.u64 >= b.u64 ? 1 : 0)
    HPLREPRO_FOLD_BIN(EqF, F32, I64, i64, a.f32 == b.f32 ? 1 : 0)
    HPLREPRO_FOLD_BIN(NeF, F32, I64, i64, a.f32 != b.f32 ? 1 : 0)
    HPLREPRO_FOLD_BIN(LtF, F32, I64, i64, a.f32 < b.f32 ? 1 : 0)
    HPLREPRO_FOLD_BIN(LeF, F32, I64, i64, a.f32 <= b.f32 ? 1 : 0)
    HPLREPRO_FOLD_BIN(GtF, F32, I64, i64, a.f32 > b.f32 ? 1 : 0)
    HPLREPRO_FOLD_BIN(GeF, F32, I64, i64, a.f32 >= b.f32 ? 1 : 0)
    HPLREPRO_FOLD_BIN(EqD, F64, I64, i64, a.f64 == b.f64 ? 1 : 0)
    HPLREPRO_FOLD_BIN(NeD, F64, I64, i64, a.f64 != b.f64 ? 1 : 0)
    HPLREPRO_FOLD_BIN(LtD, F64, I64, i64, a.f64 < b.f64 ? 1 : 0)
    HPLREPRO_FOLD_BIN(LeD, F64, I64, i64, a.f64 <= b.f64 ? 1 : 0)
    HPLREPRO_FOLD_BIN(GtD, F64, I64, i64, a.f64 > b.f64 ? 1 : 0)
    HPLREPRO_FOLD_BIN(GeD, F64, I64, i64, a.f64 >= b.f64 ? 1 : 0)
    default:
      return out;
  }
#undef HPLREPRO_FOLD_BIN
}

/// Folds a unary operation (negation, logical ops, width renormalisation,
/// conversions) over one constant.
inline Folded fold_unary(Op op, FoldKind ka, const Value& a) {
  Folded out;
#define HPLREPRO_FOLD_UN(OPNAME, REQ, RES, FIELD, EXPR) \
  case Op::OPNAME:                                      \
    if (ka != FoldKind::REQ) return out;                \
    out.kind = FoldKind::RES;                           \
    out.v.FIELD = (EXPR);                               \
    return out;
  switch (op) {
    HPLREPRO_FOLD_UN(NegI, I64, I64, u64, 0 - a.u64)
    HPLREPRO_FOLD_UN(NotI, I64, I64, u64, ~a.u64)
    HPLREPRO_FOLD_UN(NegF, F32, F32, f32, -a.f32)
    HPLREPRO_FOLD_UN(NegD, F64, F64, f64, -a.f64)
    HPLREPRO_FOLD_UN(LNot, I64, I64, i64, a.i64 == 0 ? 1 : 0)
    HPLREPRO_FOLD_UN(Bool, I64, I64, i64, a.i64 != 0 ? 1 : 0)
    HPLREPRO_FOLD_UN(Sext8, I64, I64, i64, static_cast<std::int8_t>(a.i64))
    HPLREPRO_FOLD_UN(Sext16, I64, I64, i64, static_cast<std::int16_t>(a.i64))
    HPLREPRO_FOLD_UN(Sext32, I64, I64, i64, static_cast<std::int32_t>(a.i64))
    HPLREPRO_FOLD_UN(Zext8, I64, I64, u64, a.u64 & 0xFFull)
    HPLREPRO_FOLD_UN(Zext16, I64, I64, u64, a.u64 & 0xFFFFull)
    HPLREPRO_FOLD_UN(Zext32, I64, I64, u64, a.u64 & 0xFFFFFFFFull)
    HPLREPRO_FOLD_UN(Zext1, I64, I64, u64, a.u64 & 1ull)
    HPLREPRO_FOLD_UN(I2F, I64, F32, f32, static_cast<float>(a.i64))
    HPLREPRO_FOLD_UN(I2D, I64, F64, f64, static_cast<double>(a.i64))
    HPLREPRO_FOLD_UN(U2F, I64, F32, f32, static_cast<float>(a.u64))
    HPLREPRO_FOLD_UN(U2D, I64, F64, f64, static_cast<double>(a.u64))
    HPLREPRO_FOLD_UN(F2I, F32, I64, i64, checked_trunc_i64(a.f32))
    HPLREPRO_FOLD_UN(D2I, F64, I64, i64, checked_trunc_i64(a.f64))
    HPLREPRO_FOLD_UN(F2U, F32, I64, u64, checked_trunc_u64(a.f32))
    HPLREPRO_FOLD_UN(D2U, F64, I64, u64, checked_trunc_u64(a.f64))
    HPLREPRO_FOLD_UN(F2D, F32, F64, f64, static_cast<double>(a.f32))
    HPLREPRO_FOLD_UN(D2F, F64, F32, f32, static_cast<float>(a.f64))
    default:
      return out;
  }
#undef HPLREPRO_FOLD_UN
}

}  // namespace hplrepro::clc

#endif  // HPLREPRO_CLC_FOLD_HPP
