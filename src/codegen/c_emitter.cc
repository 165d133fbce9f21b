#include "codegen/c_emitter.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <set>
#include <sstream>
#include <unordered_map>

#include "analysis/dependence.h"
#include "common/logging.h"

namespace tvmbo::codegen {

namespace {

using te::BinaryNode;
using te::BinaryOp;
using te::CmpOp;
using te::CompareNode;
using te::Expr;
using te::ExprKind;
using te::ExprNode;
using te::FloatImmNode;
using te::ForNode;
using te::IfThenElseNode;
using te::IntImmNode;
using te::RealizeNode;
using te::SelectNode;
using te::SeqNode;
using te::Stmt;
using te::StmtKind;
using te::StmtNode;
using te::StoreNode;
using te::TensorAccessNode;
using te::TensorNode;
using te::UnaryNode;
using te::UnaryOp;
using te::VarNode;

std::string sanitize(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out.push_back(ok ? c : '_');
  }
  if (out.empty()) out.push_back('t');
  return out;
}

std::vector<std::int64_t> row_major_strides(
    const std::vector<std::int64_t>& shape) {
  std::vector<std::int64_t> strides(shape.size(), 1);
  for (std::size_t d = shape.size(); d > 1; --d) {
    strides[d - 2] = strides[d - 1] * shape[d - 1];
  }
  return strides;
}

struct Emitter {
  std::ostringstream out;
  EmitOptions options;
  /// Tensor -> (C identifier, row-major strides). Realize entries are
  /// pushed/popped around their region, mirroring the interpreter's
  /// scoping.
  struct Binding {
    const TensorNode* tensor;
    std::string name;
    std::vector<std::int64_t> strides;
  };
  std::vector<Binding> tensors;
  int realize_count = 0;
  /// kParallel loops with a race-freedom proof from the dependence
  /// analyzer (node identity). Only these get the OpenMP pragma; an
  /// unproven parallel loop is silently emitted serial. Populated only
  /// when options.parallel is set, so serial emission never runs the
  /// analyzer and stays byte-identical for cache keys.
  std::set<const ForNode*> proven_parallel;
  /// Same contract for kVectorized loops and `#pragma omp simd`;
  /// populated only when options.vectorize is set.
  std::set<const ForNode*> proven_vectorized;
  /// Per-emission variable numbering. Global VarNode ids differ between
  /// otherwise-identical programs (every instantiation mints fresh Vars),
  /// which would make the emitted source — and therefore the artifact
  /// cache key — unique per instantiation. Numbering in first-use order
  /// keeps the source identical for identical configurations.
  std::unordered_map<const VarNode*, int> var_ids;

  const Binding& binding_of(const TensorNode* tensor) const {
    for (const Binding& b : tensors) {
      if (b.tensor == tensor) return b;
    }
    TVMBO_CHECK(false) << "tensor '" << tensor->name
                       << "' is not a kernel parameter and not inside its "
                          "Realize region";
    static const Binding none{};
    return none;
  }

  void indent(int depth) {
    for (int i = 0; i < depth; ++i) out << "  ";
  }

  std::string var_name(const VarNode* var) {
    const auto [it, inserted] =
        var_ids.emplace(var, static_cast<int>(var_ids.size()));
    std::string name = "v";
    name += std::to_string(it->second);
    name += '_';
    name += sanitize(var->name);
    return name;
  }

  void emit_int(const ExprNode* expr);
  void emit_value(const ExprNode* expr);
  void emit_flat_index(const TensorNode* tensor,
                       const std::vector<Expr>& indices);
  void emit_stmt(const StmtNode* stmt, int depth);
};

void Emitter::emit_int(const ExprNode* expr) {
  switch (expr->kind()) {
    case ExprKind::kIntImm: {
      const std::int64_t v = static_cast<const IntImmNode*>(expr)->value;
      out << "INT64_C(" << v << ")";
      return;
    }
    case ExprKind::kVar:
      out << var_name(static_cast<const VarNode*>(expr));
      return;
    case ExprKind::kBinary: {
      const auto* node = static_cast<const BinaryNode*>(expr);
      const char* infix = nullptr;
      const char* call = nullptr;
      switch (node->op) {
        case BinaryOp::kAdd: infix = " + "; break;
        case BinaryOp::kSub: infix = " - "; break;
        case BinaryOp::kMul: infix = " * "; break;
        case BinaryOp::kDiv: infix = " / "; break;
        case BinaryOp::kFloorDiv: call = "tvmbo_fdiv"; break;
        case BinaryOp::kMod: call = "tvmbo_fmod"; break;
        case BinaryOp::kMin: call = "tvmbo_imin"; break;
        case BinaryOp::kMax: call = "tvmbo_imax"; break;
      }
      if (call != nullptr) {
        out << call << "(";
        emit_int(node->a.get());
        out << ", ";
        emit_int(node->b.get());
        out << ")";
      } else {
        out << "(";
        emit_int(node->a.get());
        out << infix;
        emit_int(node->b.get());
        out << ")";
      }
      return;
    }
    case ExprKind::kCompare: {
      const auto* node = static_cast<const CompareNode*>(expr);
      const char* symbol = "?";
      switch (node->op) {
        case CmpOp::kLt: symbol = " < "; break;
        case CmpOp::kLe: symbol = " <= "; break;
        case CmpOp::kGt: symbol = " > "; break;
        case CmpOp::kGe: symbol = " >= "; break;
        case CmpOp::kEq: symbol = " == "; break;
        case CmpOp::kNe: symbol = " != "; break;
      }
      out << "(int64_t)(";
      emit_int(node->a.get());
      out << symbol;
      emit_int(node->b.get());
      out << ")";
      return;
    }
    case ExprKind::kSelect: {
      const auto* node = static_cast<const SelectNode*>(expr);
      out << "((";
      emit_int(node->condition.get());
      out << ") != 0 ? ";
      emit_int(node->true_value.get());
      out << " : ";
      emit_int(node->false_value.get());
      out << ")";
      return;
    }
    default:
      break;
  }
  TVMBO_CHECK(false) << "expression is not integer-emittable";
}

void Emitter::emit_value(const ExprNode* expr) {
  switch (expr->kind()) {
    case ExprKind::kIntImm:
      out << "(double)" << static_cast<const IntImmNode*>(expr)->value;
      return;
    case ExprKind::kFloatImm: {
      const double v = static_cast<const FloatImmNode*>(expr)->value;
      if (std::isinf(v)) {
        out << (v > 0 ? "INFINITY" : "(-INFINITY)");
        return;
      }
      // Hexfloat round-trips the exact bit pattern through the C lexer.
      char buffer[64];
      std::snprintf(buffer, sizeof(buffer), "%a", v);
      out << buffer;
      return;
    }
    case ExprKind::kVar:
      out << "(double)" << var_name(static_cast<const VarNode*>(expr));
      return;
    case ExprKind::kBinary: {
      const auto* node = static_cast<const BinaryNode*>(expr);
      const char* infix = nullptr;
      const char* call = nullptr;
      switch (node->op) {
        case BinaryOp::kAdd: infix = " + "; break;
        case BinaryOp::kSub: infix = " - "; break;
        case BinaryOp::kMul: infix = " * "; break;
        case BinaryOp::kDiv: infix = " / "; break;
        case BinaryOp::kFloorDiv: call = "tvmbo_ffdiv"; break;
        case BinaryOp::kMod: call = "tvmbo_ffmod"; break;
        case BinaryOp::kMin: call = "tvmbo_fmin"; break;
        case BinaryOp::kMax: call = "tvmbo_fmax"; break;
      }
      if (call != nullptr) {
        out << call << "(";
        emit_value(node->a.get());
        out << ", ";
        emit_value(node->b.get());
        out << ")";
      } else {
        out << "(";
        emit_value(node->a.get());
        out << infix;
        emit_value(node->b.get());
        out << ")";
      }
      return;
    }
    case ExprKind::kUnary: {
      const auto* node = static_cast<const UnaryNode*>(expr);
      const char* call = "?";
      switch (node->op) {
        case UnaryOp::kNeg: call = "-"; break;
        case UnaryOp::kAbs: call = "fabs"; break;
        case UnaryOp::kSqrt: call = "sqrt"; break;
        case UnaryOp::kExp: call = "exp"; break;
        case UnaryOp::kLog: call = "log"; break;
      }
      out << call << "(";
      emit_value(node->operand.get());
      out << ")";
      return;
    }
    case ExprKind::kCompare:
      out << "(double)";
      emit_int(expr);
      return;
    case ExprKind::kSelect: {
      const auto* node = static_cast<const SelectNode*>(expr);
      out << "((";
      emit_int(node->condition.get());
      out << ") != 0 ? ";
      emit_value(node->true_value.get());
      out << " : ";
      emit_value(node->false_value.get());
      out << ")";
      return;
    }
    case ExprKind::kTensorAccess: {
      const auto* node = static_cast<const TensorAccessNode*>(expr);
      const Binding& b = binding_of(node->tensor.get());
      out << b.name << "[";
      emit_flat_index(node->tensor.get(), node->indices);
      out << "]";
      return;
    }
    case ExprKind::kReduce:
      break;
  }
  TVMBO_CHECK(false) << "expression is not value-emittable (reduce marker "
                        "survived lowering?)";
}

void Emitter::emit_flat_index(const TensorNode* tensor,
                              const std::vector<Expr>& indices) {
  const Binding& b = binding_of(tensor);
  TVMBO_CHECK_EQ(indices.size(), b.strides.size())
      << "access arity mismatch on tensor '" << tensor->name << "'";
  for (std::size_t d = 0; d < indices.size(); ++d) {
    if (d > 0) out << " + ";
    if (b.strides[d] == 1) {
      out << "(";
      emit_int(indices[d].get());
      out << ")";
    } else {
      out << "(";
      emit_int(indices[d].get());
      out << ") * INT64_C(" << b.strides[d] << ")";
    }
  }
}

void Emitter::emit_stmt(const StmtNode* stmt, int depth) {
  switch (stmt->kind()) {
    case StmtKind::kFor: {
      const auto* node = static_cast<const ForNode*>(stmt);
      const std::string v = var_name(node->var.get());
      // Every emission still matches the interpreter's iteration order per
      // output element; the annotations add pragmas on top of it, each
      // gated so it cannot change float64 bits. kParallel gets the OpenMP
      // work-sharing pragma when requested, gated on a machine-checked
      // race-freedom proof from the dependence analyzer (proven_parallel):
      // inner loop variables are declared inside the body, so they are
      // thread-private automatically, and the proof guarantees distinct
      // iterations write disjoint elements. kVectorized gets `#pragma omp
      // simd` under the same proof regime (proven_vectorized) — racing
      // lanes are impossible, and -ffp-contract=off keeps each lane's
      // arithmetic bit-exact. Residual kUnrolled loops (the jit pre-pass
      // straight-lines the small ones before emission) get a GCC unroll
      // hint, which only rewrites control flow. Without the matching
      // compile flag every pragma is ignored and the loop runs serially.
      if (options.parallel && node->for_kind == te::ForKind::kParallel &&
          node->extent > 1 && proven_parallel.count(node) != 0) {
        indent(depth);
        out << "#pragma omp parallel for schedule(static)";
        if (options.num_threads > 0) {
          out << " num_threads(" << options.num_threads << ")";
        }
        out << "\n";
      } else if (options.vectorize &&
                 node->for_kind == te::ForKind::kVectorized &&
                 node->extent > 1 && proven_vectorized.count(node) != 0) {
        indent(depth);
        out << "#pragma omp simd";
        if (!tensors.empty()) {
          out << " aligned(";
          for (std::size_t i = 0; i < tensors.size(); ++i) {
            if (i > 0) out << ",";
            out << tensors[i].name;
          }
          out << ":8)";
        }
        out << "\n";
      } else if (options.unroll &&
                 node->for_kind == te::ForKind::kUnrolled &&
                 options.unroll_factor > 1) {
        indent(depth);
        out << "#pragma GCC unroll " << options.unroll_factor << "\n";
      }
      indent(depth);
      out << "for (int64_t " << v << " = 0; " << v << " < INT64_C("
          << node->extent << "); ++" << v << ") {\n";
      emit_stmt(node->body.get(), depth + 1);
      indent(depth);
      out << "}\n";
      return;
    }
    case StmtKind::kStore: {
      const auto* node = static_cast<const StoreNode*>(stmt);
      const Binding& b = binding_of(node->tensor.get());
      indent(depth);
      out << b.name << "[";
      emit_flat_index(node->tensor.get(), node->indices);
      out << "] = ";
      emit_value(node->value.get());
      out << ";\n";
      return;
    }
    case StmtKind::kSeq: {
      for (const Stmt& child : static_cast<const SeqNode*>(stmt)->stmts) {
        emit_stmt(child.get(), depth);
      }
      return;
    }
    case StmtKind::kIfThenElse: {
      const auto* node = static_cast<const IfThenElseNode*>(stmt);
      indent(depth);
      out << "if ((";
      emit_int(node->condition.get());
      out << ") != 0) {\n";
      emit_stmt(node->then_case.get(), depth + 1);
      indent(depth);
      out << "}";
      if (node->else_case) {
        out << " else {\n";
        emit_stmt(node->else_case.get(), depth + 1);
        indent(depth);
        out << "}";
      }
      out << "\n";
      return;
    }
    case StmtKind::kRealize: {
      const auto* node = static_cast<const RealizeNode*>(stmt);
      const TensorNode* tensor = node->tensor.get();
      std::int64_t elements = 1;
      for (std::int64_t extent : tensor->shape) elements *= extent;
      std::string name = "r";
      name += std::to_string(realize_count++);
      name += '_';
      name += sanitize(tensor->name);
      indent(depth);
      out << "{  /* realize " << tensor->name << " */\n";
      indent(depth + 1);
      // calloc matches the interpreter's fresh zero-initialized
      // allocation per region entry. The fresh allocation aliases nothing,
      // so the restrict qualifier (simd emission only) is trivially true.
      out << "double* " << (options.vectorize ? "restrict " : "") << name
          << " = (double*)calloc((size_t)" << elements
          << ", sizeof(double));\n";
      indent(depth + 1);
      out << "if (!" << name << ") abort();\n";
      tensors.push_back({tensor, name, row_major_strides(tensor->shape)});
      emit_stmt(node->body.get(), depth + 1);
      tensors.pop_back();
      indent(depth + 1);
      out << "free(" << name << ");\n";
      indent(depth);
      out << "}\n";
      return;
    }
  }
  TVMBO_CHECK(false) << "unemittable statement";
}

}  // namespace

std::string_view c_prelude() {
  // Parsing <math.h>, <stdint.h> and <stdlib.h> is a large share of each
  // cc1 run, yet generated code references only the names below. The
  // types come from the compiler's predefined macros and the functions
  // are library builtins to both gcc and clang, so the compiler attaches
  // the same semantics either way and the kernels assemble to the same
  // instructions as with the headers. INFINITY is spelled as glibc's
  // <math.h> spells it for gcc. INT64_C falls back to an LL suffix on
  // compilers that do not predefine __INT64_C.
  return "/* generated by tvmbo::codegen (do not edit) */\n"
         "typedef __INT64_TYPE__ int64_t;\n"
         "#ifdef __INT64_C\n"
         "#define INT64_C(c) __INT64_C(c)\n"
         "#else\n"
         "#define INT64_C(c) c##LL\n"
         "#endif\n"
         "typedef __SIZE_TYPE__ size_t;\n"
         "#define INFINITY (__builtin_inff())\n"
         "double floor(double);\n"
         "double fabs(double);\n"
         "double sqrt(double);\n"
         "double exp(double);\n"
         "double log(double);\n"
         "void* calloc(size_t, size_t);\n"
         "void free(void*);\n"
         "void abort(void);\n\n";
}

std::string emit_c_source(const te::Stmt& stmt,
                          const std::vector<te::Tensor>& params,
                          const std::string& fn_name,
                          const EmitOptions& options) {
  TVMBO_CHECK(stmt != nullptr) << "emit of null statement";
  Emitter emitter;
  emitter.options = options;
  if (options.parallel) {
    for (const te::ForNode* loop :
         analysis::proven_parallel_loops(stmt)) {
      emitter.proven_parallel.insert(loop);
    }
  }
  if (options.vectorize) {
    for (const te::ForNode* loop :
         analysis::proven_vectorized_loops(stmt)) {
      emitter.proven_vectorized.insert(loop);
    }
  }
  emitter.out << c_prelude()
              << "static inline int64_t tvmbo_fdiv(int64_t a, int64_t b) "
                 "{ int64_t q = a / b; if ((a % b != 0) && ((a < 0) != "
                 "(b < 0))) --q; return q; }\n"
              << "static inline int64_t tvmbo_fmod(int64_t a, int64_t b) "
                 "{ return a - tvmbo_fdiv(a, b) * b; }\n"
              << "static inline int64_t tvmbo_imin(int64_t a, int64_t b) "
                 "{ return b < a ? b : a; }\n"
              << "static inline int64_t tvmbo_imax(int64_t a, int64_t b) "
                 "{ return a < b ? b : a; }\n"
              // Mirrors std::min/std::max argument selection exactly
              // (including which zero of a +0/-0 pair survives).
              << "static inline double tvmbo_fmin(double a, double b) "
                 "{ return b < a ? b : a; }\n"
              << "static inline double tvmbo_fmax(double a, double b) "
                 "{ return a < b ? b : a; }\n"
              << "static inline double tvmbo_ffdiv(double a, double b) "
                 "{ return floor(a / b); }\n"
              << "static inline double tvmbo_ffmod(double a, double b) "
                 "{ return a - floor(a / b) * b; }\n\n";
  emitter.out << "void " << fn_name << "(double** bufs) {\n";
  for (std::size_t i = 0; i < params.size(); ++i) {
    TVMBO_CHECK(params[i] != nullptr) << "null parameter tensor";
    const TensorNode* tensor = params[i].get();
    std::string name = "p";
    name += std::to_string(i);
    name += '_';
    name += sanitize(tensor->name);
    // restrict (simd emission only): the measurement contract binds every
    // parameter to a distinct array, so the promise holds.
    emitter.out << "  double* " << (options.vectorize ? "restrict " : "")
                << name << " = bufs[" << i << "];\n";
    emitter.tensors.push_back(
        {tensor, name, row_major_strides(tensor->shape)});
  }
  emitter.out << "\n";
  emitter.emit_stmt(stmt.get(), 1);
  emitter.out << "}\n";
  return emitter.out.str();
}

}  // namespace tvmbo::codegen
