#include "clc/compile.hpp"

#include "clc/codegen.hpp"
#include "clc/wgloops.hpp"
#include "clc/lexer.hpp"
#include "clc/parser.hpp"
#include "clc/preprocessor.hpp"
#include "clc/sema.hpp"

namespace hplrepro::clc {

bool parse_build_options(std::string_view options, CompileOptions& out,
                         std::string& error) {
  std::size_t pos = 0;
  while (pos < options.size()) {
    while (pos < options.size() &&
           (options[pos] == ' ' || options[pos] == '\t')) {
      ++pos;
    }
    std::size_t end = pos;
    while (end < options.size() && options[end] != ' ' &&
           options[end] != '\t') {
      ++end;
    }
    if (end == pos) break;
    const std::string_view tok = options.substr(pos, end - pos);
    pos = end;
    if (tok == "-cl-opt-disable" || tok == "-O0") {
      out.opt_level = OptLevel::O0;
    } else if (tok == "-O1" || tok == "-O2" || tok == "-O3") {
      out.opt_level = OptLevel::O2;
    } else if (tok == "-cl-mad-enable" || tok == "-w") {
      // accepted, no effect (mad fusion is bit-exact and on at O2)
    } else if (tok == "-cl-interp=stack") {
      out.interp = InterpMode::Stack;
    } else if (tok == "-cl-interp=threaded") {
      out.interp = InterpMode::Threaded;
    } else if (tok == "-cl-wg-loops" || tok == "-cl-wg-loops=on") {
      out.wg_loops = true;
    } else if (tok == "-cl-wg-loops=off") {
      out.wg_loops = false;
    } else if (tok == "-cl-fusion" || tok == "-cl-fusion=on") {
      out.fusion = true;
    } else if (tok == "-cl-fusion=off") {
      out.fusion = false;
    } else {
      error = "unrecognized build option '" + std::string(tok) + "'";
      return false;
    }
  }
  return true;
}

CompileResult compile(std::string_view source, const CompileOptions& options) {
  DiagnosticSink diags;

  PreprocessResult preprocessed = preprocess(source, diags);
  if (diags.has_errors()) throw CompileError(diags.log());

  Lexer lexer(preprocessed.text, diags);
  std::vector<Token> tokens = lexer.lex_all();
  if (diags.has_errors()) throw CompileError(diags.log());

  tokens = expand_macros(std::move(tokens), preprocessed.macros, diags);
  if (diags.has_errors()) throw CompileError(diags.log());

  Parser parser(std::move(tokens), diags);
  TranslationUnit unit = parser.parse();
  if (diags.has_errors()) throw CompileError(diags.log());

  Sema sema(unit, diags);
  sema.run();
  if (diags.has_errors()) throw CompileError(diags.log());

  CompileResult result;
  result.module = generate_bytecode(unit);
  result.opt_report = optimize_module(result.module, options.opt_level);
  result.build_log = diags.log();
  if (options.interp == InterpMode::Threaded) {
    // Lower the optimized stack bytecode to the register form executed by
    // the direct-threaded interpreter. A lowering failure is not a build
    // error: the module simply stays stack-only and the executor falls
    // back to the stack interpreter.
    std::string note = lower_module(result.module);
    if (!note.empty()) {
      if (!result.build_log.empty()) result.build_log += '\n';
      result.build_log += note;
    } else if (options.wg_loops) {
      // Work-group compilation: region, uniformity and liveness analysis
      // over the register form so eligible kernels run as work-item loops
      // (WorkGroupVM). It logs one reason-code line per kernel.
      const std::string wg_log = analyze_wg_loops(result.module);
      if (!wg_log.empty()) {
        if (!result.build_log.empty()) result.build_log += '\n';
        result.build_log += wg_log;
      }
    }
  }
  return result;
}

}  // namespace hplrepro::clc
