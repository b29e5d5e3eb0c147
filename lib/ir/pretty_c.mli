(** C code generation — the final lowering stage. Compile-time constant
    arrays (matrix pattern, inspection sets) are emitted as static tables
    decoded at load time ({!Sympiler_sparse.C_table}), so each generated
    file is self-contained, specialized to one sparsity structure, and its
    function manipulates numeric values only. [Vectorize] annotations
    become [#pragma GCC ivdep]. *)

val expr_str : Ast.expr -> string
val lvalue_str : Ast.lvalue -> string

val kernel_to_c : Ast.kernel -> string
(** The kernel as a complete C translation unit ([#include <math.h>],
    static tables and their load-time decoder, one function). Generated
    files compile with [gcc -O2 -lm]; the test suite verifies this and
    compares outputs against the interpreter bit-for-bit. *)
