open Sympiler_sparse

(** Lowering (Figure 2a): turn a numerical method plus a specific sparsity
    structure into the initial annotated AST. The pattern arrays (colptr /
    rowind) become compile-time constants of the kernel; only numeric
    values remain runtime parameters. *)

val lower_trisolve : Csc.t -> Ast.kernel
(** The forward-substitution loop nest, annotated with the VI-Prune and
    VS-Block sites. Parameters: [Lx] (factor values), [x] (b in, solution
    out). *)

val lower_cholesky :
  fill:Sympiler_symbolic.Fill_pattern.t -> Csc.t -> Ast.kernel
(** Left-looking sparse Cholesky (the pseudo-code of the paper's Figure 4)
    with VI-Prune already applied, as in the paper's Figure 7 baseline:
    the update loop iterates the precomputed prune-sets, and every entry
    position (including [rowPos], the position of L(j,r) in column r) is
    baked in. [fill] is the symbolic analysis of [a_lower]'s pattern.
    Parameters: [Ax], [Lx] (out), [f] (zeroed workspace). *)
