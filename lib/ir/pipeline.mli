open Sympiler_sparse

(** The Sympiler phase pipeline of Figure 2: symbolic inspection, lowering,
    inspector-guided transformations, low-level transformations, code
    generation. Produces both the transformed kernel AST (executable
    through {!Interp}) and the final C source. Benchmarks use the native
    executors in [Sympiler_kernels]; this pipeline is the compiler
    itself. *)

type result = {
  kernel : Ast.kernel;
  c_code : string;
  inspectors : string list;  (** human-readable inspector descriptions *)
  tmp_size : int;  (** required scratch size for the [tmp] parameter *)
}

val trisolve :
  ?vs_block:bool ->
  ?vi_prune:bool ->
  ?low_level:bool ->
  ?peel_threshold:int ->
  ?max_width:int ->
  Csc.t ->
  Vector.sparse ->
  result
(** Build the triangular-solve kernel with any subset of the three
    transformation layers (defaults: all three, VS-Block before VI-Prune as
    §4.2 prefers). *)

val cholesky :
  ?low_level:bool -> ?fill:Sympiler_symbolic.Fill_pattern.t -> Csc.t -> result
(** The left-looking Cholesky kernel, VI-Pruned at lowering (the paper's
    Figure 7 baseline); the low-level stage applies distribution, scalar
    replacement and constant propagation. [fill] is the symbolic analysis
    of the same pattern when the caller already holds it (otherwise the
    pattern is analyzed here). *)

val run_trisolve : result -> Csc.t -> Vector.sparse -> float array
(** Interpreter-backed execution (tests/examples). *)

val run_cholesky : result -> Csc.t -> nnz_l:int -> float array
(** Interpreter-backed numeric factorization; returns the Lx value array
    for the precomputed pattern. *)
