open Sympiler_sparse

(* Lowering: turn a numerical method plus a specific sparsity structure into
   the initial annotated AST of Figure 2a. The matrix pattern (colptr /
   rowind) is compile-time data and is baked into the kernel as constant
   arrays; only numeric values (Lx, x, ...) remain runtime parameters. *)

open Ast

(* Initial AST for sparse triangular solve L x = b (Figure 2a). [x] holds b
   on entry and the solution on exit.

     for j0 in 0..n:                       <- VI-Prune & VS-Block sites
       x[j0] /= Lx[Lp[j0]]
       for p in Lp[j0]+1 .. Lp[j0+1]:
         x[Li[p]] -= Lx[p] * x[j0]
*)
let lower_trisolve (l : Csc.t) : kernel =
  let n = l.Csc.ncols in
  let body =
    [
      for_ ~annots:[ Vi_prune_site; Vs_block_site ] "j0" (int_ 0) (int_ n)
        [
          Update (Arr ("x", var "j0"), Div, Load ("Lx", Idx ("Lp", var "j0")));
          for_ "p"
            (Idx ("Lp", var "j0") +: int_ 1)
            (Idx ("Lp", var "j0" +: int_ 1))
            [
              Update
                ( Arr ("x", Idx ("Li", var "p")),
                  Sub,
                  Load ("Lx", var "p") *: Load ("x", var "j0") );
            ];
        ];
    ]
  in
  {
    kname = "trisolve";
    params = [ ("Lx", Float_array); ("x", Float_array) ];
    consts = [ ("Lp", l.Csc.colptr); ("Li", l.Csc.rowind) ];
    body;
  }

(* Left-looking sparse Cholesky (the pseudo-code of Figure 4) with VI-Prune
   already applied, as in the paper's Cholesky baseline: the update loop
   iterates over the precomputed prune-set (row patterns of L) instead of
   all columns, and every symbolic quantity — L's pattern, the position
   rowPos of L(j,r) inside column r — is baked in as constant data.

   Runtime parameters: Ax (values of lower(A)), Lx (output), f (zeroed
   workspace of size n).

     for j in 0..n:
       for p in Ap[j] .. Ap[j+1]:              -- f = A(:,j)
         f[Ai[p]] = Ax[p]
       for ridx in rowPtr[j] .. rowPtr[j+1]:   -- update (pruned)
         for p in rowPos[ridx] .. Lp[rowSet[ridx]+1]:
           f[Li[p]] -= Lx[p] * Lx[rowPos[ridx]]
       Lx[Lp[j]] = sqrt(f[j])                  -- diagonal
       f[j] = 0
       for p in Lp[j]+1 .. Lp[j+1]:            -- off-diagonal
         Lx[p] = f[Li[p]] / Lx[Lp[j]]
         f[Li[p]] = 0
*)
let lower_cholesky ~(fill : Sympiler_symbolic.Fill_pattern.t) (a_lower : Csc.t)
    : kernel =
  let n = fill.Sympiler_symbolic.Fill_pattern.n in
  let lp = fill.Sympiler_symbolic.Fill_pattern.l_pattern.Csc.colptr in
  let li = fill.Sympiler_symbolic.Fill_pattern.l_pattern.Csc.rowind in
  (* Flatten the prune-sets and compute rowPos.(ridx): the position of entry
     L(j, rowSet.(ridx)) in column rowSet.(ridx)'s storage. The packed store
     already carries the offsets. *)
  let row_ptr =
    Array.copy (Sympiler_symbolic.Fill_pattern.row_ptr fill)
  in
  let row_set = Array.make (max 1 row_ptr.(n)) 0 in
  let row_pos = Array.make (max 1 row_ptr.(n)) 0 in
  let fillcount = Array.make n 0 in
  for j = 0 to n - 1 do
    let t = ref 0 in
    Sympiler_symbolic.Fill_pattern.iter_row_pattern fill j (fun r ->
        fillcount.(r) <- fillcount.(r) + 1;
        row_set.(row_ptr.(j) + !t) <- r;
        row_pos.(row_ptr.(j) + !t) <- lp.(r) + fillcount.(r);
        incr t)
  done;
  let body =
    [
      for_ ~annots:[ Vs_block_site ] "j" (int_ 0) (int_ n)
        [
          Comment "gather f = A(:,j)";
          for_ "p" (Idx ("Ap", var "j")) (Idx ("Ap", var "j" +: int_ 1))
            [ Assign (Arr ("f", Idx ("Ai", var "p")), Load ("Ax", var "p")) ];
          Comment "update phase over the prune-set (VI-Pruned)";
          for_ ~annots:[ Pruned ] "ridx" (Idx ("rowPtr", var "j"))
            (Idx ("rowPtr", var "j" +: int_ 1))
            [
              for_ "p" (Idx ("rowPos", var "ridx"))
                (Idx ("Lp", Idx ("rowSet", var "ridx") +: int_ 1))
                [
                  Update
                    ( Arr ("f", Idx ("Li", var "p")),
                      Sub,
                      Load ("Lx", var "p")
                      *: Load ("Lx", Idx ("rowPos", var "ridx")) );
                ];
            ];
          Comment "column factorization";
          Assign (Arr ("Lx", Idx ("Lp", var "j")), Sqrt (Load ("f", var "j")));
          Assign (Arr ("f", var "j"), Float_lit 0.0);
          for_ "p"
            (Idx ("Lp", var "j") +: int_ 1)
            (Idx ("Lp", var "j" +: int_ 1))
            [
              Assign
                ( Arr ("Lx", var "p"),
                  Load ("f", Idx ("Li", var "p"))
                  /: Load ("Lx", Idx ("Lp", var "j")) );
              Assign (Arr ("f", Idx ("Li", var "p")), Float_lit 0.0);
            ];
        ];
    ]
  in
  {
    kname = "cholesky";
    params = [ ("Ax", Float_array); ("Lx", Float_array); ("f", Float_array) ];
    consts =
      [
        ("Ap", a_lower.Csc.colptr);
        ("Ai", a_lower.Csc.rowind);
        ("Lp", lp);
        ("Li", li);
        ("rowPtr", row_ptr);
        ("rowSet", row_set);
        ("rowPos", row_pos);
      ];
    body;
  }
