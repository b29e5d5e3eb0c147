open Sympiler_sparse
open Sympiler_kernels

(* Direct C emission for the supernodal (VS-Block) Cholesky executor. The
   paper's VS-Block lowering is heavily domain-specific ("the synthesized
   loops/instructions in the lowering phase contain information about the
   block location", §2.3.2), so rather than going through the generic AST
   this emitter specializes the supernodal left-looking driver with every
   inspection set — supernode boundaries, the update schedule, L's pattern —
   baked in as static data. Numeric inputs (Ax) and outputs (Lx) remain the
   only runtime parameters. *)

let to_c (c : Cholesky_supernodal.Sympiler.compiled) (a_lower : Csc.t) : string
    =
  let an = c.Cholesky_supernodal.Sympiler.an in
  let sn = an.Cholesky_supernodal.sn in
  let nsuper = Sympiler_symbolic.Supernodes.nsuper sn in
  (* Flatten the update schedule. *)
  let sched = c.Cholesky_supernodal.Sympiler.schedule in
  let sched_ptr = Array.make (nsuper + 1) 0 in
  for s = 0 to nsuper - 1 do
    sched_ptr.(s + 1) <- sched_ptr.(s) + Array.length sched.(s)
  done;
  let nupd = sched_ptr.(nsuper) in
  let upd_d = Array.make (max 1 nupd) 0 in
  let upd_first = Array.make (max 1 nupd) 0 in
  let upd_t = Array.make (max 1 nupd) 0 in
  let upd_m = Array.make (max 1 nupd) 0 in
  for s = 0 to nsuper - 1 do
    Array.iteri
      (fun i (u : Cholesky_supernodal.update) ->
        let q = sched_ptr.(s) + i in
        upd_d.(q) <- u.Cholesky_supernodal.d;
        upd_first.(q) <- u.Cholesky_supernodal.first;
        upd_t.(q) <- u.Cholesky_supernodal.t;
        upd_m.(q) <- u.Cholesky_supernodal.m)
      sched.(s)
  done;
  let buf = Buffer.create 65536 in
  Buffer.add_string buf "#include <math.h>\n\n";
  Buffer.add_string buf
    "/* cholesky_supernodal: generated by Sympiler for a fixed sparsity\n\
    \   structure; all symbolic information is static data. */\n";
  C_table.emit buf
    [
      ("Ap", a_lower.Csc.colptr);
      ("Ai", a_lower.Csc.rowind);
      ("Lp", an.Cholesky_supernodal.l_colptr);
      ("Li", an.Cholesky_supernodal.l_rowind);
      ("snPtr", sn.Sympiler_symbolic.Supernodes.sn_ptr);
      ("snBelow", an.Cholesky_supernodal.nb);
      ("schedPtr", sched_ptr);
      ("updD", upd_d);
      ("updFirst", upd_first);
      ("updT", upd_t);
      ("updM", upd_m);
    ];
  Buffer.add_string buf
    (Printf.sprintf "\n#define N %d\n#define NSUPER %d\n\n" an.Cholesky_supernodal.n
       nsuper);
  Buffer.add_string buf
    {|static int relpos[N];

/* Ax: values of lower(A); Lx: output factor values (size Lp[N]). */
void cholesky_supernodal(const double *restrict Ax, double *restrict Lx) {
  for (int s = 0; s < NSUPER; s++) {
    int c0 = snPtr[s], c1 = snPtr[s + 1], w = c1 - c0, nb = snBelow[s];
    /* panel row offsets and initialization from A */
    for (int idx = 0; idx < w + nb; idx++) relpos[Li[Lp[c0] + idx]] = idx;
    for (int j = c0; j < c1; j++) {
      for (int p = Lp[j]; p < Lp[j + 1]; p++) Lx[p] = 0.0;
      for (int p = Ap[j]; p < Ap[j + 1]; p++) {
        int i = Ai[p];
        if (i >= j) Lx[Lp[j] + relpos[i] - (j - c0)] = Ax[p];
      }
    }
    /* descendant updates (schedule baked in at compile time) */
    for (int q = schedPtr[s]; q < schedPtr[s + 1]; q++) {
      int d = updD[q], first = updFirst[q], t = updT[q], m = updM[q];
      int d0 = snPtr[d], d1 = snPtr[d + 1];
      int rows = Lp[d0] + (d1 - d0) + first;
      for (int tt = 0; tt < t; tt++) {
        int k = Li[rows + tt];
        int col = Lp[k] - (k - c0);
        for (int j = d0; j < d1; j++) {
          int base = Lp[j] + (d1 - j) + first;
          double ltop = Lx[base + tt];
          if (ltop != 0.0) {
            #pragma GCC ivdep
            for (int mm = tt; mm < m; mm++)
              Lx[col + relpos[Li[rows + mm]]] -= Lx[base + mm] * ltop;
          }
        }
      }
    }
    /* dense panel factorization: potrf on the diagonal block, trsm below */
    for (int j = c0; j < c1; j++) {
      int base = Lp[j];
      double dd = Lx[base];
      for (int k = c0; k < j; k++) {
        double v = Lx[Lp[k] + (j - k)];
        dd -= v * v;
      }
      double djj = sqrt(dd);
      Lx[base] = djj;
      for (int i = j + 1; i < c1; i++) {
        double sum = Lx[base + i - j];
        for (int k = c0; k < j; k++)
          sum -= Lx[Lp[k] + (i - k)] * Lx[Lp[k] + (j - k)];
        Lx[base + i - j] = sum / djj;
      }
      int bj = Lp[j] + (c1 - j);
      for (int k = c0; k < j; k++) {
        double lkj = Lx[Lp[k] + (j - k)];
        int bk = Lp[k] + (c1 - k);
        #pragma GCC ivdep
        for (int tt2 = 0; tt2 < nb; tt2++) Lx[bj + tt2] -= Lx[bk + tt2] * lkj;
      }
      #pragma GCC ivdep
      for (int tt2 = 0; tt2 < nb; tt2++) Lx[bj + tt2] /= djj;
    }
  }
}
|};
  Buffer.contents buf
