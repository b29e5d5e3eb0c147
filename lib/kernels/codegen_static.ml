open Sympiler_sparse

(* C emission for the "other matrix methods" of §3.3 (LDL^T, LU, IC0,
   ILU0): like the Cholesky/trisolve emitters, every index array the
   symbolic phase computed is baked into the source as a static table, so
   the emitted numeric phase contains no symbolic work at all — the
   static-index-array property the paper's §5 contrasts with
   inspector-executor libraries. Each function mirrors its OCaml
   [factor_ip_body] line by line; pivot failures return the failing
   index, success returns -1. *)

let emit_header buf kernel n =
  Printf.bprintf buf
    "/* Sympiler-generated %s: numeric phase specialized to one sparsity\n\
    \   structure (n = %d); all index arrays are static tables. */\n"
    kernel n;
  Printf.bprintf buf "#define N %d\n" n

let ldlt (c : Ldlt.compiled) : string =
  let buf = Buffer.create 4096 in
  emit_header buf "LDL^T factorization" c.Ldlt.n;
  (* The compiled kernel already carries the prune-sets in flattened
     ptr/ind form; emit them as-is. *)
  let rp_ptr = c.Ldlt.rp_ptr and rp_ind = c.Ldlt.rp_ind in
  C_table.emit buf
    [
      ("lp", c.Ldlt.l_colptr);
      ("li", c.Ldlt.l_rowind);
      ("up", c.Ldlt.up_colptr);
      ("ui", c.Ldlt.up_rowind);
      ("umap", c.Ldlt.up_map);
      ("rp_ptr", rp_ptr);
      ("rp_ind", rp_ind);
    ];
  Buffer.add_string buf
    {|static int nzcount[N > 0 ? N : 1];
static double y[N > 0 ? N : 1];
/* ax: values of lower(A); lx: values of L; d: the diagonal.
   Returns -1 on success, k on a zero pivot at column k. */
int ldlt_factor(const double *restrict ax, double *restrict lx,
                double *restrict d) {
  for (int i = 0; i < N; i++) { nzcount[i] = 0; y[i] = 0.0; }
  for (int k = 0; k < N; k++) {
    double dk = 0.0;
    for (int p = up[k]; p < up[k + 1]; p++) {
      int i = ui[p];
      if (i == k) dk = ax[umap[p]];
      else if (i < k) y[i] = ax[umap[p]];
    }
    for (int t = rp_ptr[k]; t < rp_ptr[k + 1]; t++) {
      int j = rp_ind[t];
      double yj = y[j];
      y[j] = 0.0;
      double lkj = yj / d[j];
      /* row indices within a column are distinct: the scatter is safe */
#pragma GCC ivdep
      for (int p = lp[j] + 1; p < lp[j] + nzcount[j]; p++)
        y[li[p]] -= lx[p] * yj;
      dk -= lkj * yj;
      lx[lp[j] + nzcount[j]] = lkj;
      nzcount[j]++;
    }
    if (dk == 0.0) return k;
    d[k] = dk;
    lx[lp[k]] = 1.0;
    nzcount[k] = 1;
  }
  return -1;
}
|};
  Buffer.contents buf

let lu (c : Lu.Sympiler.compiled) (a : Csc.t) : string =
  let buf = Buffer.create 4096 in
  emit_header buf "LU factorization (Gilbert-Peierls, static pattern)"
    c.Lu.Sympiler.n;
  C_table.emit buf
    [
      ("ap", a.Csc.colptr);
      ("ai", a.Csc.rowind);
      ("lp", c.Lu.Sympiler.l_colptr);
      ("li", c.Lu.Sympiler.l_rowind);
      ("up", c.Lu.Sympiler.u_colptr);
      ("ui", c.Lu.Sympiler.u_rowind);
    ];
  Buffer.add_string buf
    {|static double x[N > 0 ? N : 1];
/* ax: values of A (CSC, the compiled pattern); lx/ux: values of L/U.
   Returns -1 on success, j on a zero pivot at column j. */
int lu_factor(const double *restrict ax, double *restrict lx,
              double *restrict ux) {
  for (int i = 0; i < N; i++) x[i] = 0.0;
  for (int j = 0; j < N; j++) {
    for (int q = ap[j]; q < ap[j + 1]; q++) x[ai[q]] = ax[q];
    int uhi = up[j + 1] - 1;
    for (int p = up[j]; p < uhi; p++) {
      int k = ui[p];
      double xk = x[k];
      ux[p] = xk;
      x[k] = 0.0;
      if (xk != 0.0)
        /* row indices within a column are distinct: the scatter is safe */
#pragma GCC ivdep
        for (int q = lp[k] + 1; q < lp[k + 1]; q++) x[li[q]] -= lx[q] * xk;
    }
    double ujj = x[j];
    if (ujj == 0.0) return j;
    ux[uhi] = ujj;
    x[j] = 0.0;
    lx[lp[j]] = 1.0;
#pragma GCC ivdep
    for (int q = lp[j] + 1; q < lp[j + 1]; q++) {
      lx[q] = x[li[q]] / ujj;
      x[li[q]] = 0.0;
    }
  }
  return -1;
}
|};
  Buffer.contents buf

let ic0 (c : Ic0.compiled) : string =
  let buf = Buffer.create 4096 in
  emit_header buf "incomplete Cholesky IC(0)" c.Ic0.n;
  C_table.emit buf
    [
      ("lp", c.Ic0.colptr);
      ("li", c.Ic0.rowind);
      ("rp", c.Ic0.row_ptr);
      ("rc", c.Ic0.row_col);
      ("rq", c.Ic0.row_pos);
    ];
  Buffer.add_string buf
    {|#include <math.h>
static int pos[N > 0 ? N : 1];
/* ax: values of lower(A); lx: values of the IC(0) factor (same pattern).
   Returns -1 on success, j when the pivot at column j is not positive. */
int ic0_factor(const double *restrict ax, double *restrict lx) {
#pragma GCC ivdep
  for (int q = 0; q < lp[N]; q++) lx[q] = ax[q];
  for (int i = 0; i < N; i++) pos[i] = -1;
  for (int j = 0; j < N; j++) {
    for (int p = lp[j]; p < lp[j + 1]; p++) pos[li[p]] = p;
    for (int q = rp[j]; q < rp[j + 1]; q++) {
      int r = rc[q];
      double ljr = lx[rq[q]];
      if (ljr != 0.0)
        /* pos[] positions within a column are distinct: the scatter is safe */
#pragma GCC ivdep
        for (int t = rq[q]; t < lp[r + 1]; t++)
          if (pos[li[t]] >= 0) lx[pos[li[t]]] -= lx[t] * ljr;
    }
    double dj = lx[lp[j]];
    if (dj <= 0.0) return j;
    double s = sqrt(dj);
    lx[lp[j]] = s;
#pragma GCC ivdep
    for (int p = lp[j] + 1; p < lp[j + 1]; p++) lx[p] /= s;
    for (int p = lp[j]; p < lp[j + 1]; p++) pos[li[p]] = -1;
  }
  return -1;
}
|};
  Buffer.contents buf

let ilu0 (c : Ilu0.compiled) : string =
  let buf = Buffer.create 4096 in
  emit_header buf "incomplete LU ILU(0)" c.Ilu0.n;
  C_table.emit buf
    [
      ("rp", c.Ilu0.rowptr);
      ("ci", c.Ilu0.colind);
      ("dg", c.Ilu0.diag);
      ("cmap", c.Ilu0.csc_map);
    ];
  Buffer.add_string buf
    {|static int pos[N > 0 ? N : 1];
/* ax: values of A (CSC, the compiled pattern); v: CSR values of L\U.
   Returns -1 on success, k on a zero pivot in row k. */
int ilu0_factor(const double *restrict ax, double *restrict v) {
#pragma GCC ivdep
  for (int q = 0; q < rp[N]; q++) v[q] = ax[cmap[q]];
  for (int i = 0; i < N; i++) pos[i] = -1;
  for (int i = 0; i < N; i++) {
    for (int p = rp[i]; p < rp[i + 1]; p++) pos[ci[p]] = p;
    for (int p = rp[i]; p < rp[i + 1]; p++) {
      int k = ci[p];
      if (k < i) {
        double piv = v[dg[k]];
        if (piv == 0.0) return k;
        double lik = v[p] / piv;
        v[p] = lik;
        /* pos[] positions within a row are distinct: the scatter is safe */
#pragma GCC ivdep
        for (int q = dg[k] + 1; q < rp[k + 1]; q++)
          if (pos[ci[q]] >= 0) v[pos[ci[q]]] -= lik * v[q];
      }
    }
    for (int p = rp[i]; p < rp[i + 1]; p++) pos[ci[p]] = -1;
  }
  return -1;
}
|};
  Buffer.contents buf
