(* Per-layer calls made from the benchmark's own code: the layer sweep of
   a traced run, which times each layer's public entry points on a
   workload's own patterns, and the preconditioned CG solver it uses. *)

open Sympiler_sparse
open Sympiler_symbolic
open Sympiler_kernels
open Common
module Pl = Sympiler.Pipeline

(* ------------------------------ PCG solver ----------------------------- *)

type cg = {
  x : float array;
  r : float array;
  p : float array;
  ap : float array;
}

let cg_workspace n =
  {
    x = Array.make n 0.0;
    r = Array.make n 0.0;
    p = Array.make n 0.0;
    ap = Array.make n 0.0;
  }

let tol = 1e-8
let max_iters = 1000

(* PCG on the full SPD [a] with the preconditioner [apply] (a pipeline's
   fused L/L^T apply, returning its plan-owned buffer). Solves into [w.x]
   until |r|/|b| <= tol; returns (iterations, converged). *)
let pcg ~apply (a : Csc.t) (b : float array) (w : cg) =
  let n = Array.length b in
  Array.fill w.x 0 n 0.0;
  Array.blit b 0 w.r 0 n;
  let z0 = Spans.span "core.pipeline.apply" (fun () -> apply w.r) in
  Array.blit z0 0 w.p 0 n;
  let rz = ref (Stages.dot w.r z0) in
  let b_norm = sqrt (Stages.dot b b) in
  let it = ref 0 in
  while sqrt (Stages.dot w.r w.r) /. b_norm > tol && !it < max_iters do
    Spans.span "kernels.spmv" (fun () -> Stages.spmv_into a w.p w.ap);
    let alpha = !rz /. Stages.dot w.p w.ap in
    Stages.axpy2_ip ~alpha w.p w.ap w.x w.r;
    let z = Spans.span "core.pipeline.apply" (fun () -> apply w.r) in
    let rz' = Stages.dot w.r z in
    let beta = rz' /. !rz in
    rz := rz';
    for i = 0 to n - 1 do
      w.p.(i) <- z.(i) +. (beta *. w.p.(i))
    done;
    incr it
  done;
  (!it, sqrt (Stages.dot w.r w.r) /. b_norm <= tol)

(* ------------------------------ native load ----------------------------- *)

(* The native layer's load of a handle's emitted C, with exactly the
   arguments [Cholesky.plan ~engine:`Native] passes, so a plan made after
   it is served from the in-process kernel table. *)
let native_load (t : S.Cholesky.t) (source : string) =
  let n = t.S.Cholesky.pattern.Csc.ncols in
  let kname, nargs, fsize =
    match t.S.Cholesky.supernodal with
    | Some _ -> ("cholesky_supernodal", 2, 0)
    | None -> ("cholesky", 3, n)
  in
  S.Native_engine.load ~mode:S.Native_engine.Vec
    ~pattern_key:(Csc.pattern_hash t.S.Cholesky.pattern)
    ~family:"cholesky" ~kname ~nargs ~int_return:false
    ~sizes:[| Csc.nnz t.S.Cholesky.pattern; t.S.Cholesky.nnz_l; fsize |]
    source

let origin_is o = function
  | Some e -> e.S.Native_engine.nk.Native.origin = o
  | None -> false

(* ------------------------------ factor calls ---------------------------- *)

(* Flops of the factorizations run inside each factor span, for GFLOP/s. *)
let factor_flops : (string, float) Hashtbl.t = Hashtbl.create 4

(* [Cholesky.execute_ip] in a span called [name], its flops accounted. *)
let factor name (p : S.Cholesky.plan) (a : Csc.t) =
  if !Spans.on then
    Hashtbl.replace factor_flops name
      (p.S.Cholesky.handle.S.Cholesky.flops
      +. Option.value (Hashtbl.find_opt factor_flops name) ~default:0.0);
  ignore (Spans.span name (fun () -> S.Cholesky.execute_ip p a))

(* --------------------------------- sweep -------------------------------- *)

type pattern = {
  label : string;
  al : Csc.t;  (** lower(A), SPD values, compiled in its own order *)
  family : Pl.family;  (** the pipeline the sweep compiles *)
}

type counts = {
  mutable nnz_l : int;
  mutable widths : float list;
  mutable c_bytes_per_nnz_l : float list;
  mutable path_lens : int list;
  mutable iters : int;
}

let counts =
  { nnz_l = 0; widths = []; c_bytes_per_nnz_l = []; path_lens = []; iters = 0 }

(* In-pattern rank-1 vectors: a column of lower(A) [pat] (its rows form a
   clique of the filled graph, so no update escalates). Vector [s] takes a
   column of the [s]-th of [k] equal slices, so the mix of etree path
   lengths, and with it the work, is the same for every seed. Returns
   (w, its column). *)
let update_vectors rng (pat : Csc.t) k =
  let n = pat.Csc.ncols in
  List.init k (fun s ->
      let lo = s * n / k and hi = (s + 1) * n / k in
      let jc = lo + Utils.Rng.int rng (max 1 (hi - lo)) in
      let idx =
        Array.init
          (pat.Csc.colptr.(jc + 1) - pat.Csc.colptr.(jc))
          (fun q -> pat.Csc.rowind.(pat.Csc.colptr.(jc) + q))
      in
      Array.sort compare idx;
      let values =
        Array.map (fun _ -> Utils.Rng.float_range rng (-0.5) 0.5) idx
      in
      ({ Vector.n; indices = idx; values }, jc))

(* One pass over every layer's public calls on one pattern, each in its
   own span, with the results checked. *)
let sweep rng (pt : pattern) =
  let al = pt.al in
  let n = al.Csc.ncols in
  let full = Csc.symmetrize_from_lower al in
  ignore (Spans.span "sparse.amd" (fun () -> Ordering.amd full));
  let parent = Spans.span "symbolic.etree" (fun () -> Etree.compute al) in
  let fill = Spans.span "symbolic.fill" (fun () -> Fill_pattern.analyze al) in
  check
    (parent = fill.Fill_pattern.parent)
    "%s: etree agrees with the fill analysis" pt.label;
  let sn =
    Spans.span "symbolic.supernodes" (fun () ->
        Supernodes.detect_etree ~counts:fill.Fill_pattern.counts
          ~parent:fill.Fill_pattern.parent ())
  in
  counts.nnz_l <- counts.nnz_l + Fill_pattern.nnz_l fill;
  counts.widths <- Supernodes.avg_width sn :: counts.widths;
  cold ~natives:1;
  let t = Spans.span "core.compile" (fun () -> S.Cholesky.compile al) in
  let src = Spans.span "ir.emit" (fun () -> S.Cholesky.c_code t) in
  counts.c_bytes_per_nnz_l <-
    (float_of_int (String.length src) /. float_of_int t.S.Cholesky.nnz_l)
    :: counts.c_bytes_per_nnz_l;
  let k1 = Spans.span "native.cc" (fun () -> native_load t src) in
  Native.clear_memory_cache ();
  let k2 = Spans.span "native.dlopen" (fun () -> native_load t src) in
  check
    (origin_is Native.Compiled k1 && origin_is Native.Disk_cache k2)
    "%s: cold load compiles, reload after clearing memory hits disk" pt.label;
  let po = Spans.span "core.plan" (fun () -> S.Cholesky.plan t) in
  let pn =
    Spans.span "native.plan" (fun () -> S.Cholesky.plan ~engine:`Native t)
  in
  for _ = 1 to 3 do
    factor "kernels.factor.native" pn al;
    factor "kernels.factor.ocaml" po al
  done;
  check
    (Utils.max_rel_diff (S.Cholesky.plan_factor pn).Csc.values
       (S.Cholesky.plan_factor po).Csc.values
    <= 1e-15)
    "%s: native factor matches the OCaml factor" pt.label;
  let b = random_vector rng n in
  let x = Array.copy b in
  Spans.span "kernels.solve" (fun () -> plan_solve po x);
  check (rel_residual ~b (sym_spmv al x) <= 1e-10) "%s: solve residual" pt.label;
  let y = Array.make n 0.0 in
  for _ = 1 to 10 do
    Spans.span "kernels.spmv" (fun () -> Stages.spmv_into full x y)
  done;
  (* Rank-1 updates, then downdates in reverse: the factor must return to
     the factor of A. *)
  let cparent = Etree.compute t.S.Cholesky.pattern in
  let ws =
    update_vectors rng t.S.Cholesky.pattern 8
  in
  List.iter
    (fun (w, jc) ->
      Spans.span "kernels.update" (fun () -> S.Cholesky.update_ip po w);
      counts.path_lens <-
        Array.length (Etree.path_to_root cparent jc) :: counts.path_lens)
    ws;
  List.iter
    (fun (w, _) ->
      Spans.span "kernels.downdate" (fun () -> S.Cholesky.downdate_ip po w))
    (List.rev ws);
  let fresh = S.Cholesky.factor t al in
  check
    (po.S.Cholesky.esc_map = None
    && Utils.max_rel_diff fresh.Csc.values
         (S.Cholesky.plan_factor po).Csc.values
       <= 1e-10)
    "%s: update/downdate round trip" pt.label;
  (* The fused factor+solve pipeline as the preconditioner of CG. *)
  let pl =
    Spans.span "core.pipeline.compile" (fun () ->
        Pl.compile (Pl.factor_solve pt.family) al)
  in
  let pp = Pl.plan pl in
  Spans.span "core.pipeline.factor" (fun () -> Pl.factor_ip pp al);
  let iters, converged =
    pcg ~apply:(Pl.execute_ip pp) full b
      (cg_workspace n)
  in
  counts.iters <- counts.iters + iters;
  check converged "%s: pipeline-preconditioned CG converges" pt.label

(* Per-call times are means over every span of the name: a workload may
   alternate calls on patterns of different sizes. *)
let ms name = Spans.mean name *. 1e3
let us name = Spans.mean name *. 1e6

(* Every per-layer metric, from the spans of the traced run.
   [sweep_compiles] is the C compiler runs of the sweep alone: unlike the
   run's total, it does not depend on how many steps fit in the run. *)
let report ~overhead ~sweep_compiles =
  let gflops name =
    Option.value (Hashtbl.find_opt factor_flops name) ~default:nan
    /. Spans.total name /. 1e9
  in
  let st = Native.stats () in
  metric "sparse.amd_ms" "ms" (ms "sparse.amd");
  metric "symbolic.etree_ms" "ms" (ms "symbolic.etree");
  metric "symbolic.fill_ms" "ms" (ms "symbolic.fill");
  metric "symbolic.supernodes_ms" "ms" (ms "symbolic.supernodes");
  metric "symbolic.nnz_l" "count" (float_of_int counts.nnz_l);
  metric "symbolic.avg_width" "cols" (mean counts.widths);
  metric "core.compile_ms" "ms" (ms "core.compile");
  metric "core.plan_ms" "ms" (ms "core.plan");
  metric "core.pipeline.apply_us" "us" (us "core.pipeline.apply");
  metric "core.pipeline.factor_ms" "ms" (ms "core.pipeline.factor");
  metric "core.pipeline.iters" "count" (float_of_int counts.iters);
  metric "ir.emit_ms" "ms" (ms "ir.emit");
  metric "ir.c_bytes_per_nnz_l" "B/nnz" (mean counts.c_bytes_per_nnz_l);
  metric "native.cc_ms" "ms" (ms "native.cc");
  metric "native.dlopen_ms" "ms" (ms "native.dlopen");
  metric "native.compiles" "count" (float_of_int sweep_compiles);
  metric "native.fallbacks" "count" (float_of_int st.Native.fallbacks);
  metric "kernels.factor_ms.native" "ms" (ms "kernels.factor.native");
  metric "kernels.factor_ms.ocaml" "ms" (ms "kernels.factor.ocaml");
  metric "kernels.gflops.native" "GFLOP/s" (gflops "kernels.factor.native");
  metric "kernels.gflops.ocaml" "GFLOP/s" (gflops "kernels.factor.ocaml");
  metric "kernels.solve_ms" "ms" (ms "kernels.solve");
  metric "kernels.spmv_us" "us" (us "kernels.spmv");
  metric "kernels.update_us" "us" (us "kernels.update");
  metric "kernels.downdate_us" "us" (us "kernels.downdate");
  metric "kernels.path_len" "count"
    (mean (List.map float_of_int counts.path_lens));
  List.iter
    (fun layer ->
      metric
        (Printf.sprintf "self_ms.%s" layer)
        "ms"
        (Spans.self_per_step layer *. 1e3))
    Spans.step_layers;
  metric "bench.trace_overhead_frac" "ratio" overhead
