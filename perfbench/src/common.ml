(* Shared plumbing of the benchmark: run isolation, timing statistics,
   seeded inputs, correctness checks and the result record. *)

open Sympiler_sparse
module S = Sympiler
module Native = Sympiler.Native

let now = Sympiler_prof.Prof.now_seconds

(* ------------------------------ statistics ----------------------------- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))

(* Nearest-rank percentile. *)
let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

let mean xs =
  match xs with
  | [] -> nan
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* Peak resident set of this process, from /proc/self/status (kB). *)
let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> nan
        | Some l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %f" (fun kb ->
                kb /. 1024.0)
        | Some _ -> go ()
      in
      go ())

(* ------------------------------ the record ----------------------------- *)

type run = {
  mutable attempted : int;
  mutable failed : int;
  mutable expected_compiles : int;
  mutable metrics : (string * float * string) list;  (** reverse order *)
}

let run = { attempted = 0; failed = 0; expected_compiles = 0; metrics = [] }
let metric name unit v = run.metrics <- (name, v, unit) :: run.metrics

(* Count one checked operation; report and count the failure when [ok] is
   false. *)
let check ok fmt =
  Printf.ksprintf
    (fun msg ->
      run.attempted <- run.attempted + 1;
      if not ok then begin
        run.failed <- run.failed + 1;
        Printf.printf "FAILED: %s\n%!" msg
      end)
    fmt

(* The benchmark's operations are only comparable when every native plan
   was compiled cold exactly where the benchmark meant to, and none
   silently fell back to OCaml: otherwise the whole run is counted failed. *)
let check_native_stats () =
  let st = Native.stats () in
  Printf.printf
    "native: compiles=%d (expected %d) disk_hits=%d memory_hits=%d \
     fallbacks=%d\n"
    st.Native.compiles run.expected_compiles st.Native.disk_hits
    st.Native.memory_hits st.Native.fallbacks;
  if st.Native.compiles <> run.expected_compiles || st.Native.fallbacks > 0
  then begin
    Printf.printf "FAILED: native cache confound; every operation counts failed\n";
    run.failed <- run.attempted
  end;
  st

let print_result () =
  let finite = List.for_all (fun (_, v, _) -> Float.is_finite v) run.metrics in
  if not finite then begin
    List.iter
      (fun (n, v, _) ->
        if not (Float.is_finite v) then Printf.printf "FAILED: %s = %g\n" n v)
      run.metrics;
    run.failed <- run.attempted
  end;
  let ms =
    List.rev_map
      (fun (n, v, u) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n
          (if Float.is_finite v then Printf.sprintf "%.17g" v else "0")
          u)
      run.metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (run.failed = 0 && run.attempted > 0)
    (max 1 run.attempted) run.failed (String.concat ", " ms)

(* ---------------------------- run isolation ---------------------------- *)

(* The run's own native cache directory, read once at start-up. *)
let cache_root =
  match Sys.getenv_opt "SYMPILER_NATIVE_CACHE" with
  | Some d when d <> "" -> d
  | _ ->
      prerr_endline "bench.exe: SYMPILER_NATIVE_CACHE must name the run's cache";
      exit 2

let n_cold = ref 0

(* Before a cold set-up: a fresh, empty native cache directory (through
   SYMPILER_NATIVE_CACHE), an empty in-process kernel table, empty family
   plan caches, and a collected heap, so every set-up starts from the same
   state whatever ran before it. [natives] is the number of native plans
   the set-up will compile. *)
let cold ~natives =
  Gc.full_major ();
  incr n_cold;
  let dir = Filename.concat cache_root (Printf.sprintf "cold%03d" !n_cold) in
  Unix.putenv "SYMPILER_NATIVE_CACHE" dir;
  Native.clear_memory_cache ();
  S.Cholesky.cache_clear ();
  S.Pipeline.cache_clear ();
  run.expected_compiles <- run.expected_compiles + natives

(* ------------------------------- inputs -------------------------------- *)

(* New SPD values on a fixed lower pattern, written into [dst] (a matrix
   with [al]'s pattern): [alpha * A + D] with alpha in [0.5, 2] and a
   nonnegative diagonal D up to half of A's diagonal — the shape of a
   time-stepped [M / dt + K] system. Every stored value changes; the result
   stays SPD whenever [A] is. Inputs are written in place so the measured
   loop allocates nothing. *)
let transient_values rng (al : Csc.t) (dst : Csc.t) =
  let alpha = Utils.Rng.float_range rng 0.5 2.0 in
  for j = 0 to al.Csc.ncols - 1 do
    for q = al.Csc.colptr.(j) to al.Csc.colptr.(j + 1) - 1 do
      let v = alpha *. al.Csc.values.(q) in
      dst.Csc.values.(q) <-
        (if al.Csc.rowind.(q) = j then
           v +. Utils.Rng.float_range rng 0.0 (0.5 *. Float.abs al.Csc.values.(q))
         else v)
    done
  done

let fill_random rng (x : float array) =
  Array.iteri (fun i _ -> x.(i) <- Utils.Rng.float_range rng (-1.0) 1.0) x

let random_vector rng n =
  let x = Array.make n 0.0 in
  fill_random rng x;
  x

(* ------------------------------- checks -------------------------------- *)

(* y <- A x for the symmetric A stored as its lower triangle. *)
let sym_spmv_into (al : Csc.t) (x : float array) (y : float array) =
  Array.fill y 0 (Array.length y) 0.0;
  for j = 0 to al.Csc.ncols - 1 do
    for q = al.Csc.colptr.(j) to al.Csc.colptr.(j + 1) - 1 do
      let i = al.Csc.rowind.(q) and v = al.Csc.values.(q) in
      y.(i) <- y.(i) +. (v *. x.(j));
      if i <> j then y.(j) <- y.(j) +. (v *. x.(i))
    done
  done

let sym_spmv al x =
  let y = Array.make al.Csc.ncols 0.0 in
  sym_spmv_into al x y;
  y

(* ||b - y|| / ||b|| where y is A x (or any computed image of x). *)
let rel_residual ~b y =
  let r = ref 0.0 and nb = ref 0.0 in
  Array.iteri
    (fun i bi ->
      let d = bi -. y.(i) in
      r := !r +. (d *. d);
      nb := !nb +. (bi *. bi))
    b;
  sqrt !r /. sqrt !nb

(* Solve A x = b in place with a natural-order Cholesky plan's factor. *)
let plan_solve (p : S.Cholesky.plan) (x : float array) =
  Sympiler_kernels.Stages.solve_pair_ip (S.Cholesky.plan_factor p) x

(* ---------------------------- step sampling ---------------------------- *)

(* Print a step-time summary line (10th percentile, median, p99, sample
   count) and return the 10th percentile, in ms. *)
let report_steps label samples =
  let ms = List.map (fun s -> s *. 1e3) samples in
  let p10 = percentile 0.10 ms in
  Printf.printf "%s: p10 %.4f ms, median %.4f ms, p99 %.4f ms, n=%d\n" label
    p10 (median ms) (percentile 0.99 ms) (List.length ms);
  p10
