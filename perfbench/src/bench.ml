(* The repository benchmark: two seeded, closed-loop workloads (one
   caller, one process, one OCaml domain, no pool workers) over the public
   facade, timed end to end, plus a traced mode that times each layer.

     bench.exe --workload transient|activeset --seed N
               --seconds S --trace 0|1 [--spans FILE]

   SYMPILER_NATIVE_CACHE must name an empty directory of the run's own
   (run.py makes one); each cold set-up uses a fresh subdirectory of it.

   The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
   See README.md for the workloads and the metrics. *)

open Sympiler_sparse
open Sympiler_kernels
open Common
module Ch = Sympiler.Cholesky

(* A workload: a cold set-up producing the step state, one step, and the
   patterns its traced run sweeps. A step returns its timed segments
   [| main engine; all-OCaml |] (seconds) and the check to run once the timers have stopped. *)
type 'st spec = {
  setups : int;
      (** slices per round, each starting with cold set-ups (repeated when
          cheap) *)
  natives : int;  (** native plans one set-up compiles *)
  setup : unit -> 'st;  (** one set-up, after {!Common.cold} *)
  warmup : int;  (** untimed steps after each cold set-up *)
  step : 'st -> int -> float array * (unit -> unit);
  c_bytes : 'st -> float;  (** emitted C of a set-up *)
  patterns : 'st -> Layers.pattern list;
  finish : 'st -> unit;  (** end-of-run checks *)
}

(* Add the wall time of [f] to [acc]. *)
let timed acc f =
  let t0 = now () in
  f ();
  acc := !acc +. (now () -. t0)

(* ------------------------------- transient ----------------------------- *)

(* Fixed patterns, new values every step: two prepared Table 2 problems,
   refactored in place and solved on a native and an OCaml plan. *)
type tproblem = {
  al : Csc.t;
  a : Csc.t;  (** this step's values on [al]'s pattern *)
  b : float array;
  y : float array;  (** check scratch *)
  t : Ch.t;
  pn : Ch.plan;
  po : Ch.plan;
  xn : float array;
  xo : float array;
}

let transient rng : tproblem list spec =
  let problems =
    List.map Generators.problem_by_name [ "msc23052"; "parabolic_fem" ]
  in
  List.iter (fun p -> ignore (Lazy.force p.Generators.matrix)) problems;
  let setup () =
    List.map
      (fun gp ->
        let al = (Sympiler.Suite.prepare gp).Sympiler.Suite.a_lower in
        let t = Ch.compile al in
        let pn = Ch.plan ~engine:`Native t and po = Ch.plan t in
        ignore (Ch.execute_ip pn al);
        ignore (Ch.execute_ip po al);
        let n = al.Csc.ncols in
        {
          al;
          a = { al with Csc.values = Array.copy al.Csc.values };
          b = Array.make n 0.0;
          y = Array.make n 0.0;
          t;
          pn;
          po;
          xn = Array.make n 0.0;
          xo = Array.make n 0.0;
        })
      problems
  in
  let step ps i =
    List.iter
      (fun p ->
        transient_values rng p.al p.a;
        fill_random rng p.b)
      ps;
    let tn = ref 0.0 and to_ = ref 0.0 in
    List.iter
      (fun p ->
        let go plan x acc name =
          Array.blit p.b 0 x 0 (Array.length p.b);
          timed acc (fun () ->
              Layers.factor name plan p.a;
              Spans.span "kernels.solve" (fun () -> plan_solve plan x))
        in
        let native () = go p.pn p.xn tn "kernels.factor.native"
        and ocaml () = go p.po p.xo to_ "kernels.factor.ocaml" in
        if i mod 2 = 0 then (native (); ocaml ()) else (ocaml (); native ()))
      ps;
    let verify () =
      List.iter
        (fun p ->
          let residual x =
            sym_spmv_into p.a x p.y;
            rel_residual ~b:p.b p.y
          in
          check
            (p.pn.Ch.native <> None
            && Utils.max_rel_diff (Ch.plan_factor p.pn).Csc.values
                 (Ch.plan_factor p.po).Csc.values
               <= 1e-15
            && residual p.xn <= 1e-10
            && residual p.xo <= 1e-10)
            "transient step %d, n=%d: native factor = OCaml factor, residuals"
            i p.al.Csc.ncols)
        ps
    in
    ([| !tn; !to_ |], verify)
  in
  {
    setups = 1;
    natives = 2;
    setup;
    warmup = 3;
    step;
    c_bytes =
      (fun ps ->
        float_of_int
          (List.fold_left (fun s p -> s + String.length (Ch.c_code p.t)) 0 ps));
    patterns =
      List.mapi (fun k p ->
          {
            Layers.label = (if k = 0 then "msc23052" else "parabolic_fem");
            al = p.al;
            family = `Cholesky;
          });
    finish = ignore;
  }

(* ------------------------------- activeset ----------------------------- *)

(* One factor kept alive by rank-1 moves: each move adds a constraint
   (update) or drops a live one (downdate), then solves. A sample is a
   batch of moves, far above timer resolution. *)
type astate = { t : Ch.t; p : Ch.plan }

let moves_per_sample = 32
let max_live = 8

(* Closed, so passing them to [Spans.span2] allocates nothing. *)
let update p w = Ch.update_ip p w
let downdate p w = Ch.downdate_ip p w

let activeset ~seed rng : astate spec =
  let a = Generators.clique_chain ~seed ~n:1200 ~clique:24 ~overlap:6 () in
  let al = Csc.lower a in
  let n = al.Csc.ncols in
  let pool =
    Array.of_list
      (List.map fst
         (Layers.update_vectors (Utils.Rng.create (seed + 1)) al 64))
  in
  let live = Array.make (Array.length pool) false in
  let b = Array.make n 0.0 and x = Array.make n 0.0 in
  let y = Array.make n 0.0 in
  (* y <- (A + sum of live w w^T) x *)
  let with_live () =
    sym_spmv_into al x y;
    Array.iteri
      (fun k on ->
        if on then begin
          let w = pool.(k) in
          let d = ref 0.0 in
          let v = w.Vector.values in
          Array.iteri (fun q i -> d := !d +. (v.(q) *. x.(i))) w.Vector.indices;
          Array.iteri (fun q i -> y.(i) <- y.(i) +. (v.(q) *. !d)) w.Vector.indices
        end)
      live
  in
  let setup () =
    let t = Ch.compile al in
    let p = Ch.plan t in
    ignore (Ch.execute_ip p al);
    (* a fresh factor carries no rank-1 terms *)
    Array.fill live 0 (Array.length live) false;
    { t; p }
  in
  (* A random index of [live] whose flag is [flag]. *)
  let rec pick flag =
    let k = Utils.Rng.int rng (Array.length live) in
    if live.(k) = flag then k else pick flag
  in
  let step s i =
    (* Plan the moves (untimed): add while fewer than [max_live] are live
       and a coin says so, otherwise drop a random live one. *)
    let n_live = ref (Array.fold_left (fun c b -> if b then c + 1 else c) 0 live) in
    let moves =
      Array.init moves_per_sample (fun _ ->
          let up =
            !n_live = 0 || (!n_live < max_live && Utils.Rng.float rng < 0.5)
          in
          let k = pick (not up) in
          live.(k) <- up;
          n_live := !n_live + if up then 1 else -1;
          (up, k))
    in
    fill_random rng b;
    let l = Ch.plan_factor s.p in
    let t = ref 0.0 in
    timed t (fun () ->
        Array.iter
          (fun (up, k) ->
            if up then Spans.span2 "kernels.update" update s.p pool.(k)
            else Spans.span2 "kernels.downdate" downdate s.p pool.(k);
            Array.blit b 0 x 0 n;
            Spans.span2 "kernels.solve" Stages.solve_pair_ip l x)
          moves);
    let verify () =
      check
        (s.p.Ch.esc_map = None
        &&
        (with_live ();
         rel_residual ~b y <= 1e-10))
        "activeset sample %d: residual against A + live rank-1 terms" i
    in
    ([| !t; !t |], verify)
  in
  {
    setups = 5;
    natives = 0;
    setup;
    warmup = 3;
    step;
    c_bytes = (fun s -> float_of_int (String.length (Ch.c_code s.t)));
    patterns =
      (fun _ ->
        [
          {
            Layers.label = "clique_chain";
            al;
            family = `Cholesky;
          };
        ]);
    finish =
      (fun s ->
        Array.iteri (fun k on -> if on then Ch.downdate_ip s.p pool.(k)) live;
        let fresh = Ch.factor s.t al in
        let drift =
          Utils.max_rel_diff fresh.Csc.values (Ch.plan_factor s.p).Csc.values
        in
        check
          (s.p.Ch.esc_map = None && drift <= 1e-10)
          "activeset: drift %.3g against a fresh factor after all downdates" drift);
  }

(* -------------------------------- run loop ----------------------------- *)

(* A run in [rounds] rounds of [seconds / rounds] each: a round makes its
   own cold set-ups, warms up untimed, then measures steps. Neighbours on a
   shared machine only ever slow a stretch of the run down, so the run
   reports its least-disturbed share, which is the steadiest measure of the
   program's own speed: setup_s is the 10th percentile of the run's cold
   set-ups, and a step metric the 10th percentile of its measured steps.
   A traced run is one round. *)
let rounds = 5

(* Set-ups that cost little are repeated back to back, up to [setup_reps]
   of them or [setup_budget] seconds, so that setup_s has enough samples
   to find the run's quiet moments. *)
let setup_reps = 20
let setup_budget = 0.05

(* Per-sample fields of the sample store, after the step's segments. *)
let f_warm = 2
let f_traced = 3
let width = 4

let drive (type st) ~seconds ~trace ~sweep_rng (w : st spec) =
  (* Allocated up front, so the peak RSS does not depend on how many steps
     fit in the run. *)
  let store = ref (Float.Array.make (width * 65536) nan) and n = ref 0 in
  let add sample ~warm ~traced =
    if width * (!n + 1) > Float.Array.length !store then begin
      let bigger = Float.Array.make (2 * Float.Array.length !store) nan in
      Float.Array.blit !store 0 bigger 0 (width * !n);
      store := bigger
    end;
    let put k v = Float.Array.set !store ((width * !n) + k) v in
    Array.iteri put sample;
    put f_warm (if warm then 1.0 else 0.0);
    put f_traced (if traced then 1.0 else 0.0);
    incr n
  in
  let field j k = Float.Array.get !store ((width * j) + k) in
  let select k keep =
    List.filter_map
      (fun j -> if keep j then Some (field j k) else None)
      (List.init !n Fun.id)
  in
  let setup_times = ref [] in
  let step_no = ref 0 and sweep_compiles = ref 0 in
  let run_round dur =
    let setup () =
      cold ~natives:w.natives;
      let t0 = now () in
      let s = w.setup () in
      setup_times := (now () -. t0) :: !setup_times;
      s
    in
    let step st ~warm ~traced =
      Spans.on := traced;
      let sample, verify =
        Spans.span Spans.step_root (fun () -> w.step st !step_no)
      in
      Spans.on := false;
      verify ();
      add sample ~warm ~traced;
      incr step_no
    in
    (* The round's set-ups are spread over it: each is followed by its
       untimed warm-up and an equal share of the measured steps. *)
    let slices = w.setups in
    let last = ref None in
    for slice = 1 to slices do
      let t_start = now () in
      let st = ref (setup ()) and reps = ref 1 in
      while
        !reps < setup_reps && now () -. t_start < setup_budget
      do
        st := setup ();
        incr reps
      done;
      let st = !st in
      last := Some st;
      if trace && slice = 1 then begin
        let before = (Native.stats ()).Native.compiles in
        Spans.on := true;
        List.iter (Layers.sweep sweep_rng) (w.patterns st);
        Spans.on := false;
        sweep_compiles := (Native.stats ()).Native.compiles - before
      end;
      for _ = 1 to w.warmup do
        step st ~warm:true ~traced:false
      done;
      let deadline = now () +. (dur /. float_of_int slices) and k = ref 0 in
      (* A traced run needs at least one traced and one untraced step. *)
      while !k < (if trace then 2 else 1) || now () < deadline do
        step st ~warm:false ~traced:(trace && !k mod 2 = 1);
        incr k
      done
    done;
    Option.get !last
  in
  let n_rounds = if trace then 1 else rounds in
  let dur = seconds /. float_of_int n_rounds in
  let st =
    List.fold_left (fun _ _ -> run_round dur) (run_round dur)
      (List.init (n_rounds - 1) Fun.id)
  in
  w.finish st;
  let rss_mb = peak_rss_mb () in
  let measured j = field j f_warm = 0.0 in
  ignore (check_native_stats ());
  if trace then begin
    let traced j = field j f_traced = 1.0 in
    let on = median (select 0 (fun j -> measured j && traced j))
    and off = median (select 0 (fun j -> measured j && not (traced j))) in
    Layers.report ~overhead:((on /. off) -. 1.0) ~sweep_compiles:!sweep_compiles
  end
  else begin
    let setup_s = report_steps "setup_s" !setup_times /. 1e3 in
    let step_ms = report_steps "step_ms" (select 0 measured) in
    let step_ocaml = report_steps "step_ms.ocaml" (select 1 measured) in
    metric "setup_s" "s" setup_s;
    metric "step_ms" "ms" step_ms;
    metric "step_ms.ocaml" "ms" step_ocaml;
    metric "c_bytes" "bytes" (w.c_bytes st);
    metric "rss_mb" "MB" rss_mb
  end

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and spans_out = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " transient|activeset");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " measured seconds");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer");
      ("--spans", Arg.Set_string spans_out, " write the traced spans here");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let rng = Utils.Rng.create !seed in
  let sweep_rng = Utils.Rng.create ((!seed * 7919) + 1) in
  let trace = !trace = 1 and seconds = !seconds in
  (match !workload with
  | "transient" -> drive ~seconds ~trace ~sweep_rng (transient rng)
  | "activeset" -> drive ~seconds ~trace ~sweep_rng (activeset ~seed:!seed rng)
  | w ->
      prerr_endline ("unknown workload: " ^ w);
      exit 2);
  if trace && !spans_out <> "" then Spans.write !spans_out;
  print_result ()
