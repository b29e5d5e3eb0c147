(* The benchmark's own tracer: spans recorded around the calls the
   benchmark makes into each layer, kept in memory and written out when the
   run ends. The library's Trace/Metrics/Prof stay disabled, so the program
   being measured is the same in traced and untraced runs. While [on] is
   false, [span] costs one bool load plus the call, and [span2] (for calls
   inside timed loops) does not build a closure either.

   Per-name totals and per-layer self times are accumulated as spans end;
   only the first [max_kept] spans are kept for the written trace, so a
   long traced run stays small. *)

type t = {
  id : int;
  name : string;  (** "<layer>.<call>", e.g. "kernels.factor.native" *)
  t0 : float;
  t1 : float;
  parent : int;  (** id of the enclosing span, -1 at the root *)
}

type frame = { f_id : int; f_name : string; mutable child : float }

let on = ref false
let now = Sympiler_prof.Prof.now_seconds
let max_kept = 100_000
let next_id = ref 0
let stack : frame list ref = ref []
let kept : t list ref = ref []
let totals : (string, float * int) Hashtbl.t = Hashtbl.create 32
let self : (string, float) Hashtbl.t = Hashtbl.create 8

(* Spans under this root name are the traced steps whose self times are
   reported per layer. A step's spans belong to these layers only (steps
   reuse their set-up's plans); the sweep times the calls of the sparse,
   symbolic, core, ir and native layers on their own. *)
let step_root = "bench.step"
let step_layers = [ "kernels"; "bench" ]
let steps = ref 0

let layer_of name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

let finish fr t0 =
  let t1 = now () in
  let d = t1 -. t0 in
  stack := List.tl !stack;
  let parent =
    match !stack with
    | p :: _ ->
        p.child <- p.child +. d;
        p.f_id
    | [] -> -1
  in
  let s, c =
    Option.value (Hashtbl.find_opt totals fr.f_name) ~default:(0.0, 0)
  in
  Hashtbl.replace totals fr.f_name (s +. d, c + 1);
  let root =
    match List.rev !stack with r :: _ -> r.f_name | [] -> fr.f_name
  in
  if root = step_root then begin
    let l = layer_of fr.f_name in
    Hashtbl.replace self l
      (d -. fr.child +. Option.value (Hashtbl.find_opt self l) ~default:0.0);
    if parent = -1 then incr steps
  end;
  if fr.f_id < max_kept then
    kept := { id = fr.f_id; name = fr.f_name; t0; t1; parent } :: !kept

let span name f =
  if not !on then f ()
  else begin
    let fr = { f_id = !next_id; f_name = name; child = 0.0 } in
    incr next_id;
    stack := fr :: !stack;
    let t0 = now () in
    match f () with
    | r ->
        finish fr t0;
        r
    | exception e ->
        finish fr t0;
        raise e
  end

let span2 name f x y = if !on then span name (fun () -> f x y) else f x y

(* Mean duration (seconds) of the spans called [name]; nan when none. *)
let mean name =
  match Hashtbl.find_opt totals name with
  | Some (s, c) when c > 0 -> s /. float_of_int c
  | _ -> nan

let total name =
  match Hashtbl.find_opt totals name with Some (s, _) -> s | None -> 0.0

(* Self time (seconds) of [layer] per traced step: span time minus the
   time its child spans cover, summed over the traced steps. *)
let self_per_step layer =
  Option.value (Hashtbl.find_opt self layer) ~default:0.0
  /. float_of_int (max 1 !steps)

(* One JSON object per line, times in microseconds from the first span. *)
let write path =
  let spans = List.sort (fun a b -> compare a.id b.id) !kept in
  let base = match spans with s :: _ -> s.t0 | [] -> 0.0 in
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"name\":%S,\"layer\":%S,\"start_us\":%.3f,\"end_us\":%.3f,\"parent\":%d}\n"
            s.id s.name (layer_of s.name)
            ((s.t0 -. base) *. 1e6)
            ((s.t1 -. base) *. 1e6)
            s.parent)
        spans)
