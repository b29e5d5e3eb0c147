open Sympiler_sparse

(* The static-table codec of emitted C: tables written by [C_table.emit],
   compiled with the C compiler and decoded by the unit's load-time
   constructor, must read back bitwise-equal to the OCaml arrays, and the
   native buffers the kernels run on must refuse inexact copies. *)

module N = Sympiler.Native
module NE = Sympiler.Native_engine

let cc () = match N.cc () with Some cc -> cc | None -> Alcotest.skip ()

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* The TU [C_table.emit] writes for [tables], plus a [main] printing every
   table element by element under its own name; returns the emitted
   tables part and what the program read back. *)
let round_trip cc (tables : (string * int array) list) =
  let buf = Buffer.create 4096 in
  C_table.emit buf tables;
  let emitted = Buffer.contents buf in
  Buffer.add_string buf "#include <stdio.h>\nint main(void) {\n";
  List.iter
    (fun (name, a) ->
      Printf.bprintf buf
        "  for (int i = 0; i < %d; i++) printf(\"%%d\\n\", %s[i]);\n"
        (Array.length a) name)
    tables;
  Buffer.add_string buf "  return 0;\n}\n";
  Helpers.with_temp_dir (fun dir ->
      let cfile = Filename.concat dir "tables.c" in
      let exe = Filename.concat dir "tables" in
      Out_channel.with_open_text cfile (fun oc ->
          Out_channel.output_string oc (Buffer.contents buf));
      let rc =
        Sys.command
          (Printf.sprintf "%s -O1 -o %s %s 2>/dev/null" (Filename.quote cc)
             (Filename.quote exe) (Filename.quote cfile))
      in
      Alcotest.(check int) "tables compile" 0 rc;
      let ic = Unix.open_process_in (Filename.quote exe) in
      let decoded =
        List.map
          (fun (name, a) ->
            let read _ = int_of_string (input_line ic) in
            (name, Array.init (Array.length a) read))
          tables
      in
      ignore (Unix.close_process_in ic);
      (emitted, decoded))

let check_decoded tables decoded =
  List.iter2
    (fun (name, a) (_, d) -> Alcotest.(check (array int)) name a d)
    tables decoded

let max32 = 0x7fff_ffff
let min32 = -0x8000_0000

let test_edge_tables () =
  let cc = cc () in
  let tables =
    [
      ("empty", [||]);
      ("zero", [| 0 |]);
      ("neg", [| -1; -2; -3; -100000; -7 |]);
      ("extremes", [| max32; -max32; max32; min32; max32; 0; min32 |]);
      ("jumps", [| 0; 1 lsl 30; 5; max32; -(1 lsl 30); 63; 64; 127; 128 |]);
      ("sorted", Array.init 300 (fun i -> i * 3));
      ("empty2", [||]);
      ("neg_again", [| -1; -2; -3; -100000; -7 |]);
    ]
  in
  let emitted, decoded = round_trip cc tables in
  check_decoded tables decoded;
  (* equal contents share the first table's storage *)
  Alcotest.(check bool) "empty table aliased" true
    (contains emitted "#define empty2 empty\n");
  Alcotest.(check bool) "duplicate aliased" true
    (contains emitted "#define neg_again neg\n");
  Alcotest.(check bool) "no storage for an alias" false
    (contains emitted "static int neg_again[");
  Alcotest.(check bool) "empty table still has storage" true
    (contains emitted "static int empty[1];")

let test_out_of_range () =
  let raises a =
    try
      C_table.emit (Buffer.create 16) [ ("t", a) ];
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "2^31 rejected" true (raises [| max32 + 1 |]);
  Alcotest.(check bool) "-2^31-1 rejected" true (raises [| 0; min32 - 1 |]);
  Alcotest.(check bool) "int32 range accepted" false (raises [| min32; max32 |]);
  let buf = Buffer.create 16 in
  C_table.emit buf [];
  Alcotest.(check int) "no tables, no text" 0 (Buffer.length buf)

(* Random tables: short arrays whose values mix small steps, full-range
   int32 values and large jumps, some of them repeats of an earlier table. *)
let gen_tables =
  let open QCheck.Gen in
  let value =
    frequency
      [
        (4, int_range (-40) 40);
        (2, int_range (-1_000_000) 1_000_000);
        (1, int_range min32 max32);
        (1, oneofl [ min32; max32; -max32; 0 ]);
      ]
  in
  let table = array_size (int_range 0 40) value in
  let* k = int_range 1 8 in
  let* ts = list_repeat k table in
  let* reuse = list_repeat k (int_range 0 3) in
  (* one table in four repeats the first one *)
  let ts =
    List.mapi (fun i (t, r) -> if i > 0 && r = 0 then List.hd ts else t)
      (List.combine ts reuse)
  in
  return (List.mapi (fun i t -> (Printf.sprintf "t%d" i, t)) ts)

let arb_tables =
  QCheck.make gen_tables ~print:(fun ts ->
      String.concat "; "
        (List.map
           (fun (name, a) ->
             Printf.sprintf "%s=[%s]" name
               (String.concat "," (Array.to_list (Array.map string_of_int a))))
           ts))

let qcheck_codec =
  let name, speed, law =
    Helpers.qtest ~count:25 "decoded tables equal the originals" arb_tables
      (fun tables ->
        let _, decoded = round_trip (cc ()) tables in
        List.for_all2 (fun (_, a) (_, d) -> a = d) tables decoded)
  in
  (* without a compiler the property cannot run: skip visibly *)
  (name, speed, fun () -> ignore (cc ()); law ())

(* ------------------------ exact native buffers ------------------------ *)

let test_blit_exact () =
  if not (N.available ()) then Alcotest.skip ();
  let al = Csc.lower (Generators.grid2d ~stencil:`Five 4 4) in
  let t =
    Sympiler.Cholesky.compile
      ~opts:(Sympiler.Options.make ~simplicial:true ())
      al
  in
  let pn = Sympiler.Cholesky.plan ~engine:`Native t in
  let e =
    match pn.Sympiler.Cholesky.native with
    | Some e -> e
    | None -> Alcotest.fail "native exec missing"
  in
  let nnz = Csc.nnz al in
  Alcotest.(check int) "buffer has the logical size" nnz
    (Bigarray.Array1.dim e.NE.b0);
  let rejects f = try f (); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "shorter source rejected" true
    (rejects (fun () -> NE.blit_in (Array.make (nnz - 1) 1.0) e.NE.b0));
  Alcotest.(check bool) "longer source rejected" true
    (rejects (fun () -> NE.blit_in (Array.make (nnz + 1) 1.0) e.NE.b0));
  Alcotest.(check bool) "shorter destination rejected" true
    (rejects (fun () ->
         NE.blit_out e.NE.b1 (Array.make (t.Sympiler.Cholesky.nnz_l - 1) 0.0)));
  (* through the facade: values shorter than the pattern used to be
     accepted, factoring the previous call's values in the tail *)
  let short = { al with Csc.values = Array.sub al.Csc.values 0 (nnz - 1) } in
  ignore (Sympiler.Cholesky.execute_ip pn al);
  Alcotest.(check bool) "short values rejected by the native plan" true
    (rejects (fun () -> ignore (Sympiler.Cholesky.execute_ip pn short)));
  let lo = Sympiler.Cholesky.execute_ip (Sympiler.Cholesky.plan t) al in
  let ln = Sympiler.Cholesky.execute_ip pn al in
  Alcotest.(check bool) "plan still factors after the rejection" true
    (Utils.max_rel_diff lo.Csc.values ln.Csc.values <= 1e-15)

(* An empty pattern: the buffers are zero-length views over one element
   of storage, and the kernel still runs. *)
let test_blit_empty () =
  if not (N.available ()) then Alcotest.skip ();
  let al = Csc.lower (Csc.of_dense [||]) in
  let t = Sympiler.Cholesky.compile al in
  let pn = Sympiler.Cholesky.plan ~engine:`Native t in
  match pn.Sympiler.Cholesky.native with
  | None -> Alcotest.fail "native exec missing"
  | Some e ->
      Alcotest.(check int) "zero-length buffer" 0 (Bigarray.Array1.dim e.NE.b0);
      let l = Sympiler.Cholesky.execute_ip pn al in
      Alcotest.(check int) "empty factor" 0 (Csc.nnz l)

(* -------------------------- native cache keys -------------------------- *)

(* Two handles of one pattern compiled with different supernode width caps
   emit different schedules; the native cache must tell them apart. *)
let test_max_width_keys () =
  if not (N.available ()) then Alcotest.skip ();
  Helpers.with_temp_dir (fun dir ->
      Unix.putenv "SYMPILER_NATIVE_CACHE" dir;
      Fun.protect
        ~finally:(fun () -> Unix.putenv "SYMPILER_NATIVE_CACHE" "")
        (fun () ->
          N.clear_memory_cache ();
          N.reset_stats ();
          let al =
            Csc.lower
              (Generators.block_tridiagonal ~seed:4 ~nblocks:5 ~block:6 ())
          in
          let compile w =
            Sympiler.Cholesky.compile
              ~opts:
                (Sympiler.Options.make ~vs_block_threshold:0.0 ~max_width:w ())
              al
          in
          let t2 = compile 2 and t4 = compile 4 in
          let so t =
            let p = Sympiler.Cholesky.plan ~engine:`Native t in
            match p.Sympiler.Cholesky.native with
            | Some e -> e.NE.nk.N.so_path
            | None -> Alcotest.fail "native exec missing"
          in
          let so2 = so t2 and so4 = so t4 in
          Alcotest.(check bool) "different emitted C" true
            (Sympiler.Cholesky.c_code t2 <> Sympiler.Cholesky.c_code t4);
          Alcotest.(check bool) "different cache keys" true (so2 <> so4);
          Alcotest.(check int) "each handle compiled" 2 (N.stats ()).N.compiles;
          Alcotest.(check string) "same handle, same key" so2 (so t2)))

let suite =
  [
    ("edge tables round-trip", `Slow, test_edge_tables);
    ("out-of-range values rejected", `Quick, test_out_of_range);
    qcheck_codec;
    ("native blits need exact lengths", `Slow, test_blit_exact);
    ("native empty pattern", `Slow, test_blit_empty);
    ("max_width keys differ", `Slow, test_max_width_keys);
  ]
