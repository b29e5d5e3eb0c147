open Ast

(* C code generation: the final lowering stage. Compile-time constant
   arrays (matrix pattern, inspection sets) are emitted as static tables
   decoded at load time ([C_table]), so the generated file is
   self-contained, specialized to one sparsity structure, and its function
   manipulates numeric values only. *)

let binop_str = function Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/"

let rec expr buf e =
  match e with
  | Int_lit i -> Buffer.add_string buf (string_of_int i)
  | Float_lit f -> Buffer.add_string buf (Printf.sprintf "%.17g" f)
  | Var x -> Buffer.add_string buf x
  | Idx (a, i) | Load (a, i) ->
      Buffer.add_string buf a;
      Buffer.add_char buf '[';
      expr buf i;
      Buffer.add_char buf ']'
  | Binop (op, a, b) ->
      Buffer.add_char buf '(';
      expr buf a;
      Buffer.add_string buf (Printf.sprintf " %s " (binop_str op));
      expr buf b;
      Buffer.add_char buf ')'
  | Sqrt a ->
      Buffer.add_string buf "sqrt(";
      expr buf a;
      Buffer.add_char buf ')'

let expr_str e =
  let buf = Buffer.create 32 in
  expr buf e;
  Buffer.contents buf

let lvalue_str = function
  | Scalar x -> x
  | Arr (a, i) -> Printf.sprintf "%s[%s]" a (expr_str i)

let indent buf n = Buffer.add_string buf (String.make (2 * n) ' ')

(* The AST has flat scoping (a Let rebinds globally, like the interpreter's
   environment), so every scalar — Let-bound temporaries and loop indices —
   is declared once at the top of the C function and assigned thereafter. *)
let rec collect_scalars acc s =
  match s with
  | Let (x, e) ->
      let is_float =
        match e with Load _ | Float_lit _ | Sqrt _ -> true | _ -> false
      in
      if List.mem_assoc x acc then acc else (x, is_float) :: acc
  | For l ->
      let acc = if List.mem_assoc l.index acc then acc else (l.index, false) :: acc in
      List.fold_left collect_scalars acc l.body
  | If (_, a, b) -> List.fold_left collect_scalars acc (a @ b)
  | Assign _ | Update _ | Comment _ -> acc

let rec stmt buf lvl s =
  match s with
  | Comment c ->
      indent buf lvl;
      Buffer.add_string buf (Printf.sprintf "/* %s */\n" c)
  | Let (x, e) ->
      indent buf lvl;
      Buffer.add_string buf (Printf.sprintf "%s = %s;\n" x (expr_str e))
  | Assign (lv, e) ->
      indent buf lvl;
      Buffer.add_string buf (Printf.sprintf "%s = %s;\n" (lvalue_str lv) (expr_str e))
  | Update (lv, op, e) ->
      indent buf lvl;
      Buffer.add_string buf
        (Printf.sprintf "%s %s= %s;\n" (lvalue_str lv) (binop_str op) (expr_str e))
  | If (c, a, []) ->
      indent buf lvl;
      Buffer.add_string buf (Printf.sprintf "if (%s) {\n" (expr_str c));
      List.iter (stmt buf (lvl + 1)) a;
      indent buf lvl;
      Buffer.add_string buf "}\n"
  | If (c, a, b) ->
      indent buf lvl;
      Buffer.add_string buf (Printf.sprintf "if (%s) {\n" (expr_str c));
      List.iter (stmt buf (lvl + 1)) a;
      indent buf lvl;
      Buffer.add_string buf "} else {\n";
      List.iter (stmt buf (lvl + 1)) b;
      indent buf lvl;
      Buffer.add_string buf "}\n"
  | For l ->
      if List.mem Vectorize l.annots then begin
        indent buf lvl;
        Buffer.add_string buf "#pragma GCC ivdep\n"
      end;
      indent buf lvl;
      let ix = l.index in
      Buffer.add_string buf
        (Printf.sprintf "for (%s = %s; %s < %s; %s++) {\n" ix (expr_str l.lo)
           ix (expr_str l.hi) ix);
      List.iter (stmt buf (lvl + 1)) l.body;
      indent buf lvl;
      Buffer.add_string buf "}\n"

let ty_str = function
  | Int -> "int"
  | Float -> "double"
  | Int_array -> "int *"
  | Float_array -> "double *"

(* Emit the kernel as a self-contained C translation unit. *)
let kernel_to_c (k : kernel) : string =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "#include <math.h>\n\n";
  Buffer.add_string buf
    (Printf.sprintf "/* %s: generated by Sympiler for a fixed sparsity structure. */\n"
       k.kname);
  Sympiler_sparse.C_table.emit buf k.consts;
  Buffer.add_char buf '\n';
  (* Pointer parameters are [restrict]: the executor never aliases two
     buffers of one kernel, and telling the C compiler so is what lets
     -O3 vectorize the annotated loops. *)
  let param_str (n, t) =
    match t with
    | Int_array | Float_array ->
        Printf.sprintf "%srestrict %s" (ty_str t) n
    | Int | Float -> Printf.sprintf "%s%s" (ty_str t) n
  in
  let params = String.concat ", " (List.map param_str k.params) in
  Buffer.add_string buf (Printf.sprintf "void %s(%s) {\n" k.kname params);
  let scalars = List.rev (List.fold_left collect_scalars [] k.body) in
  let ints = List.filter_map (fun (x, f) -> if f then None else Some x) scalars in
  let floats = List.filter_map (fun (x, f) -> if f then Some x else None) scalars in
  if ints <> [] then
    Buffer.add_string buf (Printf.sprintf "  int %s;\n" (String.concat ", " ints));
  if floats <> [] then
    Buffer.add_string buf
      (Printf.sprintf "  double %s;\n" (String.concat ", " floats));
  List.iter (stmt buf 1) k.body;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
