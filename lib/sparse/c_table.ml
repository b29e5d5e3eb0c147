(* Static integer tables of an emitted C translation unit, as compact
   string literals decoded at load time instead of initializer lists the C
   compiler has to parse (see the interface). Encoding of one table: each
   value minus its predecessor (the first minus 0), zigzag-mapped to an
   unsigned integer, written as LEB128 varints (7 bits per byte, high bit
   = more bytes follow), the byte stream written as base64 without
   padding. Sorted patterns and offset arrays have small deltas, so most
   entries take one byte. *)

let alphabet =
  "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"

let int32_min = -0x8000_0000
let int32_max = 0x7fff_ffff

let encode name (a : int array) : string =
  let out = Buffer.create ((Array.length a * 4 / 3) + 4) in
  (* base64: [acc] holds [bits] not-yet-written low bits *)
  let acc = ref 0 and bits = ref 0 in
  let byte b =
    acc := (!acc lsl 8) lor b;
    bits := !bits + 8;
    while !bits >= 6 do
      bits := !bits - 6;
      Buffer.add_char out alphabet.[(!acc lsr !bits) land 63]
    done;
    acc := !acc land ((1 lsl !bits) - 1)
  in
  let prev = ref 0 in
  Array.iter
    (fun v ->
      if v < int32_min || v > int32_max then
        invalid_arg
          (Printf.sprintf "C_table.emit: %s holds %d, outside C int" name v);
      let d = v - !prev in
      prev := v;
      let z = ref (if d >= 0 then 2 * d else (-2 * d) - 1) in
      while !z >= 0x80 do
        byte (0x80 lor (!z land 0x7f));
        z := !z lsr 7
      done;
      byte !z)
    a;
  if !bits > 0 then Buffer.add_char out alphabet.[(!acc lsl (6 - !bits)) land 63];
  Buffer.contents out

(* The C mirror of [encode]: base64 digit -> byte -> varint -> delta. *)
let decoder =
  {|static void sympiler_table_decode(int *dst, int n, const char *s) {
  unsigned acc = 0, bits = 0, shift = 0, k = 0;
  unsigned long long z = 0;
  long long v = 0;
  for (; k < (unsigned)n && *s; s++) {
    int c = *s;
    acc = (acc << 6) | (unsigned)(c >= 'a' ? c - 'a' + 26 : c >= 'A' ? c - 'A'
                                  : c >= '0' ? c - '0' + 52 : c == '+' ? 62 : 63);
    bits += 6;
    if (bits < 8) continue;
    bits -= 8;
    unsigned b = (acc >> bits) & 255u;
    z |= (unsigned long long)(b & 127u) << shift;
    shift += 7;
    if (b & 128u) continue;
    v += (long long)(z >> 1) ^ -(long long)(z & 1);
    dst[k++] = (int)v;
    z = 0;
    shift = 0;
  }
}
|}

(* Literal chunk per source line: the wrapping keeps lines bounded for
   line-based tools; at this width its quoting adds under 1% to the bytes. *)
let line = 1024

let emit buf tables =
  if tables <> [] then begin
    (* name -> earlier table with equal contents, if any *)
    let firsts = ref [] in
    let decoded =
      List.filter_map
        (fun (name, a) ->
          match List.find_opt (fun (_, b) -> a = b) !firsts with
          | Some (first, _) ->
              Printf.bprintf buf "#define %s %s\n" name first;
              None
          | None ->
              firsts := (name, a) :: !firsts;
              Printf.bprintf buf "static int %s[%d];\n" name
                (max 1 (Array.length a));
              Some (name, a))
        tables
    in
    Buffer.add_string buf decoder;
    Buffer.add_string buf
      "static void sympiler_tables_init(void) __attribute__((constructor));\n\
       static void sympiler_tables_init(void) {\n";
    List.iter
      (fun (name, a) ->
        let s = encode name a in
        Printf.bprintf buf "  sympiler_table_decode(%s, %d,\n" name
          (Array.length a);
        if s = "" then Buffer.add_string buf "    \"\"";
        let len = String.length s in
        let i = ref 0 in
        while !i < len do
          let m = min line (len - !i) in
          if !i > 0 then Buffer.add_char buf '\n';
          Buffer.add_string buf "    \"";
          Buffer.add_substring buf s !i m;
          Buffer.add_char buf '"';
          i := !i + m
        done;
        Buffer.add_string buf ");\n")
      decoded;
    Buffer.add_string buf "}\n"
  end
