type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of t_float
  | String of string
  | List of t list
  | Obj of (string * t) list

and t_float = float

let float f = Float f

let opt f = function
  | None -> Null
  | Some v -> f v

let strings ss = List (List.map (fun s -> String s) ss)

let add_escaped buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let escape_string s =
  let buf = Buffer.create (String.length s + 2) in
  add_escaped buf s;
  Buffer.contents buf

(* Shortest representation that is still a JSON number and round-trips
   the float: %.17g is exact but ugly, so try shorter forms first. *)
let add_float buf f =
  if not (Float.is_finite f) then Buffer.add_string buf "null"
  else begin
    let repr =
      let try_prec p =
        let s = Printf.sprintf "%.*g" p f in
        if float_of_string s = f then Some s else None
      in
      match try_prec 12 with
      | Some s -> s
      | None -> (
        match try_prec 15 with
        | Some s -> s
        | None -> Printf.sprintf "%.17g" f)
    in
    Buffer.add_string buf repr;
    (* "1e+06" has no dot but is a valid JSON float; bare integers get
       one so the value reads back as a float. *)
    if String.for_all (fun c -> (c >= '0' && c <= '9') || c = '-') repr then
      Buffer.add_string buf ".0"
  end

let to_buffer ?(pretty = false) buf v =
  let newline depth =
    Buffer.add_char buf '\n';
    for _ = 1 to 2 * depth do
      Buffer.add_char buf ' '
    done
  in
  let rec emit depth v =
    match v with
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> add_float buf f
    | String s -> add_escaped buf s
    | List [] -> Buffer.add_string buf "[]"
    | List items ->
      container depth '[' ']' (List.map (fun item d -> emit d item) items)
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
      container depth '{' '}'
        (List.map
           (fun (k, v) d ->
             add_escaped buf k;
             Buffer.add_string buf (if pretty then ": " else ":");
             emit d v)
           fields)
  and container depth open_c close_c emitters =
    Buffer.add_char buf open_c;
    let inner = depth + 1 in
    if pretty then newline inner;
    List.iteri
      (fun i emit_one ->
        if i > 0 then begin
          Buffer.add_char buf ',';
          if pretty then newline inner
        end;
        emit_one inner)
      emitters;
    if pretty then newline depth;
    Buffer.add_char buf close_c
  in
  emit 0 v

let to_string ?pretty v =
  let buf = Buffer.create 256 in
  to_buffer ?pretty buf v;
  Buffer.contents buf

let to_channel ?pretty oc v =
  output_string oc (to_string ?pretty v);
  output_char oc '\n'

let write_file ?pretty ~path v =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> to_channel ?pretty oc v)

let rec ensure_dir dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    ensure_dir (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* ---- parser ---- *)

exception Parse_error of string

type cursor = { text : string; mutable pos : int }

let fail cur msg =
  raise (Parse_error (Printf.sprintf "%s at offset %d" msg cur.pos))

let peek cur = if cur.pos < String.length cur.text then Some cur.text.[cur.pos] else None

let advance cur = cur.pos <- cur.pos + 1

let skip_ws cur =
  let rec loop () =
    match peek cur with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance cur;
      loop ()
    | Some _ | None -> ()
  in
  loop ()

let expect cur c =
  match peek cur with
  | Some got when got = c -> advance cur
  | Some got -> fail cur (Printf.sprintf "expected %c, got %c" c got)
  | None -> fail cur (Printf.sprintf "expected %c, got end of input" c)

let literal cur word value =
  if
    cur.pos + String.length word <= String.length cur.text
    && String.sub cur.text cur.pos (String.length word) = word
  then begin
    cur.pos <- cur.pos + String.length word;
    value
  end
  else fail cur (Printf.sprintf "invalid literal (wanted %s)" word)

let utf8_of_code buf code =
  (* Encode a Unicode scalar value as UTF-8. *)
  if code < 0x80 then Buffer.add_char buf (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else if code < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (code lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end

let parse_hex4 cur =
  if cur.pos + 4 > String.length cur.text then fail cur "truncated \\u escape";
  let s = String.sub cur.text cur.pos 4 in
  cur.pos <- cur.pos + 4;
  match int_of_string_opt ("0x" ^ s) with
  | Some v -> v
  | None -> fail cur "invalid \\u escape"

let parse_string cur =
  expect cur '"';
  let buf = Buffer.create 16 in
  let rec loop () =
    match peek cur with
    | None -> fail cur "unterminated string"
    | Some '"' -> advance cur
    | Some '\\' ->
      advance cur;
      (match peek cur with
       | Some '"' -> Buffer.add_char buf '"'; advance cur
       | Some '\\' -> Buffer.add_char buf '\\'; advance cur
       | Some '/' -> Buffer.add_char buf '/'; advance cur
       | Some 'b' -> Buffer.add_char buf '\b'; advance cur
       | Some 'f' -> Buffer.add_char buf '\012'; advance cur
       | Some 'n' -> Buffer.add_char buf '\n'; advance cur
       | Some 'r' -> Buffer.add_char buf '\r'; advance cur
       | Some 't' -> Buffer.add_char buf '\t'; advance cur
       | Some 'u' ->
         advance cur;
         let hi = parse_hex4 cur in
         let code =
           if hi >= 0xD800 && hi <= 0xDBFF then begin
             (* Surrogate pair. *)
             expect cur '\\';
             expect cur 'u';
             let lo = parse_hex4 cur in
             if lo < 0xDC00 || lo > 0xDFFF then fail cur "unpaired surrogate";
             0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00)
           end
           else hi
         in
         utf8_of_code buf code
       | Some c -> fail cur (Printf.sprintf "invalid escape \\%c" c)
       | None -> fail cur "truncated escape");
      loop ()
    | Some c when Char.code c < 0x20 -> fail cur "raw control character in string"
    | Some c ->
      Buffer.add_char buf c;
      advance cur;
      loop ()
  in
  loop ();
  Buffer.contents buf

let parse_number cur =
  let start = cur.pos in
  let is_number_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while (match peek cur with Some c -> is_number_char c | None -> false) do
    advance cur
  done;
  let s = String.sub cur.text start (cur.pos - start) in
  let has_float_syntax = String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s in
  if not has_float_syntax then
    match int_of_string_opt s with
    | Some i -> Int i
    | None -> (
      match float_of_string_opt s with
      | Some f -> Float f
      | None -> fail cur (Printf.sprintf "invalid number %S" s))
  else
    match float_of_string_opt s with
    | Some f -> Float f
    | None -> fail cur (Printf.sprintf "invalid number %S" s)

let rec parse_value cur =
  skip_ws cur;
  match peek cur with
  | None -> fail cur "unexpected end of input"
  | Some '"' -> String (parse_string cur)
  | Some '{' ->
    advance cur;
    skip_ws cur;
    if peek cur = Some '}' then begin
      advance cur;
      Obj []
    end
    else begin
      let rec fields acc =
        skip_ws cur;
        let key = parse_string cur in
        skip_ws cur;
        expect cur ':';
        let v = parse_value cur in
        skip_ws cur;
        match peek cur with
        | Some ',' ->
          advance cur;
          fields ((key, v) :: acc)
        | Some '}' ->
          advance cur;
          List.rev ((key, v) :: acc)
        | _ -> fail cur "expected , or } in object"
      in
      Obj (fields [])
    end
  | Some '[' ->
    advance cur;
    skip_ws cur;
    if peek cur = Some ']' then begin
      advance cur;
      List []
    end
    else begin
      let rec items acc =
        let v = parse_value cur in
        skip_ws cur;
        match peek cur with
        | Some ',' ->
          advance cur;
          items (v :: acc)
        | Some ']' ->
          advance cur;
          List.rev (v :: acc)
        | _ -> fail cur "expected , or ] in array"
      in
      List (items [])
    end
  | Some 't' -> literal cur "true" (Bool true)
  | Some 'f' -> literal cur "false" (Bool false)
  | Some 'n' -> literal cur "null" Null
  | Some ('-' | '0' .. '9') -> parse_number cur
  | Some c -> fail cur (Printf.sprintf "unexpected character %c" c)

let of_string text =
  let cur = { text; pos = 0 } in
  match parse_value cur with
  | v ->
    skip_ws cur;
    if cur.pos <> String.length text then
      Error (Printf.sprintf "trailing garbage at offset %d" cur.pos)
    else Ok v
  | exception Parse_error msg -> Error msg

let of_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | contents -> of_string contents
  | exception Sys_error msg -> Error msg

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | Null | Bool _ | Int _ | Float _ | String _ | List _ -> None

let to_float_opt = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | Null | Bool _ | String _ | List _ | Obj _ -> None

let to_int_opt = function
  | Int i -> Some i
  | Null | Bool _ | Float _ | String _ | List _ | Obj _ -> None

let to_string_opt = function
  | String s -> Some s
  | Null | Bool _ | Int _ | Float _ | List _ | Obj _ -> None

let to_bool_opt = function
  | Bool b -> Some b
  | Null | Int _ | Float _ | String _ | List _ | Obj _ -> None

let to_list_opt = function
  | List l -> Some l
  | Null | Bool _ | Int _ | Float _ | String _ | Obj _ -> None
