type drop_reason =
  | Loss_fault
  | Link_down
  | Not_attached
  | No_handler
  | Malformed
  | Rpf_fail
  | Pruned_iface
  | Hop_limit
  | No_route
  | Not_joined

let drop_reason_name = function
  | Loss_fault -> "loss-fault"
  | Link_down -> "link-down"
  | Not_attached -> "not-attached"
  | No_handler -> "no-handler"
  | Malformed -> "malformed"
  | Rpf_fail -> "rpf-fail"
  | Pruned_iface -> "pruned-iface"
  | Hop_limit -> "hop-limit"
  | No_route -> "no-route"
  | Not_joined -> "not-joined"

let drop_reason_of_name = function
  | "loss-fault" -> Some Loss_fault
  | "link-down" -> Some Link_down
  | "not-attached" -> Some Not_attached
  | "no-handler" -> Some No_handler
  | "malformed" -> Some Malformed
  | "rpf-fail" -> Some Rpf_fail
  | "pruned-iface" -> Some Pruned_iface
  | "hop-limit" -> Some Hop_limit
  | "no-route" -> Some No_route
  | "not-joined" -> Some Not_joined
  | _ -> None

(* The drop column holds an index into this array, -1 for none. *)
let drop_reasons =
  [| Loss_fault; Link_down; Not_attached; No_handler; Malformed; Rpf_fail;
     Pruned_iface; Hop_limit; No_route; Not_joined |]

let all_drop_reasons = Array.to_list drop_reasons

let drop_index = function
  | Loss_fault -> 0
  | Link_down -> 1
  | Not_attached -> 2
  | No_handler -> 3
  | Malformed -> 4
  | Rpf_fail -> 5
  | Pruned_iface -> 6
  | Hop_limit -> 7
  | No_route -> 8
  | Not_joined -> 9

(* Names of drop spans: every collector interns them first, so drop
   reason [d] has name [-1 - d]. *)
let drop_span_names = Array.map (fun r -> "drop:" ^ drop_reason_name r) drop_reasons

type verb = Tx | Rx | Inject | Deliver

let verb_index = function Tx -> 0 | Rx -> 1 | Inject -> 2 | Deliver -> 3
let verb_prefixes = [| "tx "; "rx "; "inject "; "deliver " |]
let verb_prefix v = verb_prefixes.(verb_index v)

(* A name [n >= 0] is a packet's: its verb in the low two bits, the
   packet's label code above them.  A name [n < 0] is entry [-1 - n]
   of the collector's intern table. *)
type name = int

let max_code = max_int lsr 2

let packet_name verb code =
  if code < 0 || code > max_code then
    invalid_arg (Printf.sprintf "Span.packet_name: label code %d out of range" code);
  (code lsl 2) lor verb_index verb

type span = {
  sp_id : int;
  sp_trace : int;
  sp_parent : int;
  sp_name : string;
  sp_node : string;
  sp_start : Time.t;
  sp_end : Time.t;
  sp_drop : drop_reason option;
  sp_cause : int;
  sp_attrs : (string * string) list;
}

type mark = {
  mk_at : Time.t;
  mk_name : string;
  mk_node : string;
  mk_attrs : (string * string) list;
}

(* Span [id] lives in chunk [id lsr chunk_bits] at slot
   [id land chunk_mask], one column per field.  A full store gains a
   chunk; recorded spans never move. *)
let chunk_bits = 12
let chunk_size = 1 lsl chunk_bits
let chunk_mask = chunk_size - 1

type chunk = {
  trace : int array;
  parent : int array;
  cause : int array;
  drop : int array;
  name : int array;
  node : string array;
  start : Float.Array.t;
  stop : Float.Array.t;
  attrs : (string * string) list array;
}

(* Fills the spine's unused slots. *)
let no_chunk =
  { trace = [||]; parent = [||]; cause = [||]; drop = [||]; name = [||]; node = [||];
    start = Float.Array.create 0; stop = Float.Array.create 0; attrs = [||] }

let new_chunk () =
  { trace = Array.make chunk_size 0;
    parent = Array.make chunk_size 0;
    cause = Array.make chunk_size 0;
    drop = Array.make chunk_size 0;
    name = Array.make chunk_size 0;
    node = Array.make chunk_size "";
    start = Float.Array.make chunk_size 0.0;
    stop = Float.Array.make chunk_size 0.0;
    attrs = Array.make chunk_size [] }

type t = {
  mutable chunks : chunk array;  (* the spine: only it is ever copied *)
  mutable n_spans : int;
  mutable marks_rev : mark list;
  mutable n_marks : int;
  mutable next_trace : int;
  mutable cur_trace : int;  (* ambient causal context, -1 = none *)
  mutable cur_span : int;
  label_of_code : int -> string;  (* renders a packet name's label code *)
  interned : (string, int) Hashtbl.t;  (* free-form name -> its name *)
  mutable names : string array;  (* entry k is the string of name [-1 - k] *)
  mutable n_names : int;
}

let intern t s =
  match Hashtbl.find_opt t.interned s with
  | Some n -> n
  | None ->
    let k = t.n_names in
    if k = Array.length t.names then begin
      let grown = Array.make (2 * k) "" in
      Array.blit t.names 0 grown 0 k;
      t.names <- grown
    end;
    t.names.(k) <- s;
    t.n_names <- k + 1;
    Hashtbl.add t.interned s (-1 - k);
    -1 - k

let create ~label_of_code () =
  let t =
    { chunks = [||];
      n_spans = 0;
      marks_rev = [];
      n_marks = 0;
      next_trace = 0;
      cur_trace = -1;
      cur_span = -1;
      label_of_code;
      interned = Hashtbl.create 32;
      names = Array.make 32 "";
      n_names = 0 }
  in
  Array.iter (fun s -> ignore (intern t s)) drop_span_names;
  t

let name_string t n =
  if n >= 0 then verb_prefixes.(n land 3) ^ t.label_of_code (n lsr 2) else t.names.(-1 - n)

let has_verb t v n =
  if n >= 0 then n land 3 = v
  else String.starts_with ~prefix:verb_prefixes.(v) t.names.(-1 - n)

let span_count t = t.n_spans
let mark_count t = t.n_marks

let chunk_of t id = Array.unsafe_get t.chunks (id lsr chunk_bits)

let check_id t what id =
  if id < 0 || id >= t.n_spans then
    invalid_arg (Printf.sprintf "Span.%s: no span %d" what id)

let view t id =
  let c = chunk_of t id and i = id land chunk_mask in
  let d = c.drop.(i) in
  { sp_id = id;
    sp_trace = c.trace.(i);
    sp_parent = c.parent.(i);
    sp_name = name_string t c.name.(i);
    sp_node = c.node.(i);
    sp_start = Float.Array.get c.start i;
    sp_end = Float.Array.get c.stop i;
    sp_drop = (if d < 0 then None else Some drop_reasons.(d));
    sp_cause = c.cause.(i);
    sp_attrs = c.attrs.(i) }

let get t id =
  check_id t "get" id;
  view t id

let trace_of t id =
  check_id t "trace_of" id;
  (chunk_of t id).trace.(id land chunk_mask)

let iter t f =
  for i = 0 to t.n_spans - 1 do
    f (view t i)
  done

let spans t = List.init t.n_spans (view t)
let marks t = List.rev t.marks_rev

let fresh_trace t =
  let id = t.next_trace in
  t.next_trace <- id + 1;
  id

let context t = (t.cur_trace, t.cur_span)

let clear_context t =
  t.cur_trace <- -1;
  t.cur_span <- -1

let within t id f =
  let trace = trace_of t id in
  let saved_trace = t.cur_trace and saved_span = t.cur_span in
  t.cur_trace <- trace;
  t.cur_span <- id;
  match f () with
  | v ->
    t.cur_trace <- saved_trace;
    t.cur_span <- saved_span;
    v
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    t.cur_trace <- saved_trace;
    t.cur_span <- saved_span;
    Printexc.raise_with_backtrace e bt

let push t ~trace ~parent ~cause ~drop ~name ~node ~start ~stop ~attrs =
  let id = t.n_spans in
  let k = id lsr chunk_bits in
  if k = Array.length t.chunks then begin
    let spine = Array.make (max 4 (2 * k)) no_chunk in
    Array.blit t.chunks 0 spine 0 k;
    t.chunks <- spine
  end;
  if id land chunk_mask = 0 then t.chunks.(k) <- new_chunk ();
  let c = t.chunks.(k) and i = id land chunk_mask in
  c.trace.(i) <- trace;
  c.parent.(i) <- parent;
  c.cause.(i) <- cause;
  c.drop.(i) <- drop;
  c.name.(i) <- name;
  c.node.(i) <- node;
  Float.Array.set c.start i start;
  Float.Array.set c.stop i stop;
  c.attrs.(i) <- attrs;
  t.n_spans <- id + 1;
  id

let restore t s =
  if s.sp_id <> t.n_spans then
    invalid_arg
      (Printf.sprintf "Span.restore: span id %d out of order (expected %d)" s.sp_id
         t.n_spans);
  if s.sp_parent < -1 || s.sp_parent >= s.sp_id then
    invalid_arg
      (Printf.sprintf "Span.restore: span %d has parent %d, not an earlier span" s.sp_id
         s.sp_parent);
  if s.sp_cause < -1 then
    invalid_arg (Printf.sprintf "Span.restore: span %d has cause %d" s.sp_id s.sp_cause);
  ignore
    (push t ~trace:s.sp_trace ~parent:s.sp_parent ~cause:s.sp_cause
       ~drop:(match s.sp_drop with None -> -1 | Some r -> drop_index r)
       ~name:(intern t s.sp_name) ~node:s.sp_node ~start:s.sp_start ~stop:s.sp_end
       ~attrs:s.sp_attrs);
  if s.sp_trace >= t.next_trace then t.next_trace <- s.sp_trace + 1

let restore_mark t mark =
  t.marks_rev <- mark :: t.marks_rev;
  t.n_marks <- t.n_marks + 1

let record t ~at ~name ~node ~parent ~cause ~drop ~attrs =
  let parent_id = if parent >= 0 then parent else t.cur_span in
  let known = parent_id >= 0 && parent_id < t.n_spans in
  let trace =
    if known then (chunk_of t parent_id).trace.(parent_id land chunk_mask)
    else if t.cur_trace >= 0 then t.cur_trace
    else fresh_trace t
  in
  push t ~trace ~parent:(if known then parent_id else -1)
    ~cause:(if cause >= 0 then cause else -1)
    ~drop ~name ~node ~start:at ~stop:at ~attrs

let open_span t ~at ~name ~node ?(parent = -1) ?(cause = -1) ?(attrs = []) () =
  record t ~at ~name ~node ~parent ~cause ~drop:(-1) ~attrs

let close_span t ~at id =
  check_id t "close_span" id;
  Float.Array.set (chunk_of t id).stop (id land chunk_mask) at

let event = open_span

let drop t ~at ~node ~reason ?detail ?(parent = -1) () =
  let d = drop_index reason in
  record t ~at ~name:(-1 - d) ~node ~parent ~cause:(-1) ~drop:d
    ~attrs:(match detail with Some v -> [ ("detail", v) ] | None -> [])

let mark t ~at ~name ~node ?(attrs = []) () =
  t.marks_rev <- { mk_at = at; mk_name = name; mk_node = node; mk_attrs = attrs }
    :: t.marks_rev;
  t.n_marks <- t.n_marks + 1

(* ---- queries ---- *)

let last_matching t ?before ?(dropped = false) ?node ?verb pred =
  let verb = match verb with None -> -1 | Some v -> verb_index v in
  let rec scan id =
    if id < 0 then None
    else
      let c = chunk_of t id and i = id land chunk_mask in
      if
        (match before with
         | None -> true
         | Some b -> Time.compare (Float.Array.get c.start i) b <= 0)
        && ((not dropped) || c.drop.(i) >= 0)
        && (match node with None -> true | Some n -> String.equal c.node.(i) n)
        && (verb < 0 || has_verb t verb c.name.(i))
      then
        let s = view t id in
        if pred s then Some s else scan (id - 1)
      else scan (id - 1)
  in
  scan (t.n_spans - 1)

let drop_counts t =
  let counts = Array.make (Array.length drop_reasons) 0 in
  for id = 0 to t.n_spans - 1 do
    let d = (chunk_of t id).drop.(id land chunk_mask) in
    if d >= 0 then counts.(d) <- counts.(d) + 1
  done;
  List.filter_map
    (fun r -> match counts.(drop_index r) with 0 -> None | n -> Some (r, n))
    all_drop_reasons

let ancestry t id =
  let rec up id acc guard =
    if id < 0 || guard <= 0 then acc
    else
      let s = get t id in
      up s.sp_parent (s :: acc) (guard - 1)
  in
  up id [] 256

(* Root-first chain including causal edges: a span whose [sp_cause]
   points at another lineage (Graft sent because a Prune arrived)
   splices that cause's own chain immediately before itself, so the
   rendered story reads "...prune received; graft sent because of it...". *)
let causal_chain t id =
  let budget = ref 512 in
  let seen = Hashtbl.create 16 in
  let rec chain id =
    if id < 0 || !budget <= 0 || Hashtbl.mem seen id then []
    else begin
      Hashtbl.replace seen id ();
      decr budget;
      let s = get t id in
      let above = chain s.sp_parent in
      let because = if s.sp_cause >= 0 then chain s.sp_cause else [] in
      above @ because @ [ s ]
    end
  in
  chain id

let render s =
  let buf = Buffer.create 64 in
  Buffer.add_string buf (Printf.sprintf "%8.3f  %-12s %s" s.sp_start s.sp_node s.sp_name);
  (match s.sp_drop with
  | Some r -> Buffer.add_string buf (Printf.sprintf " [dropped: %s]" (drop_reason_name r))
  | None -> ());
  (match List.rev s.sp_attrs with
  | [] -> ()
  | attrs ->
    Buffer.add_string buf " (";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string buf ", ";
        Buffer.add_string buf k;
        Buffer.add_char buf '=';
        Buffer.add_string buf v)
      attrs;
    Buffer.add_char buf ')');
  Buffer.contents buf

let render_chain spans = List.map render spans
