let schema = "mmcast-lineage/1"

type t = {
  collector : Engine.Span.t;
  mutable approach : string;
}

let create ?(approach = "") () =
  { collector = Engine.Span.create ~label_of_code:Ipv6.Packet.label_of_code (); approach }

let collector t = t.collector
let approach t = t.approach
let set_approach t a = t.approach <- a

let attach t sim = Engine.Sim.set_lineage sim (Some t.collector)

let span_count t = Engine.Span.span_count t.collector
let mark_count t = Engine.Span.mark_count t.collector

(* ---- happens-before queries ---- *)

(* Every filter is a column test, so only the span returned is
   viewed. *)
let last_chain t ~node ?before ?dropped ?verb () =
  let node = if node = "" then None else Some node in
  match Engine.Span.last_matching t.collector ?before ?dropped ?node ?verb (fun _ -> true) with
  | None -> None
  | Some sp -> Some (Engine.Span.causal_chain t.collector sp.Engine.Span.sp_id)

let why_dropped t ?(node = "") ?before () = last_chain t ~node ?before ~dropped:true ()

let delivery_chain t ?(node = "") ?before () =
  last_chain t ~node ?before ~verb:Engine.Span.Deliver ()

let drop_counts t =
  List.map
    (fun (r, n) -> (Engine.Span.drop_reason_name r, n))
    (Engine.Span.drop_counts t.collector)

(* ---- persistence ---- *)

let attrs_json attrs =
  Json.Obj (List.rev_map (fun (k, v) -> (k, Json.String v)) attrs)

let span_json sp =
  let open Engine.Span in
  Json.Obj
    ([ ("id", Json.Int sp.sp_id);
       ("trace", Json.Int sp.sp_trace);
       ("parent", Json.Int sp.sp_parent);
       ("name", Json.String sp.sp_name);
       ("node", Json.String sp.sp_node);
       ("start_s", Json.float (Engine.Time.seconds sp.sp_start));
       ("end_s", Json.float (Engine.Time.seconds sp.sp_end)) ]
     @ (match sp.sp_drop with
        | None -> []
        | Some r -> [ ("drop", Json.String (drop_reason_name r)) ])
     @ (if sp.sp_cause < 0 then [] else [ ("cause", Json.Int sp.sp_cause) ])
     @ if sp.sp_attrs = [] then [] else [ ("attrs", attrs_json sp.sp_attrs) ])

let mark_json mk =
  let open Engine.Span in
  Json.Obj
    ([ ("at_s", Json.float (Engine.Time.seconds mk.mk_at));
       ("name", Json.String mk.mk_name);
       ("node", Json.String mk.mk_node) ]
     @ if mk.mk_attrs = [] then [] else [ ("attrs", attrs_json mk.mk_attrs) ])

let to_json t =
  Json.Obj
    [ ("schema", Json.String schema);
      ("approach", Json.String t.approach);
      ("spans", Json.List (List.map span_json (Engine.Span.spans t.collector)));
      ("marks", Json.List (List.map mark_json (Engine.Span.marks t.collector))) ]

let save t ~path = Json.write_file ~path (to_json t)

(* Loader: tolerant of field order, strict about shape. *)

let field_err what = Error (Printf.sprintf "lineage: bad or missing %s" what)

let get_int j name =
  match Option.bind (Json.member name j) Json.to_int_opt with
  | Some v -> Ok v
  | None -> field_err name

let get_string j name =
  match Option.bind (Json.member name j) Json.to_string_opt with
  | Some v -> Ok v
  | None -> field_err name

let get_float j name =
  match Option.bind (Json.member name j) Json.to_float_opt with
  | Some v -> Ok v
  | None -> field_err name

let ( let* ) = Result.bind

let attrs_of_json j =
  match Json.member "attrs" j with
  | None -> Ok []
  | Some (Json.Obj fields) ->
    let rec conv acc = function
      | [] -> Ok acc  (* reversed: restores the newest-first order *)
      | (k, Json.String v) :: rest -> conv ((k, v) :: acc) rest
      | _ -> field_err "attrs"
    in
    conv [] fields
  | Some _ -> field_err "attrs"

let span_of_json j =
  let* id = get_int j "id" in
  let* trace = get_int j "trace" in
  let* parent = get_int j "parent" in
  let* name = get_string j "name" in
  let* node = get_string j "node" in
  let* start_s = get_float j "start_s" in
  let* end_s = get_float j "end_s" in
  let* drop =
    match Json.member "drop" j with
    | None -> Ok None
    | Some (Json.String s) -> (
      match Engine.Span.drop_reason_of_name s with
      | Some r -> Ok (Some r)
      | None -> Error (Printf.sprintf "lineage: unknown drop reason %S" s))
    | Some _ -> field_err "drop"
  in
  let cause =
    match Option.bind (Json.member "cause" j) Json.to_int_opt with
    | Some c -> c
    | None -> -1
  in
  let* attrs = attrs_of_json j in
  Ok
    { Engine.Span.sp_id = id;
      sp_trace = trace;
      sp_parent = parent;
      sp_name = name;
      sp_node = node;
      sp_start = Engine.Time.of_seconds start_s;
      sp_end = Engine.Time.of_seconds end_s;
      sp_drop = drop;
      sp_cause = cause;
      sp_attrs = attrs }

let mark_of_json j =
  let* at_s = get_float j "at_s" in
  let* name = get_string j "name" in
  let* node = get_string j "node" in
  let* attrs = attrs_of_json j in
  Ok
    { Engine.Span.mk_at = Engine.Time.of_seconds at_s;
      mk_name = name;
      mk_node = node;
      mk_attrs = attrs }

let rec fold_results f acc = function
  | [] -> Ok (List.rev acc)
  | x :: rest -> (
    match f x with
    | Ok v -> fold_results f (v :: acc) rest
    | Error _ as e -> e)

let of_json j =
  let* s = get_string j "schema" in
  if s <> schema then Error (Printf.sprintf "lineage: expected schema %s, got %s" schema s)
  else
    let approach =
      Option.value ~default:""
        (Option.bind (Json.member "approach" j) Json.to_string_opt)
    in
    let* span_list =
      match Option.bind (Json.member "spans" j) Json.to_list_opt with
      | Some l -> Ok l
      | None -> field_err "spans"
    in
    let* mark_list =
      match Option.bind (Json.member "marks" j) Json.to_list_opt with
      | Some l -> Ok l
      | None -> field_err "marks"
    in
    let* spans = fold_results span_of_json [] span_list in
    let* marks = fold_results mark_of_json [] mark_list in
    let n = List.length spans in
    let* () =
      match List.find_opt (fun sp -> sp.Engine.Span.sp_cause >= n) spans with
      | Some sp ->
        Error
          (Printf.sprintf "lineage: span %d has cause %d, not a loaded span"
             sp.Engine.Span.sp_id sp.Engine.Span.sp_cause)
      | None -> Ok ()
    in
    let t = create ~approach () in
    (try
       List.iter (Engine.Span.restore t.collector) spans;
       List.iter (Engine.Span.restore_mark t.collector) marks;
       Ok t
     with Invalid_argument msg -> Error ("lineage: " ^ msg))

let load path =
  let* j = Json.of_file path in
  of_json j
