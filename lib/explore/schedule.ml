module Json = Obs.Json

type t = {
  sc_strategy : string;
  sc_seed : int;
  sc_index : int;
  sc_length : int;
  sc_sched : Scale.Runner.schedule;
}

let schema = "mmcast-schedule/1"

let canonical =
  { sc_strategy = "canonical";
    sc_seed = 0;
    sc_index = 0;
    sc_length = 0;
    sc_sched = Scale.Runner.canonical_schedule }

let is_canonical t = t.sc_sched.Scale.Runner.sched_choices = []

let to_json t =
  Json.Obj
    ([ ("schema", Json.String schema);
       ("strategy", Json.String t.sc_strategy);
       ("seed", Json.Int t.sc_seed);
       ("index", Json.Int t.sc_index);
       ("length", Json.Int t.sc_length) ]
    @ Scale.Runner.schedule_fields t.sc_sched)

let of_json j =
  let ( let* ) = Result.bind in
  let field name conv =
    match Option.bind (Json.member name j) conv with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "schedule: missing or ill-typed field %S" name)
  in
  let* s = field "schema" Json.to_string_opt in
  if not (String.equal s schema) then
    Error (Printf.sprintf "schedule: schema %S is not %S" s schema)
  else
    let* sc_strategy = field "strategy" Json.to_string_opt in
    let* sc_seed = field "seed" Json.to_int_opt in
    let* sc_index = field "index" Json.to_int_opt in
    let* sc_length = field "length" Json.to_int_opt in
    let* sc_sched = Scale.Runner.schedule_of_json j in
    Ok { sc_strategy; sc_seed; sc_index; sc_length; sc_sched }

let digest t = Digest.to_hex (Digest.string (Json.to_string (to_json t)))

let summary t =
  Printf.sprintf "%s#%d (seed %d): %d deviations over %d choice points"
    t.sc_strategy t.sc_index t.sc_seed
    (List.length t.sc_sched.Scale.Runner.sched_choices)
    t.sc_length
