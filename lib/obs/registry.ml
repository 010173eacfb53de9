let schema = "mmcast-telemetry/1"

type series = {
  s_name : string;
  s_unit : string option;
  mutable s_points : (float * float) list;  (* newest first *)
}

type t = {
  sim : Engine.Sim.t;
  mutable all_series : series list;  (* newest first *)
  by_name : (string, series) Hashtbl.t;
  mutable samplers : (unit -> unit) list;  (* newest first *)
  (* Summaries by name, with their unit: newest first. *)
  mutable snapshots : (string * (string option * Engine.Stats.Summary.t)) list;
  mutable ticks : int;
}

let create sim =
  { sim;
    all_series = [];
    by_name = Hashtbl.create 32;
    samplers = [];
    snapshots = [];
    ticks = 0 }

let series t ?unit_ name =
  match Hashtbl.find_opt t.by_name name with
  | Some s -> s
  | None ->
    let s = { s_name = name; s_unit = unit_; s_points = [] } in
    Hashtbl.replace t.by_name name s;
    t.all_series <- s :: t.all_series;
    s

(* Registering two probes under one name would interleave their points
   into a single series — a silent data bug, caught here instead. *)
let fresh_series t ?unit_ name =
  if Hashtbl.mem t.by_name name then
    invalid_arg
      (Printf.sprintf
         "Obs.Registry: a probe named %S is already registered; pick a distinct \
          series name"
         name);
  series t ?unit_ name

let now_s t = Engine.Time.seconds (Engine.Sim.now t.sim)

let append t s v = s.s_points <- (now_s t, v) :: s.s_points

let add_sampler t f = t.samplers <- f :: t.samplers

let gauge t ?unit_ name read =
  let s = fresh_series t ?unit_ name in
  add_sampler t (fun () -> append t s (read ()))

let int_gauge t ?unit_ name read = gauge t ?unit_ name (fun () -> float_of_int (read ()))

let summary t ?unit_ name s =
  if List.mem_assoc name t.snapshots then
    invalid_arg
      (Printf.sprintf
         "Obs.Registry: a distribution named %S is already registered; pick a \
          distinct name"
         name);
  t.snapshots <- (name, (unit_, s)) :: t.snapshots

let names t =
  List.rev_map (fun s -> s.s_name) t.all_series
  @ List.rev_map fst t.snapshots

let sample t =
  t.ticks <- t.ticks + 1;
  (* Samplers run oldest-first so a tick's points land in registration
     order, keeping exported documents stable. *)
  List.iter (fun f -> f ()) (List.rev t.samplers)

let run_sampler t ~every ~until =
  if every <= 0.0 then invalid_arg "Registry.run_sampler: every must be positive";
  let sim = t.sim in
  let rec tick () =
    sample t;
    let next = Engine.Time.add (Engine.Sim.now sim) every in
    if Engine.Time.compare next until <= 0 then
      ignore (Engine.Sim.schedule_at ~category:"obs" sim next tick)
  in
  let first = Engine.Time.add (Engine.Sim.now sim) every in
  if Engine.Time.compare first until <= 0 then
    ignore (Engine.Sim.schedule_at ~category:"obs" sim first tick)

let samples t = t.ticks

let series_json s =
  let points =
    List.rev_map (fun (ts, v) -> Json.List [ Json.float ts; Json.float v ]) s.s_points
  in
  Json.Obj
    (("name", Json.String s.s_name)
     ::
     (match s.s_unit with
      | None -> []
      | Some u -> [ ("unit", Json.String u) ])
     @ [ ("points", Json.List points) ])

let summary_json unit_ s =
  let module Summary = Engine.Stats.Summary in
  let base =
    [ ("kind", Json.String "summary"); ("count", Json.Int (Summary.count s)) ]
  in
  let stats =
    if Summary.count s = 0 then []
    else
      [ ("mean", Json.float (Summary.mean s));
        ("stddev", Json.float (Summary.stddev s));
        ("min", Json.float (Summary.min s));
        ("max", Json.float (Summary.max s));
        ("p50", Json.float (Summary.percentile s 0.5));
        ("p90", Json.float (Summary.percentile s 0.9));
        ("p99", Json.float (Summary.percentile s 0.99)) ]
  in
  let unit_field =
    match unit_ with
    | None -> []
    | Some u -> [ ("unit", Json.String u) ]
  in
  Json.Obj (base @ unit_field @ stats)

let to_json ?(meta = []) t =
  let snapshots =
    List.rev_map
      (fun (name, (unit_, s)) ->
        match summary_json unit_ s with
        | Json.Obj fields -> Json.Obj (("name", Json.String name) :: fields)
        | other -> other)
      t.snapshots
  in
  Json.Obj
    ([ ("schema", Json.String schema) ]
     @ meta
     @ [ ("sim_time_s", Json.float (now_s t));
         ("samples", Json.Int t.ticks);
         ("series", Json.List (List.rev_map series_json t.all_series));
         ("distributions", Json.List snapshots) ])
