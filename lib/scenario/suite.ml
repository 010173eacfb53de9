module Json = Obs.Json
module Approach = Mmcast.Approach

type cell =
  | Generated of { model : Gen.model; routers : int; seed : int }
  | Soak of { seed : int }

type row = {
  r_cell : cell;
  r_name : string;
  r_digest : string;
  r_size : string;
  r_outcomes : Runner.outcome list;
}

let cells ?(sizes = [ 25; 50; 100 ]) ?(models = [ `Waxman; `Pref ]) ?(seeds = 1)
    ~base_seed () =
  List.concat_map
    (fun routers ->
      List.concat_map
        (fun model ->
          List.init seeds (fun i -> Generated { model; routers; seed = base_seed + i }))
        models)
    sizes

let desc_of = function
  | Generated { model; routers; seed } -> Gen.scenario ~model ~routers ~seed ()
  | Soak { seed } -> Gen.soak ~seed

let row cell outcomes =
  let desc = desc_of cell in
  { r_cell = cell;
    r_name = desc.Desc.d_name;
    r_digest = Desc.digest desc;
    r_size = Desc.size_summary desc;
    r_outcomes = outcomes }

let run ?(jobs = 1) cells =
  let tasks =
    List.concat_map (fun cell -> List.map (fun a -> (cell, a)) Approach.all) cells
  in
  let outcomes =
    (* Largest matrix cells first: a 100-router run can cost orders of
       magnitude more than a 25-router one, and scheduling it last
       would leave the pool draining behind a single straggler.  Soak
       cells all cost alike. *)
    Parallel.map_weighted ~jobs
      ~weight:(fun (cell, _) ->
        match cell with Generated { routers; _ } -> routers | Soak _ -> 1)
      (fun (cell, approach) -> Runner.run (desc_of cell) approach)
      tasks
  in
  (* Regroup the flat, input-ordered results into one row of four
     outcomes per cell. *)
  let rec rows cells outcomes =
    match cells with
    | [] -> []
    | cell :: rest ->
      let rec take n xs acc =
        if n = 0 then (List.rev acc, xs)
        else match xs with [] -> (List.rev acc, []) | x :: tl -> take (n - 1) tl (x :: acc)
      in
      let mine, others = take (List.length Approach.all) outcomes [] in
      row cell mine :: rows rest others
  in
  rows cells outcomes

let violation_total rows =
  List.fold_left
    (fun acc row ->
      List.fold_left
        (fun acc o -> acc + List.length o.Runner.out_violations)
        acc row.r_outcomes)
    0 rows

let outcome_json (o : Runner.outcome) =
  let events_per_s = if o.Runner.out_wall_s > 0.0 then float_of_int o.Runner.out_events /. o.Runner.out_wall_s else 0.0 in
  Json.Obj
    [ ("approach", Json.Int (Approach.number o.Runner.out_approach));
      ("events", Json.Int o.Runner.out_events);
      ("wall_s", Json.float o.Runner.out_wall_s);
      ("events_per_s", Json.float events_per_s);
      ("sent", Json.Int o.Runner.out_sent);
      ("delivered", Json.Int o.Runner.out_delivered);
      ("duplicates", Json.Int o.Runner.out_duplicates);
      ("malformed_drops", Json.Int o.Runner.out_malformed);
      ("monitor_samples", Json.Int o.Runner.out_samples);
      ("bound_s", Json.float o.Runner.out_bound);
      ("violations", Json.Int (List.length o.Runner.out_violations));
      ( "violation_invariants",
        Json.strings
          (List.map
             (fun v -> Check.Monitor.invariant_name v.Check.Monitor.v_invariant)
             o.Runner.out_violations) );
      ("marks", Json.strings (List.map (fun m -> m.Faults.fault_label) o.Runner.out_marks)) ]

let cell_json = function
  | Generated { model; routers; seed } ->
    [ ("model", Json.String (Gen.model_name model));
      ("routers", Json.Int routers);
      ("seed", Json.Int seed) ]
  | Soak { seed } -> [ ("model", Json.String "soak"); ("seed", Json.Int seed) ]

let to_json rows =
  Json.Obj
    [ ("schema", Json.String "mmcast-scale/1");
      ("violations_total", Json.Int (violation_total rows));
      ( "rows",
        Json.List
          (List.map
             (fun row ->
               Json.Obj
                 ((("scenario", Json.String row.r_name) :: cell_json row.r_cell)
                 @ [ ("size", Json.String row.r_size);
                     ("digest", Json.String row.r_digest);
                     ("outcomes", Json.List (List.map outcome_json row.r_outcomes)) ]))
             rows) ) ]

let pp_table ppf rows =
  Format.fprintf ppf "%-22s %-16s %9s %9s %6s %6s %5s %5s %6s@." "scenario" "size" "events"
    "ev/s" "sent" "rx" "dup" "drop" "viol";
  List.iter
    (fun row ->
      let sum f = List.fold_left (fun a o -> a + f o) 0 row.r_outcomes in
      let events = sum (fun o -> o.Runner.out_events) in
      let wall = List.fold_left (fun a o -> a +. o.Runner.out_wall_s) 0.0 row.r_outcomes in
      Format.fprintf ppf "%-22s %-16s %9d %9.0f %6d %6d %5d %5d %6d@." row.r_name row.r_size
        events
        (if wall > 0.0 then float_of_int events /. wall else 0.0)
        (sum (fun o -> o.Runner.out_sent))
        (sum (fun o -> o.Runner.out_delivered))
        (sum (fun o -> o.Runner.out_duplicates))
        (sum (fun o -> o.Runner.out_malformed))
        (sum (fun o -> List.length o.Runner.out_violations)))
    rows
