module Json = Obs.Json
module Monitor = Check.Monitor

type t = {
  rp_desc : Desc.t;
  rp_approach : Mmcast.Approach.t;
  rp_invariant : Monitor.invariant;
  rp_sustain : Engine.Time.t;
  rp_sched : Runner.schedule;
  rp_detail : string;
  rp_trace : string list;
  rp_chain : string list;
}

let schema = "mmcast-repro/2"

let schema_v1 = "mmcast-repro/1"

let violation_matching inv outcome =
  List.find_opt (fun v -> v.Monitor.v_invariant = inv) outcome.Runner.out_violations

let render_trace records =
  (* Violation excerpts arrive newest first; persist oldest first so
     the bundle reads chronologically. *)
  List.rev_map
    (fun r ->
      Printf.sprintf "%.3f [%s] %s" r.Engine.Trace.at r.Engine.Trace.category
        (Engine.Trace.message r))
    records

let capture ~desc ~approach ~invariant ~sustain ~sched =
  (* Capture re-runs the shrunk minimum with lineage collection on, so
     the bundle embeds the causal chain behind the violation. *)
  let outcome = Runner.run ~sustain ~sched ~lineage:true desc approach in
  let detail, trace, chain =
    match violation_matching invariant outcome with
    | Some v ->
      ( Printf.sprintf "%s at t=%.1f on %s: %s"
          (Monitor.invariant_name v.Monitor.v_invariant)
          v.Monitor.v_at v.Monitor.v_where v.Monitor.v_detail,
        render_trace v.Monitor.v_trace,
        v.Monitor.v_chain )
    | None -> ("minimum did not re-violate at capture time", [], [])
  in
  { rp_desc = desc;
    rp_approach = approach;
    rp_invariant = invariant;
    rp_sustain = sustain;
    rp_sched = sched;
    rp_detail = detail;
    rp_trace = trace;
    rp_chain = chain }

let of_shrink (sh : Shrink.result) ~sustain =
  capture ~desc:sh.Shrink.sh_min ~approach:sh.Shrink.sh_approach
    ~invariant:sh.Shrink.sh_invariant ~sustain
    ~sched:Runner.canonical_schedule

let of_schedule_shrink (ss : Shrink.schedule_result) ~desc ~sustain =
  capture ~desc ~approach:ss.Shrink.ss_approach
    ~invariant:ss.Shrink.ss_invariant ~sustain ~sched:ss.Shrink.ss_sched

let to_json t =
  Json.Obj
    [ ("schema", Json.String schema);
      ("approach", Json.Int (Mmcast.Approach.number t.rp_approach));
      ("invariant", Json.String (Monitor.invariant_name t.rp_invariant));
      ("sustain_s", Json.float t.rp_sustain);
      ("schedule", Json.Obj (Runner.schedule_fields t.rp_sched));
      ("detail", Json.String t.rp_detail);
      ("scenario", Desc.to_json t.rp_desc);
      ("scenario_digest", Json.String (Desc.digest t.rp_desc));
      ("trace", Json.strings t.rp_trace);
      ("chain", Json.strings t.rp_chain) ]

let of_json j =
  let ( let* ) = Result.bind in
  let field name conv =
    match Option.bind (Json.member name j) conv with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "repro: missing or ill-typed field %S" name)
  in
  let* s = field "schema" Json.to_string_opt in
  if not (String.equal s schema || String.equal s schema_v1) then
    Error (Printf.sprintf "repro: schema %S is not %S (or %S)" s schema schema_v1)
  else
    let* n = field "approach" Json.to_int_opt in
    let* rp_approach =
      if n >= 1 && n <= 4 then Ok (Mmcast.Approach.of_number n)
      else Error (Printf.sprintf "repro: approach %d outside 1-4" n)
    in
    let* inv_name = field "invariant" Json.to_string_opt in
    let* rp_invariant =
      Option.to_result
        ~none:(Printf.sprintf "repro: unknown invariant %S" inv_name)
        (Monitor.invariant_of_name inv_name)
    in
    let* rp_sustain = field "sustain_s" Json.to_float_opt in
    (* v1 bundles predate pinned interleavings: canonical schedule. *)
    let* rp_sched =
      match Json.member "schedule" j with
      | None -> Ok Runner.canonical_schedule
      | Some sj -> Runner.schedule_of_json sj
    in
    let* rp_detail = field "detail" Json.to_string_opt in
    let* scenario =
      Option.to_result ~none:"repro: missing field \"scenario\"" (Json.member "scenario" j)
    in
    let* rp_desc = Desc.of_json scenario in
    let* trace = field "trace" Json.to_list_opt in
    let string_lines what lines =
      List.fold_left
        (fun acc line ->
          let* rev = acc in
          let* s =
            Option.to_result
              ~none:(Printf.sprintf "repro: non-string %s line" what)
              (Json.to_string_opt line)
          in
          Ok (s :: rev))
        (Ok []) lines
      |> Result.map List.rev
    in
    let* rp_trace = string_lines "trace" trace in
    (* Bundles written before lineage collection existed have no
       "chain" field; they load with an empty chain. *)
    let* rp_chain =
      match Option.bind (Json.member "chain" j) Json.to_list_opt with
      | None -> Ok []
      | Some lines -> string_lines "chain" lines
    in
    Ok
      { rp_desc; rp_approach; rp_invariant; rp_sustain; rp_sched; rp_detail; rp_trace;
        rp_chain }

let write t ~dir =
  Json.ensure_dir dir;
  let path = Filename.concat dir (Printf.sprintf "repro_%s.json" t.rp_desc.Desc.d_name) in
  Json.write_file ~pretty:true ~path (to_json t);
  let manifest = Obs.Manifest.create ~tool:"mmcast-repro" () in
  Obs.Manifest.add_string manifest "scenario" t.rp_desc.Desc.d_name;
  Obs.Manifest.add_string manifest "scenario_digest" (Desc.digest t.rp_desc);
  Obs.Manifest.add_int manifest "approach" (Mmcast.Approach.number t.rp_approach);
  Obs.Manifest.add_string manifest "invariant" (Monitor.invariant_name t.rp_invariant);
  Obs.Manifest.add_float manifest "sustain_s" t.rp_sustain;
  Obs.Manifest.add_int manifest "schedule_choices"
    (List.length t.rp_sched.Runner.sched_choices);
  Obs.Manifest.add manifest "size" (Json.String (Desc.size_summary t.rp_desc));
  Obs.Manifest.add_output manifest ~kind:"repro" path;
  Obs.Manifest.write manifest
    ~path:(Filename.concat dir (Printf.sprintf "repro_%s_manifest.json" t.rp_desc.Desc.d_name));
  path

let load path =
  match
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error msg -> Error msg
  | contents ->
    (match Json.of_string contents with
    | Error msg -> Error (Printf.sprintf "%s: %s" path msg)
    | Ok j -> of_json j)

let replay t =
  let outcome =
    Runner.run ~sustain:t.rp_sustain ~sched:t.rp_sched t.rp_desc t.rp_approach
  in
  List.filter
    (fun v -> v.Monitor.v_invariant = t.rp_invariant)
    outcome.Runner.out_violations
