open Mmcast
module Monitor = Check.Monitor
module Json = Obs.Json

type outcome = {
  out_approach : Approach.t;
  out_events : int;
  out_wall_s : float;
  out_sent : int;
  out_delivered : int;
  out_duplicates : int;
  out_samples : int;
  out_bound : Engine.Time.t;
  out_violations : Monitor.violation list;
  out_digest : string;
  out_marks : Faults.mark list;
  out_malformed : int;
}

type schedule = {
  sched_choices : (int * int) list;
  sched_delay_slots : int;
  sched_delay_max : Engine.Time.t;
}

let canonical_schedule =
  { sched_choices = []; sched_delay_slots = 1; sched_delay_max = 0.0 }

let schedule_fields s =
  [ ("delay_slots", Json.Int s.sched_delay_slots);
    ("delay_max_s", Json.float s.sched_delay_max);
    ( "choices",
      Json.List
        (List.map (fun (i, c) -> Json.List [ Json.Int i; Json.Int c ]) s.sched_choices) ) ]

let schedule_of_json j =
  let ( let* ) = Result.bind in
  let field name conv =
    match Option.bind (Json.member name j) conv with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "schedule: missing or ill-typed field %S" name)
  in
  let* sched_delay_slots = field "delay_slots" Json.to_int_opt in
  let* sched_delay_max = field "delay_max_s" Json.to_float_opt in
  let* pairs = field "choices" Json.to_list_opt in
  let* sched_choices =
    List.fold_left
      (fun acc pair ->
        let* rev = acc in
        match Json.to_list_opt pair with
        | Some [ i; c ] -> (
          match (Json.to_int_opt i, Json.to_int_opt c) with
          | Some i, Some c when i >= 0 && c > 0 -> Ok ((i, c) :: rev)
          | Some _, Some _ -> Error "schedule: choice out of range"
          | _ -> Error "schedule: non-integer choice pair")
        | _ -> Error "schedule: choice is not an [index, alternative] pair")
      (Ok []) pairs
    |> Result.map List.rev
  in
  let rec ascending = function
    | (i, _) :: ((j, _) :: _ as rest) -> i < j && ascending rest
    | _ -> true
  in
  if sched_delay_slots < 1 then Error "schedule: delay_slots < 1"
  else if not (ascending sched_choices) then
    Error "schedule: choice positions not strictly ascending"
  else Ok { sched_choices; sched_delay_slots; sched_delay_max }

let decider_of_choices choices =
  let remaining = ref choices in
  let pos = ref 0 in
  fun ~kind:_ ~arity ->
    let p = !pos in
    incr pos;
    let rec take () =
      match !remaining with
      | (i, _) :: rest when i < p ->
        remaining := rest;
        take ()
      | (i, c) :: rest when i = p ->
        remaining := rest;
        if c <= 0 then 0 else if c >= arity then arity - 1 else c
      | _ -> 0
    in
    take ()

let spec_for (d : Desc.t) approach =
  { Scenario.default_spec with
    Scenario.approach;
    seed = d.Desc.d_seed;
    mld = Mld.Mld_config.with_query_interval 15.0 Mld.Mld_config.default;
    pim =
      { Pimdm.Pim_config.default with
        Pimdm.Pim_config.state_refresh_interval = Some 20.0;
        assert_time = 30.0;
        enable_graft = not d.Desc.d_disable_graft };
    mipv6 = { Mipv6.Mipv6_config.default with Mipv6.Mipv6_config.binding_lifetime = 40.0 }
  }

let groups_of (d : Desc.t) =
  List.sort_uniq compare
    (List.map snd d.Desc.d_senders
    @ List.filter_map
        (function
          | Desc.Join { group; _ } | Desc.Leave { group; _ } -> Some group
          | Desc.Move _ -> None)
        d.Desc.d_events)

let compile_faults scenario (d : Desc.t) =
  let link name = Scenario.link scenario name in
  List.map
    (function
      | Desc.Loss { link = l; rate; from_t; until } ->
        Faults.loss_window ~link:(link l) ~rate ~from_t ~until
      | Desc.Flap { link = l; down_at; up_at } ->
        Faults.link_flap ~link:(link l) ~down_at ~up_at
      | Desc.Crash { router; at; recover_at } ->
        let node = Router_stack.node_id (Scenario.router scenario router) in
        Faults.crash ~node ~at ~recover_at ())
    d.Desc.d_faults
  @ List.map
      (function
        | Desc.Duplicate { link = l; rate; from_t; until } ->
          Faults.duplicate_window ~link:(link l) ~rate ~from_t ~until
        | Desc.Reorder { link = l; rate; jitter; from_t; until } ->
          Faults.reorder_window ~link:(link l) ~rate ~jitter ~from_t ~until
        | Desc.Corrupt { link = l; rate; from_t; until } ->
          Faults.corrupt_window ~link:(link l) ~rate ~from_t ~until)
      d.Desc.d_windows

(* The last descriptor that validated, by physical identity: the
   explorer and the suites run one descriptor many times, and a
   [Desc.t] has no mutable field, so it stays valid.  An [Atomic]
   because suites run [run] on several domains. *)
let last_valid : Desc.t option Atomic.t = Atomic.make None

let validate d =
  match Atomic.get last_valid with
  | Some v when v == d -> Ok ()
  | _ ->
    let r = Desc.validate d in
    if Result.is_ok r then Atomic.set last_valid (Some d);
    r

let run ?spec ?sustain ?sched ?decider ?(lineage = false) ?on_trace ?inspect (d : Desc.t)
    approach =
  (match validate d with
  | Ok () -> ()
  | Error msg -> invalid_arg (Printf.sprintf "Runner.run: %s: %s" d.Desc.d_name msg));
  let wall0 = Unix.gettimeofday () in
  let spec =
    match spec with
    | None -> spec_for d approach
    | Some (s : Scenario.spec) ->
      { s with
        Scenario.approach;
        seed = d.Desc.d_seed;
        pim = { s.Scenario.pim with enable_graft = not d.Desc.d_disable_graft } }
  in
  let scenario =
    Scenario.build ?on_trace spec ~links:d.Desc.d_links ~routers:d.Desc.d_routers
      ~hosts:d.Desc.d_hosts
  in
  if d.Desc.d_wire_check then Net.Network.set_wire_check scenario.Scenario.net true;
  (* The collector draws no randomness and writes no trace records, so
     turning it on cannot change the outcome — only enrich it. *)
  if lineage then
    Engine.Sim.set_lineage scenario.Scenario.sim
      (Some (Engine.Span.create ~label_of_code:Ipv6.Packet.label_of_code ()));
  (* The decider must be in place before fault installation (crash
     placement consults it) and before any event runs. *)
  let sch = Option.value sched ~default:canonical_schedule in
  let decide =
    match decider with
    | Some _ -> decider
    | None ->
      if sch.sched_choices = [] && sch.sched_delay_slots <= 1 then None
      else Some (decider_of_choices sch.sched_choices)
  in
  (match decide with
  | None -> ()
  | Some de ->
    Engine.Sim.set_decider scenario.Scenario.sim (Some de);
    if sch.sched_delay_slots > 1 then
      Net.Network.set_delay_exploration scenario.Scenario.net
        ~slots:sch.sched_delay_slots ~max_extra:sch.sched_delay_max);
  let faults = Scenario.install_faults scenario (compile_faults scenario d) in
  let config =
    match sustain with
    | None -> Monitor.default_config
    | Some _ -> { Monitor.default_config with Monitor.sustain }
  in
  let monitor = Monitor.attach ~config ~faults scenario in
  let host name = Scenario.host scenario name in
  List.iter
    (fun ev ->
      Traffic.at scenario (Desc.event_time ev) (fun () ->
          match ev with
          | Desc.Join { host = h; group; _ } ->
            Host_stack.subscribe (host h) (Desc.group_addr group)
          | Desc.Leave { host = h; group; _ } ->
            Host_stack.unsubscribe (host h) (Desc.group_addr group)
          | Desc.Move { host = h; link; _ } ->
            Host_stack.move_to (host h) (Scenario.link scenario link)))
    d.Desc.d_events;
  let tr = d.Desc.d_traffic in
  List.iter
    (fun (sender, group) ->
      Traffic.cbr scenario (host sender) ~group:(Desc.group_addr group)
        ~from_t:tr.Desc.tr_from ~until:tr.Desc.tr_until ~interval:tr.Desc.tr_interval
        ~bytes:tr.Desc.tr_bytes)
    d.Desc.d_senders;
  Option.iter (fun f -> f scenario faults) inspect;
  Scenario.run_until scenario d.Desc.d_duration;
  Monitor.detach monitor;
  let groups = List.map Desc.group_addr (groups_of d) in
  let sum f =
    List.fold_left
      (fun acc (_, h) ->
        List.fold_left (fun acc group -> acc + f h ~group) acc groups)
      0 scenario.Scenario.hosts
  in
  { out_approach = approach;
    out_events = Engine.Sim.events_executed scenario.Scenario.sim;
    out_wall_s = Unix.gettimeofday () -. wall0;
    out_sent =
      List.fold_left
        (fun acc (sender, _) -> acc + Host_stack.data_sent (host sender))
        0
        (List.sort_uniq compare (List.map (fun (s, _) -> (s, ())) d.Desc.d_senders));
    out_delivered = sum Host_stack.received_count;
    out_duplicates = sum Host_stack.duplicate_count;
    out_samples = Monitor.samples monitor;
    out_bound = Monitor.bound monitor;
    out_violations = Monitor.violations monitor;
    out_digest = Engine.Trace.digest (Net.Network.trace scenario.Scenario.net);
    out_marks = Faults.marks_of faults;
    out_malformed = Net.Network.total_malformed_drops scenario.Scenario.net }
