open Ipv6

type callbacks = {
  listener_added : Addr.t -> unit;
  listener_removed : Addr.t -> unit;
}

type membership = { expiry : Engine.Timer.t }

type role =
  | Querier
  | Non_querier of { other_querier : Engine.Timer.t }

type t = {
  env : Mld_env.t;
  callbacks : callbacks;
  members : (Addr.t, membership) Hashtbl.t;
  query_timer : Engine.Timer.t;
  mutable role : role;
  mutable running : bool;
  mutable startup_queries_left : int;
  mutable generation : int;
}

(* Every change of [role] or [running] moves the generation. *)
let touch t = t.generation <- t.generation + 1

let trace t event = Engine.Trace.record t.env.Mld_env.trace ~category:"mld" event
let label t = t.env.Mld_env.label

let config t = t.env.Mld_env.config

let send_general_query t =
  let max_response_delay = (config t).Mld_config.query_response_interval in
  t.env.Mld_env.send (Mld_env.make_query t.env ~group:None ~max_response_delay);
  trace t (Mld_event.General_query_sent (label t))

let rec schedule_next_query t =
  let interval =
    if t.startup_queries_left > 0 then Mld_config.startup_query_interval (config t)
    else (config t).Mld_config.query_interval
  in
  Engine.Timer.start t.query_timer interval

and on_query_timer t =
  if t.running then begin
    (match t.role with
     | Querier ->
       send_general_query t;
       if t.startup_queries_left > 0 then t.startup_queries_left <- t.startup_queries_left - 1
     | Non_querier _ -> ());
    schedule_next_query t
  end

let create env callbacks =
  let rec t =
    lazy
      { env;
        callbacks;
        members = Hashtbl.create 8;
        query_timer =
          Engine.Timer.create ~category:"mld" env.Mld_env.sim ~name:(env.Mld_env.label ^ ".query")
            ~on_expire:(fun () -> on_query_timer (Lazy.force t));
        role = Querier;
        running = false;
        startup_queries_left = 0;
        generation = 0 }
  in
  Lazy.force t

let start t =
  t.running <- true;
  t.role <- Querier;
  touch t;
  t.startup_queries_left <- max 0 ((config t).Mld_config.startup_query_count - 1);
  send_general_query t;
  schedule_next_query t

(* Listener-set transitions as zero-duration lineage spans: when they
   happen inside a packet handler (a Report arriving) they chain under
   that packet's receive span, which is how "graft sent because a
   listener appeared" becomes one causal story. *)
let lmld_event t name group =
  match Engine.Sim.lineage t.env.Mld_env.sim with
  | None -> ()
  | Some c ->
    ignore
      (Engine.Span.event c ~at:(Engine.Sim.now t.env.Mld_env.sim)
         ~name:(Engine.Span.intern c name)
         ~node:t.env.Mld_env.label
         ~attrs:[ ("group", Addr.to_string group) ]
         ())

let remove_membership t group m =
  Engine.Timer.stop m.expiry;
  Hashtbl.remove t.members group;
  trace t (Mld_event.No_listeners { label = label t; group });
  lmld_event t "mld-listener-removed" group;
  t.callbacks.listener_removed group

let stop t =
  t.running <- false;
  Engine.Timer.stop t.query_timer;
  (match t.role with
   | Non_querier { other_querier } -> Engine.Timer.stop other_querier
   | Querier -> ());
  t.role <- Querier;
  touch t;
  let entries = Hashtbl.fold (fun g m acc -> (g, m) :: acc) t.members [] in
  List.iter (fun (_, m) -> Engine.Timer.stop m.expiry) entries;
  Hashtbl.reset t.members

let refresh_membership t group =
  let lifetime = Mld_config.multicast_listener_interval (config t) in
  match Hashtbl.find_opt t.members group with
  | Some m -> Engine.Timer.start m.expiry lifetime
  | None ->
    let expiry =
      Engine.Timer.create ~category:"mld" t.env.Mld_env.sim
        ~name:(t.env.Mld_env.label ^ ".member." ^ Addr.to_string group)
        ~on_expire:(fun () ->
          match Hashtbl.find_opt t.members group with
          | Some m -> remove_membership t group m
          | None -> ())
    in
    Hashtbl.replace t.members group { expiry };
    Engine.Timer.start expiry lifetime;
    trace t (Mld_event.New_listener { label = label t; group });
    lmld_event t "mld-listener-added" group;
    t.callbacks.listener_added group

let become_non_querier t ~observed_querier:_ =
  (* Stop our own queries; if the other querier goes silent for the
     Other-Querier-Present interval, take over again. *)
  (match t.role with
   | Non_querier { other_querier } ->
     Engine.Timer.start other_querier (Mld_config.other_querier_present_interval (config t))
   | Querier ->
     let other_querier =
       Engine.Timer.create ~category:"mld" t.env.Mld_env.sim ~name:(t.env.Mld_env.label ^ ".oqp")
         ~on_expire:(fun () ->
           if t.running then begin
             trace t (Mld_event.Querier_resumed (label t));
             t.role <- Querier;
             touch t;
             send_general_query t;
             schedule_next_query t
           end)
     in
     t.role <- Non_querier { other_querier };
     touch t;
     Engine.Timer.stop t.query_timer;
     Engine.Timer.start other_querier (Mld_config.other_querier_present_interval (config t));
     trace t (Mld_event.Querier_deferred (label t)))

let handle_query t ~src =
  (* Querier election: lower source address wins (RFC 2710 section 6). *)
  if Addr.compare src (t.env.Mld_env.local_address ()) < 0 then
    become_non_querier t ~observed_querier:src

let send_specific_queries t group =
  match t.role with
  | Non_querier _ -> ()
  | Querier ->
    let llqi = (config t).Mld_config.last_listener_query_interval in
    let count = (config t).Mld_config.robustness in
    let rec send_nth n =
      if n < count && t.running && Hashtbl.mem t.members group then begin
        t.env.Mld_env.send
          (Mld_env.make_query t.env ~group:(Some group) ~max_response_delay:llqi);
        trace t (Mld_event.Group_query_sent { label = label t; group });
        ignore
          (Engine.Sim.schedule_after ~category:"mld" t.env.Mld_env.sim llqi (fun () -> send_nth (n + 1)))
      end
    in
    send_nth 0

let handle_done t group =
  (* A Done only accelerates expiry; listeners that still exist will
     answer the group-specific queries and refresh the timer. *)
  match Hashtbl.find_opt t.members group with
  | None -> ()
  | Some m ->
    let llqi = (config t).Mld_config.last_listener_query_interval in
    let deadline = float_of_int (config t).Mld_config.robustness *. llqi in
    Engine.Timer.start m.expiry deadline;
    send_specific_queries t group

let handle t ~src msg =
  if t.running then
    match (msg : Mld_message.t) with
    | Query _ -> handle_query t ~src
    | Report { group } -> refresh_membership t group
    | Done { group } -> handle_done t group

let groups t =
  Hashtbl.fold (fun g _ acc -> g :: acc) t.members [] |> List.sort Addr.compare

let has_listeners t group = Hashtbl.mem t.members group

let is_querier t =
  match t.role with
  | Querier -> true
  | Non_querier _ -> false

let is_running t = t.running
let generation t = t.generation

let listener_deadline t group =
  match Hashtbl.find_opt t.members group with
  | None -> None
  | Some m -> Engine.Timer.expiry m.expiry
