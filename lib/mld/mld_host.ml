open Ipv6

type group_state = {
  response : Engine.Timer.t;
  mutable last_reporter : bool;
  mutable pending_unsolicited : Engine.Sim.handle list;
}

type t = {
  env : Mld_env.t;
  groups : (Addr.t, group_state) Hashtbl.t;
  mutable running : bool;
}

let trace t event = Engine.Trace.record t.env.Mld_env.trace ~category:"mld" event
let label t = t.env.Mld_env.label

let create env = { env; groups = Hashtbl.create 4; running = true }

let send_report t group =
  t.env.Mld_env.send (Mld_env.make_report t.env ~group);
  trace t (Mld_event.Report_sent { label = label t; group });
  match Hashtbl.find_opt t.groups group with
  | Some st -> st.last_reporter <- true
  | None -> ()

let join t group =
  if t.running && not (Hashtbl.mem t.groups group) then begin
    let response =
      Engine.Timer.create ~category:"mld" t.env.Mld_env.sim
        ~name:(t.env.Mld_env.label ^ ".resp." ^ Addr.to_string group)
        ~on_expire:(fun () -> if t.running then send_report t group)
    in
    let st = { response; last_reporter = false; pending_unsolicited = [] } in
    Hashtbl.replace t.groups group st;
    trace t (Mld_event.Joined { label = label t; group });
    (* Unsolicited Reports shorten the join delay from O(TQuery) to a
       propagation time; with a count of 0 the host waits for the next
       General Query (paper, section 4.3.1). *)
    let cfg = t.env.Mld_env.config in
    let interval = cfg.Mld_config.unsolicited_report_interval in
    for i = 0 to cfg.Mld_config.unsolicited_report_count - 1 do
      if i = 0 then send_report t group
      else
        let handle =
          Engine.Sim.schedule_after ~category:"mld" t.env.Mld_env.sim (float_of_int i *. interval)
            (fun () -> if t.running && Hashtbl.mem t.groups group then send_report t group)
        in
        st.pending_unsolicited <- handle :: st.pending_unsolicited
    done
  end

let forget t group st =
  Engine.Timer.stop st.response;
  List.iter (Engine.Sim.cancel t.env.Mld_env.sim) st.pending_unsolicited;
  Hashtbl.remove t.groups group

let leave t group =
  match Hashtbl.find_opt t.groups group with
  | None -> ()
  | Some st ->
    (* Only the host whose Report was the last one on the link sends
       Done (RFC 2710 section 4); others left silently. *)
    if st.last_reporter && t.running then begin
      t.env.Mld_env.send (Mld_env.make_done t.env ~group);
      trace t (Mld_event.Done_sent { label = label t; group })
    end;
    forget t group st;
    trace t (Mld_event.Left { label = label t; group })

let schedule_response t group st ~max_delay =
  let delay = Engine.Rng.float t.env.Mld_env.rng (Engine.Time.seconds max_delay) in
  let replace =
    match Engine.Timer.remaining st.response with
    | None -> true
    | Some remaining -> Engine.Time.compare max_delay remaining < 0
  in
  if replace then begin
    Engine.Timer.start st.response delay;
    trace t (Mld_event.Response_scheduled { label = label t; group; delay })
  end

let handle_query t msg_group ~max_delay =
  match msg_group with
  | None ->
    Hashtbl.iter (fun group st -> schedule_response t group st ~max_delay) t.groups
  | Some group -> (
    match Hashtbl.find_opt t.groups group with
    | Some st -> schedule_response t group st ~max_delay
    | None -> ())

let handle_foreign_report t group =
  (* Report suppression: another listener answered for the group. *)
  match Hashtbl.find_opt t.groups group with
  | None -> ()
  | Some st ->
    if Engine.Timer.is_armed st.response then begin
      Engine.Timer.stop st.response;
      trace t (Mld_event.Report_suppressed { label = label t; group })
    end;
    st.last_reporter <- false

let handle t ~src:_ msg =
  if t.running then
    match (msg : Mld_message.t) with
    | Query { group; max_response_delay_ms } ->
      handle_query t group
        ~max_delay:(Engine.Time.of_milliseconds (float_of_int max_response_delay_ms))
    | Report { group } -> handle_foreign_report t group
    | Done _ -> ()

let stop t =
  t.running <- false;
  let entries = Hashtbl.fold (fun g st acc -> (g, st) :: acc) t.groups [] in
  List.iter (fun (g, st) -> forget t g st) entries

let joined t = Hashtbl.fold (fun g _ acc -> g :: acc) t.groups [] |> List.sort Addr.compare

let is_joined t group = Hashtbl.mem t.groups group

let pending_response_at t group =
  match Hashtbl.find_opt t.groups group with
  | None -> None
  | Some st -> Engine.Timer.expiry st.response
