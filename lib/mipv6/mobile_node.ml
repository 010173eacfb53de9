open Ipv6

type env = {
  sim : Engine.Sim.t;
  trace : Engine.Trace.t;
  config : Mipv6_config.t;
  send : Packet.t -> unit;
  label : string;
}

type location =
  | At_home
  | Foreign of { care_of : Addr.t; mutable acked : bool }

type t = {
  env : env;
  home_address : Addr.t;
  home_agent : Addr.t;
  mutable location : location;
  mutable sequence : int;
  mutable groups : Addr.t list;
  mutable sent : int;
  refresh : Engine.Timer.t;
  retransmit : Engine.Timer.t;
  mutable backoff : Engine.Time.t;
}

let trace t event = Engine.Trace.record t.env.trace ~category:"mipv6" event

let home_address t = t.home_address
let home_agent t = t.home_agent

let care_of t =
  match t.location with
  | At_home -> None
  | Foreign { care_of; _ } -> Some care_of

let is_registered t =
  match t.location with
  | At_home -> false
  | Foreign { acked; _ } -> acked || not t.env.config.Mipv6_config.request_ack

let advertised_groups t = t.groups

let sequence t = t.sequence
let binding_updates_sent t = t.sent

let build_binding_update t ~care_of ~lifetime_s =
  t.sequence <- t.sequence + 1;
  let sub_options =
    match t.groups with
    | [] -> []
    | groups -> [ Packet.Multicast_group_list groups ]
  in
  let bu =
    { Packet.sequence = t.sequence;
      lifetime_s;
      home_registration = true;
      care_of;
      sub_options }
  in
  (* The care-of address is the source; the Home Address option tells
     the home agent whose binding to update. *)
  Packet.make ~src:care_of ~dst:t.home_agent
    ~dest_options:[ Packet.Binding_update bu; Packet.Home_address t.home_address ]
    Packet.Empty

let send_registration t ~care_of =
  let lifetime_s = int_of_float (Engine.Time.seconds t.env.config.Mipv6_config.binding_lifetime) in
  let packet = build_binding_update t ~care_of ~lifetime_s in
  t.sent <- t.sent + 1;
  t.env.send packet;
  trace t
    (Mipv6_event.Binding_update_sent
       { label = t.env.label; sequence = t.sequence; care_of; groups = List.length t.groups });
  if t.env.config.Mipv6_config.request_ack then begin
    Engine.Timer.start t.retransmit t.backoff
  end

let schedule_refresh t =
  let cfg = t.env.config in
  let interval =
    Engine.Time.seconds cfg.Mipv6_config.binding_lifetime *. cfg.Mipv6_config.refresh_fraction
  in
  Engine.Timer.start t.refresh interval

let registration_tick t =
  match t.location with
  | At_home -> ()
  | Foreign { care_of; _ } ->
    send_registration t ~care_of;
    schedule_refresh t

let create env ~home_address ~home_agent =
  let rec t =
    lazy
      { env;
        home_address;
        home_agent;
        location = At_home;
        sequence = 0;
        groups = [];
        sent = 0;
        refresh =
          Engine.Timer.create ~category:"mipv6" env.sim ~name:(env.label ^ ".refresh") ~on_expire:(fun () ->
              registration_tick (Lazy.force t));
        retransmit =
          Engine.Timer.create ~category:"mipv6" env.sim ~name:(env.label ^ ".rexmt") ~on_expire:(fun () ->
              let t = Lazy.force t in
              match t.location with
              | Foreign { acked = false; care_of } ->
                (* Exponential backoff, capped (draft section 10.10). *)
                t.backoff <-
                  Engine.Time.min
                    (2.0 *. t.backoff)
                    t.env.config.Mipv6_config.ack_max_timeout;
                send_registration t ~care_of
              | Foreign _ | At_home -> ());
        backoff = env.config.Mipv6_config.ack_initial_timeout }
  in
  Lazy.force t

let set_advertised_groups ?(notify = true) t groups =
  let changed = not (List.equal Addr.equal groups t.groups) in
  t.groups <- groups;
  if changed && notify then
    match t.location with
    | Foreign { care_of; _ } ->
      send_registration t ~care_of;
      schedule_refresh t
    | At_home -> ()

let attach_foreign t ~care_of =
  t.location <- Foreign { care_of; acked = false };
  t.backoff <- t.env.config.Mipv6_config.ack_initial_timeout;
  send_registration t ~care_of;
  schedule_refresh t

let attach_home t =
  (match t.location with
   | Foreign _ ->
     (* Deregister: a Binding Update with the home address as care-of
        and lifetime 0, sent from home. *)
     let packet = build_binding_update t ~care_of:t.home_address ~lifetime_s:0 in
     t.sent <- t.sent + 1;
     t.env.send packet;
     trace t (Mipv6_event.Deregistration_sent t.env.label)
   | At_home -> ());
  t.location <- At_home;
  Engine.Timer.stop t.refresh;
  Engine.Timer.stop t.retransmit

let refresh_now t = registration_tick t

let handle_ack t (ack : Packet.binding_ack) =
  match t.location with
  | At_home -> ()
  | Foreign foreign ->
    if ack.Packet.ack_sequence = t.sequence && ack.Packet.status = 0 then begin
      foreign.acked <- true;
      t.backoff <- t.env.config.Mipv6_config.ack_initial_timeout;
      Engine.Timer.stop t.retransmit;
      trace t (Mipv6_event.Binding_acknowledged { label = t.env.label; sequence = t.sequence })
    end
    else if ack.Packet.status <> 0 then
      trace t
        (Mipv6_event.Binding_rejected
           { label = t.env.label; sequence = ack.Packet.ack_sequence; status = ack.Packet.status })

let stop t =
  Engine.Timer.stop t.refresh;
  Engine.Timer.stop t.retransmit
