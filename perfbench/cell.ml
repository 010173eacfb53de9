(* One simulation as the benchmark runs it: built, instrumented and run
   through the libraries' public functions only, with a span from
   [Tracer] around each call into a layer. *)

open Mmcast
module Monitor = Check.Monitor
module Desc = Scale.Desc

type decider = kind:Engine.Sim.choice_kind -> arity:int -> int

(* The Figure-1 script: subscriptions at 5 s, a 100 Hz stream of
   500-byte datagrams from S between 10 s and [fig1_seconds - 10], and
   R3 moving between L4 and L6 every 30 s.  The seed sets the phase of
   the first move (40-49 s), so a held-out seed hands over at other
   points of the MLD query cycle. *)
let fig1_seconds = 120.0

let fig1_first_move seed = 40.0 +. float_of_int (((seed mod 10) + 10) mod 10)

(* Per-hop delay exploration for the explore workload, as
   [Explore.Explorer.explore] configures it by default; only consulted
   when a decider is installed. *)
let explore_delay_slots = 3
let explore_delay_max = 0.05

type script =
  | Fig1 of { approach : Approach.t; seed : int; wire : bool }
  | Generated of {
      desc : Desc.t;
      approach : Approach.t;
      sustain : Engine.Time.t option;
      decider : decider option;
    }

type opts = { monitor : bool; lineage : bool; capture : bool; profile : bool }

(* The profiling clock handed to [Engine.Sim.enable_profiling].  The
   engine calls it once as a handler starts and once as it ends, so the
   host time between an end and the next start — queue pops and the
   run loop — is the engine's own dispatch time.  Handler seconds plus
   these gaps equal the run's wall time by construction, provided the
   calls pair up: [calls] counts them, and [inside] tells whether the
   last one opened a handler. *)
type clock = {
  mutable last : float;
  mutable inside : bool;
  mutable gaps : float;
  mutable calls : int;
}

let tick c () =
  let now = Unix.gettimeofday () in
  if c.inside then c.inside <- false
  else begin
    c.gaps <- c.gaps +. (now -. c.last);
    c.inside <- true
  end;
  c.calls <- c.calls + 1;
  c.last <- now;
  now

type t = {
  label : string;
  scenario : Scenario.t;
  monitor : Monitor.t option;
  lineage : Obs.Lineage.t option;
  capture : Obs.Capture.t option;
  clock : clock option;
  until : Engine.Time.t;
  groups : Ipv6.Addr.t list;
  senders : string list;
  mutable run_wall : float;
  mutable digest : string;
}

let label_of approach = Printf.sprintf "a%d" (Approach.number approach)

(* [Scale.Runner] compiles descriptor faults the same way; its helper
   is private. *)
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

let fig1_traffic sc ~seed =
  Traffic.at sc 5.0 (fun () -> Scenario.subscribe_receivers sc Scenario.group);
  ignore
    (Traffic.cbr sc (Scenario.host sc "S") ~group:Scenario.group ~from_t:10.0
       ~until:(fig1_seconds -. 10.0) ~interval:0.01 ~bytes:500);
  let r3 = Scenario.host sc "R3" in
  let rec hops at to_l6 =
    if at < fig1_seconds -. 10.0 then begin
      Traffic.at sc at (fun () ->
          Host_stack.move_to r3 (Scenario.link sc (if to_l6 then "L6" else "L4")));
      hops (at +. 30.0) (not to_l6)
    end
  in
  hops (fig1_first_move seed) true

let generated_traffic sc (d : Desc.t) =
  let host name = Scenario.host sc name in
  List.iter
    (fun ev ->
      Traffic.at sc (Desc.event_time ev) (fun () ->
          match ev with
          | Desc.Join { host = h; group; _ } -> Host_stack.subscribe (host h) (Desc.group_addr group)
          | Desc.Leave { host = h; group; _ } ->
            Host_stack.unsubscribe (host h) (Desc.group_addr group)
          | Desc.Move { host = h; link; _ } -> Host_stack.move_to (host h) (Scenario.link sc link)))
    d.Desc.d_events;
  let tr = d.Desc.d_traffic in
  List.iter
    (fun (sender, group) ->
      ignore
        (Traffic.cbr sc (host sender) ~group:(Desc.group_addr group) ~from_t:tr.Desc.tr_from
           ~until:tr.Desc.tr_until ~interval:tr.Desc.tr_interval ~bytes:tr.Desc.tr_bytes))
    d.Desc.d_senders

(* Profiling is switched on right after the network is built, so every
   event the rest of set-up and the run schedule is timed. *)
let instrument (opts : opts) sc ~lineage_label =
  let clock =
    if opts.profile then begin
      let c = { last = 0.0; inside = false; gaps = 0.0; calls = 0 } in
      Engine.Sim.enable_profiling ~clock:(tick c) sc.Scenario.sim;
      Some c
    end
    else None
  in
  let lineage =
    if opts.lineage then begin
      let l = Obs.Lineage.create ~approach:lineage_label () in
      Obs.Lineage.attach l sc.Scenario.sim;
      Some l
    end
    else None
  in
  (clock, lineage)

let attach_capture (opts : opts) sc =
  if opts.capture then Some (Obs.Capture.attach sc.Scenario.net) else None

let build (opts : opts) script =
  match script with
  | Fig1 { approach; seed; wire } ->
    let label = label_of approach in
    let sc =
      Tracer.span "mmcast.build" (fun () ->
          Scenario.paper_figure1 { Scenario.default_spec with Scenario.approach; seed })
    in
    let clock, lineage = instrument opts sc ~lineage_label:label in
    if wire then Net.Network.set_wire_check sc.Scenario.net true;
    let monitor =
      if opts.monitor then Some (Tracer.span "check.attach" (fun () -> Monitor.attach sc))
      else None
    in
    let capture = attach_capture opts sc in
    Tracer.span "mmcast.traffic" (fun () -> fig1_traffic sc ~seed);
    { label; scenario = sc; monitor; lineage; capture; clock; until = fig1_seconds;
      groups = [ Scenario.group ]; senders = [ "S" ]; run_wall = 0.0; digest = "" }
  | Generated { desc = d; approach; sustain; decider } ->
    let label = label_of approach in
    (match Tracer.span "scale.validate" (fun () -> Desc.validate d) with
    | Ok () -> ()
    | Error msg -> invalid_arg (Printf.sprintf "%s: %s" d.Desc.d_name msg));
    let sc =
      Tracer.span "mmcast.build" (fun () ->
          Scenario.build (Scale.Runner.spec_for d approach) ~links:d.Desc.d_links
            ~routers:d.Desc.d_routers ~hosts:d.Desc.d_hosts)
    in
    let clock, lineage = instrument opts sc ~lineage_label:label in
    Option.iter
      (fun de ->
        Engine.Sim.set_decider sc.Scenario.sim (Some de);
        Net.Network.set_delay_exploration sc.Scenario.net ~slots:explore_delay_slots
          ~max_extra:explore_delay_max)
      decider;
    let faults =
      Tracer.span "faults.install" (fun () -> Scenario.install_faults sc (compile_faults sc d))
    in
    let monitor =
      if opts.monitor then
        let config = { Monitor.default_config with Monitor.sustain } in
        Some (Tracer.span "check.attach" (fun () -> Monitor.attach ~config ~faults sc))
      else None
    in
    let capture = attach_capture opts sc in
    Tracer.span "mmcast.traffic" (fun () -> generated_traffic sc d);
    { label; scenario = sc; monitor; lineage; capture; clock; until = d.Desc.d_duration;
      groups = List.map Desc.group_addr (Scale.Runner.groups_of d);
      senders = List.sort_uniq String.compare (List.map fst d.Desc.d_senders);
      run_wall = 0.0; digest = "" }

let profile c = Engine.Sim.profile c.scenario.Scenario.sim

let run c =
  let t0 = Unix.gettimeofday () in
  Option.iter (fun k -> k.last <- t0) c.clock;
  Tracer.span "engine.run_until" (fun () -> Scenario.run_until c.scenario c.until);
  let t1 = Unix.gettimeofday () in
  Option.iter (fun k -> k.gaps <- k.gaps +. (t1 -. k.last)) c.clock;
  c.run_wall <- t1 -. t0;
  Tracer.aggregate_children
    (List.map
       (fun (cat, p) ->
         ( "profile:" ^ cat,
           p.Engine.Sim.cat_seconds,
           [ ("events", string_of_int p.Engine.Sim.cat_events) ] ))
       (profile c));
  Option.iter Monitor.detach c.monitor;
  c.digest <-
    Tracer.span "engine.trace_digest" (fun () ->
        Engine.Trace.digest (Net.Network.trace c.scenario.Scenario.net))

let violations c = match c.monitor with None -> 0 | Some m -> Monitor.violation_count m

let host_totals c h =
  List.fold_left
    (fun (rx, dup) group ->
      (rx + Host_stack.received_count h ~group, dup + Host_stack.duplicate_count h ~group))
    (0, 0) c.groups

let sums c =
  let sent =
    List.fold_left
      (fun acc name -> acc + Host_stack.data_sent (Scenario.host c.scenario name))
      0 c.senders
  in
  let rx, dup =
    List.fold_left
      (fun (rx, dup) (_, h) ->
        let r, d = host_totals c h in
        (rx + r, dup + d))
      (0, 0) c.scenario.Scenario.hosts
  in
  (sent, rx, dup)

let sum_line ~label ~sent ~delivered ~duplicates ~violations =
  Printf.sprintf "%s sum sent=%d delivered=%d duplicates=%d violations=%d" label sent delivered
    duplicates violations

(* Simulated statistics that a change which only alters speed must
   keep.  Event counts, trace digests, monitor samples and span counts
   are left out on purpose: a faster monitor, trace or lineage store
   may legitimately change them. *)
let fingerprint c =
  let hosts =
    List.map
      (fun (name, h) ->
        let rx, dup = host_totals c h in
        Printf.sprintf "%s host %s sent=%d delivered=%d duplicates=%d" c.label name
          (Host_stack.data_sent h) rx dup)
      c.scenario.Scenario.hosts
  in
  let total = Net.Network.total_stats c.scenario.Scenario.net in
  let totals =
    Printf.sprintf "%s total packets=%d bytes=%d" c.label total.Net.Network.packets
      total.Net.Network.bytes
  in
  let sent, delivered, duplicates = sums c in
  let drops =
    match c.lineage with
    | None -> []
    | Some l ->
      [ Printf.sprintf "%s drops %s" c.label
          (String.concat " "
             (List.map (fun (r, n) -> Printf.sprintf "%s=%d" r n) (Obs.Lineage.drop_counts l))) ]
  in
  hosts
  @ [ totals; sum_line ~label:c.label ~sent ~delivered ~duplicates ~violations:(violations c) ]
  @ drops
