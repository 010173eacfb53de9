open Net
module Link_id = Ids.Link_id
module Node_id = Ids.Node_id

type spec =
  | Loss_window of {
      link : Link_id.t;
      rate : float;
      from_t : Engine.Time.t;
      until : Engine.Time.t;
    }
  | Duplicate_window of {
      link : Link_id.t;
      rate : float;
      from_t : Engine.Time.t;
      until : Engine.Time.t;
    }
  | Reorder_window of {
      link : Link_id.t;
      rate : float;
      jitter : Engine.Time.t;
      from_t : Engine.Time.t;
      until : Engine.Time.t;
    }
  | Corrupt_window of {
      link : Link_id.t;
      rate : float;
      from_t : Engine.Time.t;
      until : Engine.Time.t;
    }
  | Link_flap of {
      link : Link_id.t;
      down_at : Engine.Time.t;
      up_at : Engine.Time.t;
    }
  | Partition of {
      links : Link_id.t list;
      from_t : Engine.Time.t;
      until : Engine.Time.t;
    }
  | Crash of {
      node : Node_id.t;
      at : Engine.Time.t;
      recover_at : Engine.Time.t option;
    }

type schedule = spec list

let loss_window ~link ~rate ~from_t ~until = Loss_window { link; rate; from_t; until }

let duplicate_window ~link ~rate ~from_t ~until =
  Duplicate_window { link; rate; from_t; until }

let reorder_window ~link ~rate ~jitter ~from_t ~until =
  Reorder_window { link; rate; jitter; from_t; until }

let corrupt_window ~link ~rate ~from_t ~until =
  Corrupt_window { link; rate; from_t; until }

let link_flap ~link ~down_at ~up_at = Link_flap { link; down_at; up_at }
let partition ~links ~from_t ~until = Partition { links; from_t; until }
let crash ?recover_at ~node ~at () = Crash { node; at; recover_at }

let invalid fmt = Printf.ksprintf invalid_arg fmt

let check_rate what rate =
  if rate < 0.0 || rate > 1.0 then invalid "Faults: %s rate %g outside [0,1]" what rate

let check_window what ~from_t ~until =
  if from_t < 0.0 then invalid "Faults: %s starts at negative time %g" what from_t;
  if Engine.Time.compare until from_t <= 0 then
    invalid "Faults: %s window [%g, %g] ends before it starts" what from_t until

let validate_spec = function
  | Loss_window { rate; from_t; until; _ } ->
    check_rate "loss" rate;
    check_window "loss" ~from_t ~until
  | Duplicate_window { rate; from_t; until; _ } ->
    check_rate "duplicate" rate;
    check_window "duplicate" ~from_t ~until
  | Reorder_window { rate; jitter; from_t; until; _ } ->
    check_rate "reorder" rate;
    if jitter < 0.0 then invalid "Faults: negative reorder jitter %g" jitter;
    check_window "reorder" ~from_t ~until
  | Corrupt_window { rate; from_t; until; _ } ->
    check_rate "corrupt" rate;
    check_window "corrupt" ~from_t ~until
  | Link_flap { down_at; up_at; _ } -> check_window "flap" ~from_t:down_at ~until:up_at
  | Partition { links; from_t; until } ->
    if links = [] then invalid "Faults: empty partition";
    check_window "partition" ~from_t ~until
  | Crash { at; recover_at; _ } -> (
    if at < 0.0 then invalid "Faults: crash at negative time %g" at;
    match recover_at with
    | Some r when Engine.Time.compare r at <= 0 ->
      invalid "Faults: recovery at %g does not follow crash at %g" r at
    | Some _ | None -> ())

let validate schedule = List.iter validate_spec schedule

type mark = {
  fault_label : string;
  fault_at : Engine.Time.t;
  repair : bool;
}

let marks topo schedule =
  validate schedule;
  let link_name l = Topology.link_name topo l in
  let node_name n = Topology.node_name topo n in
  let of_spec = function
    | Loss_window { link; rate; from_t; until } ->
      let label verb = Printf.sprintf "loss(%s)%s%.2f" (link_name link) verb rate in
      [ { fault_label = label "+"; fault_at = from_t; repair = false };
        { fault_label = label "-"; fault_at = until; repair = true } ]
    | Duplicate_window { link; from_t; until; _ } ->
      [ { fault_label = Printf.sprintf "dup(%s)+" (link_name link);
          fault_at = from_t;
          repair = false };
        { fault_label = Printf.sprintf "dup(%s)-" (link_name link);
          fault_at = until;
          repair = true } ]
    | Reorder_window { link; from_t; until; _ } ->
      [ { fault_label = Printf.sprintf "reorder(%s)+" (link_name link);
          fault_at = from_t;
          repair = false };
        { fault_label = Printf.sprintf "reorder(%s)-" (link_name link);
          fault_at = until;
          repair = true } ]
    | Corrupt_window { link; rate; from_t; until } ->
      let label verb = Printf.sprintf "corrupt(%s)%s%.2f" (link_name link) verb rate in
      [ { fault_label = label "+"; fault_at = from_t; repair = false };
        { fault_label = label "-"; fault_at = until; repair = true } ]
    | Link_flap { link; down_at; up_at } ->
      [ { fault_label = Printf.sprintf "flap(%s) down" (link_name link);
          fault_at = down_at;
          repair = false };
        { fault_label = Printf.sprintf "flap(%s) up" (link_name link);
          fault_at = up_at;
          repair = true } ]
    | Partition { links; from_t; until } ->
      let names = String.concat "," (List.map link_name links) in
      [ { fault_label = Printf.sprintf "partition(%s) split" names;
          fault_at = from_t;
          repair = false };
        { fault_label = Printf.sprintf "partition(%s) heal" names;
          fault_at = until;
          repair = true } ]
    | Crash { node; at; recover_at } -> (
      let down =
        { fault_label = Printf.sprintf "crash(%s)" (node_name node);
          fault_at = at;
          repair = false }
      in
      match recover_at with
      | None -> [ down ]
      | Some r ->
        [ down;
          { fault_label = Printf.sprintf "crash(%s) restart" (node_name node);
            fault_at = r;
            repair = true } ])
  in
  List.concat_map of_spec schedule
  |> List.stable_sort (fun a b -> Engine.Time.compare a.fault_at b.fault_at)

type handlers = {
  crash_node : Node_id.t -> unit;
  recover_node : Node_id.t -> unit;
}

type window =
  | Loss
  | Duplication
  | Reordering of { jitter : string }
  | Corruption

type Engine.Trace.event +=
  | Window_opened of { window : window; link : string; rate : float }
  | Window_closed of { window : window; link : string }
  | Crashed of string
  | Restarted of string

let render l =
  let module L = Engine.Line in
  function
  | Window_opened { window; link; rate } ->
    L.add_string l
      (match window with
       | Loss -> "loss "
       | Duplication -> "duplication "
       | Reordering _ -> "reordering "
       | Corruption -> "corruption ");
    L.add_fixed l rate 2;
    (match window with
     | Reordering { jitter } ->
       L.add_string l " (max +";
       L.add_string l jitter;
       L.add_string l "s)"
     | Loss | Duplication | Corruption -> ());
    L.add_string l " on ";
    L.add_string l link;
    true
  | Window_closed { window; link } ->
    L.add_string l
      (match window with
       | Loss -> "loss"
       | Duplication -> "duplication"
       | Reordering _ -> "reorder"
       | Corruption -> "corruption");
    L.add_string l " window on ";
    L.add_string l link;
    L.add_string l " closed";
    true
  | Crashed node ->
    L.add_string l "crash ";
    L.add_string l node;
    true
  | Restarted node ->
    L.add_string l "restart ";
    L.add_string l node;
    true
  | _ -> false

let () = Engine.Trace.register render

type t = {
  net : Network.t;
  schedule : schedule;
  marks : mark list;
  mutable fired : int;
}

let schedule_of t = t.schedule
let marks_of t = t.marks
let events_fired t = t.fired

let install net ~handlers schedule =
  validate schedule;
  let topo = Network.topology net in
  let sim = Network.sim net in
  let trace = Network.trace net in
  let t = { net; schedule; marks = marks topo schedule; fired = 0 } in
  (* Corruption needs byte-exact frames to damage: a schedule with a
     corruption window implies wire-check delivery for the whole run
     (flipping it mid-run would make fault-free deliveries incomparable
     across the window boundary). *)
  if
    List.exists
      (function Corrupt_window _ -> true | _ -> false)
      schedule
  then Network.set_wire_check net true;
  let at time f =
    ignore
      (Engine.Sim.schedule_at ~category:"faults" sim time (fun () ->
           t.fired <- t.fired + 1;
           f ()))
  in
  let record event = Engine.Trace.record trace ~category:"fault" event in
  let link_name l = Topology.link_name topo l in
  let install_window ~from_t ~until ~read ~write ~window ~link ~rate =
    let link = link_name link in
    (* Save the ambient setting when the window opens, restore it when
       it closes, so windows compose with directly-set rates. *)
    let saved = ref None in
    at from_t (fun () ->
        saved := Some (read ());
        write ();
        record (Window_opened { window; link; rate }));
    at until (fun () ->
        (match !saved with
         | Some restore -> restore ()
         | None -> ());
        record (Window_closed { window; link }))
  in
  List.iter
    (fun spec ->
      match spec with
      | Loss_window { link; rate; from_t; until } ->
        install_window ~from_t ~until
          ~read:(fun () ->
            let prev = Network.loss_rate net link in
            fun () -> Network.set_loss_rate net link prev)
          ~write:(fun () -> Network.set_loss_rate net link rate)
          ~window:Loss ~link ~rate
      | Duplicate_window { link; rate; from_t; until } ->
        install_window ~from_t ~until
          ~read:(fun () ->
            let prev = Network.duplicate_rate net link in
            fun () -> Network.set_duplicate_rate net link prev)
          ~write:(fun () -> Network.set_duplicate_rate net link rate)
          ~window:Duplication ~link ~rate
      | Reorder_window { link; rate; jitter; from_t; until } ->
        install_window ~from_t ~until
          ~read:(fun () -> fun () -> Network.set_reorder net link ~rate:0.0 ~jitter:0.0)
          ~write:(fun () -> Network.set_reorder net link ~rate ~jitter)
          ~window:(Reordering { jitter = Printf.sprintf "%g" jitter })
          ~link ~rate
      | Corrupt_window { link; rate; from_t; until } ->
        install_window ~from_t ~until
          ~read:(fun () ->
            let prev = Network.corrupt_rate net link in
            fun () -> Network.set_corrupt_rate net link prev)
          ~write:(fun () -> Network.set_corrupt_rate net link rate)
          ~window:Corruption ~link ~rate
      | Link_flap { link; down_at; up_at } ->
        at down_at (fun () -> Network.set_link_up net link false);
        at up_at (fun () -> Network.set_link_up net link true)
      | Partition { links; from_t; until } ->
        at from_t (fun () -> List.iter (fun l -> Network.set_link_up net l false) links);
        at until (fun () -> List.iter (fun l -> Network.set_link_up net l true) links)
      | Crash { node; at = crash_at; recover_at } -> (
        (* Schedule exploration: crash/restart placement is a choice
           point.  Slot 0 keeps the specified instants (the canonical
           schedule); higher slots nudge the crash later — capped at
           half the outage so the crash still precedes recovery — and
           stretch the outage, probing races between failure placement
           and protocol timers.  Consulted at install time, before the
           simulation runs, in schedule order, so a recorded decision
           sequence replays exactly. *)
        let crash_at, recover_at =
          if Engine.Sim.decider_active sim then begin
            let offs = [| 0.0; 0.25; 0.75; 2.0 |] in
            let k =
              Engine.Sim.decide sim ~kind:Engine.Sim.Fault
                ~arity:(Array.length offs)
            in
            let off =
              match recover_at with
              | None -> offs.(k)
              | Some r -> min offs.(k) ((r -. crash_at) /. 2.0)
            in
            let stretch = [| 0.0; 0.5; 1.5 |] in
            let j =
              Engine.Sim.decide sim ~kind:Engine.Sim.Fault
                ~arity:(Array.length stretch)
            in
            ( Engine.Time.add crash_at off,
              Option.map (fun r -> Engine.Time.add r stretch.(j)) recover_at )
          end
          else (crash_at, recover_at)
        in
        at crash_at (fun () ->
            record (Crashed (Topology.node_name topo node));
            handlers.crash_node node);
        match recover_at with
        | None -> ()
        | Some time ->
          at time (fun () ->
              record (Restarted (Topology.node_name topo node));
              handlers.recover_node node)))
    schedule;
  t
