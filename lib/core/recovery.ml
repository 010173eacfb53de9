open Ipv6

(* One (mark, host) anchor, awaiting its first post-mark datagram. *)
type anchor = {
  label : string;
  at : Engine.Time.t;
  host_name : string;
  mutable recovered_at : Engine.Time.t option;
}

type t = {
  sim : Engine.Sim.t;
  group : Addr.t;
  hosts : string list;
  mutable anchors : anchor list;  (* newest first *)
}

type sample = {
  fault_label : string;
  fault_at : Engine.Time.t;
  host : string;
  recovery_s : float option;
}

type report = {
  samples : sample list;
  mean_recovery_s : float option;
  max_recovery_s : float option;
  unrecovered : int;
}

let on_reception t host_name =
  let now = Engine.Sim.now t.sim in
  List.iter
    (fun a ->
      if
        a.recovered_at = None
        && String.equal a.host_name host_name
        && Engine.Time.compare a.at now <= 0
      then a.recovered_at <- Some now)
    t.anchors

let anchor t ~label ~at =
  t.anchors <-
    List.rev_append
      (List.rev_map
         (fun host_name -> { label; at; host_name; recovered_at = None })
         t.hosts)
      t.anchors

let create ?(onsets = false) scenario ~group ~hosts marks =
  let t = { sim = scenario.Scenario.sim; group; hosts; anchors = [] } in
  List.iter
    (fun name ->
      let stack = Scenario.host scenario name in
      Host_stack.add_data_observer stack (fun ~group:g _packet ->
          if Addr.equal g t.group then on_reception t name))
    hosts;
  List.iter
    (fun (m : Faults.mark) ->
      if m.repair || onsets then anchor t ~label:m.fault_label ~at:m.fault_at)
    marks;
  t

let note_fault t ~label time =
  let now = Engine.Sim.now t.sim in
  if Engine.Time.compare time now < 0 then
    invalid_arg
      (Printf.sprintf "Recovery.note_fault: mark %S at %g is in the past (now %g)" label time
         now);
  anchor t ~label ~at:time

let report t =
  (* A repair the clock has not reached yet has nothing to recover
     from: it is no sample, recovered or not. *)
  let now = Engine.Sim.now t.sim in
  let samples =
    t.anchors
    |> List.filter (fun a -> Engine.Time.compare a.at now <= 0)
    |> List.rev_map (fun a ->
           { fault_label = a.label;
             fault_at = a.at;
             host = a.host_name;
             recovery_s =
               Option.map (fun r -> Engine.Time.seconds r -. Engine.Time.seconds a.at)
                 a.recovered_at })
    |> List.stable_sort (fun a b -> Engine.Time.compare a.fault_at b.fault_at)
  in
  let recovered = List.filter_map (fun s -> s.recovery_s) samples in
  let mean_recovery_s =
    match recovered with
    | [] -> None
    | _ ->
      Some (List.fold_left ( +. ) 0.0 recovered /. float_of_int (List.length recovered))
  in
  let max_recovery_s =
    match recovered with
    | [] -> None
    | r :: rest -> Some (List.fold_left Float.max r rest)
  in
  let unrecovered = List.length samples - List.length recovered in
  { samples; mean_recovery_s; max_recovery_s; unrecovered }

let pp_report ppf r =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun s ->
      match s.recovery_s with
      | Some d ->
        Format.fprintf ppf "%-24s t=%-8.2f %-4s recovered in %.3fs@," s.fault_label
          (Engine.Time.seconds s.fault_at) s.host d
      | None ->
        Format.fprintf ppf "%-24s t=%-8.2f %-4s UNRECOVERED@," s.fault_label
          (Engine.Time.seconds s.fault_at) s.host)
    r.samples;
  (match (r.mean_recovery_s, r.max_recovery_s) with
   | Some mean, Some max ->
     Format.fprintf ppf "mean %.3fs, max %.3fs, %d unrecovered" mean max r.unrecovered
   | _ -> Format.fprintf ppf "no recovered samples, %d unrecovered" r.unrecovered);
  Format.fprintf ppf "@]"
