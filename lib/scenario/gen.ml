module Rng = Engine.Rng

type model = [ `Waxman | `Pref ]

let model_name = function `Waxman -> "waxman" | `Pref -> "pref"

let model_of_name = function
  | "waxman" -> Some `Waxman
  | "pref" -> Some `Pref
  | _ -> None

let stub i = Printf.sprintf "S%d" i
let backbone i = Printf.sprintf "B%d" i
let stub_prefix i = Printf.sprintf "2001:db8:100:%x::/64" i
let backbone_prefix i = Printf.sprintf "2001:db8:200:%x::/64" i

(* ---- router-graph generators ---- *)

let dedup_edges edges =
  let norm (a, b) = if a < b then (a, b) else (b, a) in
  List.sort_uniq compare (List.map norm edges)

(* Union-find over router indices; used to patch Waxman graphs up to
   connectivity deterministically. *)
let uf_root parent i =
  let rec go i = if parent.(i) = i then i else go parent.(i) in
  go i

let uf_union parent a b =
  let ra = uf_root parent a and rb = uf_root parent b in
  if ra <> rb then parent.(Stdlib.max ra rb) <- Stdlib.min ra rb

let waxman_edges ?(alpha = 0.4) ?(beta = 0.4) ~seed ~routers () =
  if routers < 1 then invalid_arg "Gen.waxman_edges: need at least one router";
  if alpha < 0.0 || alpha > 1.0 then invalid_arg "Gen.waxman_edges: alpha outside [0,1]";
  if beta <= 0.0 then invalid_arg "Gen.waxman_edges: beta must be positive";
  let rng = Engine.Rng.create (0x3a11 lxor seed) in
  (* Router positions in the unit square; drawn in index order with
     explicit lets so the stream consumption is evaluation-order
     independent. *)
  let pos =
    Array.init routers (fun _ ->
        let x = Engine.Rng.float rng 1.0 in
        let y = Engine.Rng.float rng 1.0 in
        (x, y))
  in
  let dist i j =
    let xi, yi = pos.(i) and xj, yj = pos.(j) in
    Float.hypot (xi -. xj) (yi -. yj)
  in
  let scale = Float.sqrt 2.0 *. beta in
  let edges = ref [] in
  for i = 0 to routers - 1 do
    for j = i + 1 to routers - 1 do
      let p = alpha *. Float.exp (-.dist i j /. scale) in
      if Engine.Rng.float rng 1.0 < p then edges := (i, j) :: !edges
    done
  done;
  (* Patch up connectivity: walk routers in index order and tie every
     node in a fresh component to its nearest already-connected
     predecessor — the edge a Waxman process would most likely have
     drawn anyway. *)
  let parent = Array.init routers (fun i -> i) in
  List.iter (fun (a, b) -> uf_union parent a b) !edges;
  for i = 1 to routers - 1 do
    if uf_root parent i <> uf_root parent 0 then begin
      let best = ref 0 in
      for j = 1 to i - 1 do
        if uf_root parent j = uf_root parent 0 && dist i j < dist i !best then best := j
      done;
      edges := (!best, i) :: !edges;
      uf_union parent !best i
    end
  done;
  dedup_edges !edges

let pref_attach_edges ?(m = 2) ~seed ~routers () =
  if routers < 1 then invalid_arg "Gen.pref_attach_edges: need at least one router";
  if m < 1 then invalid_arg "Gen.pref_attach_edges: m must be at least 1";
  let rng = Engine.Rng.create (0xba11 lxor seed) in
  let degree = Array.make routers 0 in
  let edges = ref [] in
  for i = 1 to routers - 1 do
    let targets = Stdlib.min m i in
    let chosen = ref [] in
    while List.length !chosen < targets do
      (* Linear preferential attachment with +1 smoothing so isolated
         early nodes stay reachable as targets. *)
      let total = ref 0 in
      for j = 0 to i - 1 do
        if not (List.mem j !chosen) then total := !total + degree.(j) + 1
      done;
      let pick = Engine.Rng.int rng !total in
      let acc = ref 0 and hit = ref (-1) in
      for j = 0 to i - 1 do
        if !hit < 0 && not (List.mem j !chosen) then begin
          acc := !acc + degree.(j) + 1;
          if pick < !acc then hit := j
        end
      done;
      chosen := !hit :: !chosen
    done;
    List.iter
      (fun j ->
        edges := (j, i) :: !edges;
        degree.(j) <- degree.(j) + 1;
        degree.(i) <- degree.(i) + 1)
      (List.rev !chosen)
  done;
  dedup_edges !edges

(* Settled tail after the last disruption: the monitor's convergence
   bound for the tightened Runner spec, whichever approach is slowest,
   plus a scheduling margin. *)
let settle_bound d =
  List.fold_left
    (fun acc a -> Float.max acc (Check.Monitor.bound_for_spec (Runner.spec_for d a)))
    0.0 Mmcast.Approach.all
  +. 15.0

let base ~name ~seed ~edges ~routers =
  let links =
    List.init routers (fun i -> (stub i, stub_prefix i))
    @ List.mapi (fun k _ -> (backbone k, backbone_prefix k)) edges
  in
  let attachments = Array.make routers [] in
  List.iteri
    (fun k (a, b) ->
      attachments.(a) <- backbone k :: attachments.(a);
      attachments.(b) <- backbone k :: attachments.(b))
    edges;
  let router_specs =
    List.init routers (fun i -> (Printf.sprintf "N%d" i, stub i :: List.rev attachments.(i), [ stub i ]))
  in
  { Desc.d_name = name;
    d_seed = seed;
    d_links = links;
    d_routers = router_specs;
    d_hosts = [];
    d_senders = [];
    d_traffic = { Desc.tr_from = 5.0; tr_until = 0.0; tr_interval = 1.0; tr_bytes = 256 };
    d_events = [];
    d_faults = [];
    d_windows = [];
    d_duration = 0.0;
    d_disable_graft = false;
    d_wire_check = false }

let scenario ?(model = `Waxman) ?hosts ?(groups = 1) ?(mobiles = 2) ?(churn = 6)
    ?(faults = 2) ?alpha ?beta ?m ~routers ~seed () =
  if routers < 2 then invalid_arg "Gen.scenario: need at least two routers";
  if groups < 1 then invalid_arg "Gen.scenario: need at least one group";
  let hosts = match hosts with Some h -> h | None -> Stdlib.max 4 (routers / 5) in
  if hosts < groups + 1 then invalid_arg "Gen.scenario: need more hosts than groups";
  let edges =
    match model with
    | `Waxman -> waxman_edges ?alpha ?beta ~seed ~routers ()
    | `Pref -> pref_attach_edges ?m ~seed ~routers ()
  in
  let name = Printf.sprintf "%s-r%d-s%d" (model_name model) routers seed in
  let d = base ~name ~seed ~edges ~routers in
  let rng = Rng.create (0x5ca1e lxor seed) in
  (* Hosts on random stubs; drawn in index order. *)
  let host_specs =
    List.init hosts (fun h -> (Printf.sprintf "H%d" h, stub (Rng.int rng routers)))
  in
  (* One sender per group: H0 serves group 0, H1 group 1, ... *)
  let senders = List.init groups (fun g -> (Printf.sprintf "H%d" g, g)) in
  let receiver_names =
    List.filteri (fun i _ -> i >= groups) (List.map fst host_specs)
  in
  (* Every receiver joins its round-robin group early; the initial
     subscription wave is the flood-and-prune warm-up. *)
  let joined = Hashtbl.create 16 in
  let initial_joins =
    List.mapi
      (fun i h ->
        let group = i mod groups in
        Hashtbl.replace joined h group;
        Desc.Join { at = 6.0 +. Rng.float rng 8.0; host = h; group })
      receiver_names
  in
  let receivers = Array.of_list receiver_names in
  (* Leave/rejoin toggles exercise prune then graft on a warm tree. *)
  let toggles =
    List.concat
      (List.init churn (fun _ ->
           let h = Rng.pick rng receivers in
           let group = Hashtbl.find joined h in
           let t_leave = Rng.uniform rng 15.0 45.0 in
           let t_back = t_leave +. Rng.uniform rng 5.0 15.0 in
           [ Desc.Leave { at = t_leave; host = h; group };
             Desc.Join { at = t_back; host = h; group } ]))
  in
  (* Handover churn: the first [mobiles] hosts (senders included, so
     the send path of each approach roams too) visit a foreign stub;
     about half return home. *)
  let all_hosts = Array.of_list (List.map fst host_specs) in
  let home_of = Hashtbl.create 16 in
  List.iter (fun (h, home) -> Hashtbl.replace home_of h home) host_specs;
  let move_destinations = ref [] in
  let moves =
    List.concat
      (List.init (Stdlib.min mobiles hosts) (fun i ->
           let h = all_hosts.(i) in
           let home = Hashtbl.find home_of h in
           let draw = Rng.int rng routers in
           let dest_i = if String.equal (stub draw) home then (draw + 1) mod routers else draw in
           let dest = stub dest_i in
           move_destinations := dest :: !move_destinations;
           let t_away = Rng.uniform rng 20.0 50.0 in
           let back = Rng.bool rng in
           let t_home = t_away +. Rng.uniform rng 8.0 18.0 in
           Desc.Move { at = t_away; host = h; link = dest }
           :: (if back then [ Desc.Move { at = t_home; host = h; link = home } ] else [])))
  in
  (* Faults: backbone impairments plus recoverable crashes of routers
     that neither home a host nor receive a visiting mobile — a crashed
     home agent black-holes tunnelled delivery by design. *)
  let backbones = Array.init (List.length edges) backbone in
  let homed_or_visited =
    List.map snd host_specs @ !move_destinations
  in
  let crashable =
    Array.of_list
      (List.filter_map
         (fun i ->
           if List.mem (stub i) homed_or_visited then None
           else Some (Printf.sprintf "N%d" i))
         (List.init routers Fun.id))
  in
  let fault_specs =
    List.init faults (fun _ ->
        let from_t = Rng.uniform rng 25.0 55.0 in
        match Rng.int rng 3 with
        | 0 when Array.length backbones > 0 ->
          let link = Rng.pick rng backbones in
          let rate = Rng.uniform rng 0.1 0.4 in
          Desc.Loss { link; rate; from_t; until = from_t +. Rng.uniform rng 5.0 15.0 }
        | 1 when Array.length backbones > 0 ->
          let link = Rng.pick rng backbones in
          Desc.Flap { link; down_at = from_t; up_at = from_t +. Rng.uniform rng 2.0 6.0 }
        | _ when Array.length crashable > 0 ->
          let router = Rng.pick rng crashable in
          Desc.Crash { router; at = from_t; recover_at = from_t +. Rng.uniform rng 5.0 15.0 }
        | _ ->
          let link = Rng.pick rng backbones in
          Desc.Loss { link; rate = 0.2; from_t; until = from_t +. 10.0 })
  in
  let events =
    List.sort
      (fun a b -> compare (Desc.event_time a) (Desc.event_time b))
      (initial_joins @ toggles @ moves)
  in
  let last_disruption =
    List.fold_left
      (fun acc f ->
        Float.max acc
          (match f with
          | Desc.Loss { until; _ } -> until
          | Desc.Flap { up_at; _ } -> up_at
          | Desc.Crash { recover_at; _ } -> recover_at))
      (List.fold_left (fun acc e -> Float.max acc (Desc.event_time e)) 0.0 events)
      fault_specs
  in
  let d = { d with Desc.d_hosts = host_specs; d_senders = senders } in
  let duration = last_disruption +. settle_bound d in
  { d with
    Desc.d_events = events;
    d_faults = fault_specs;
    d_duration = duration;
    d_traffic = { d.Desc.d_traffic with Desc.tr_until = duration -. 5.0 } }

let broken ?(routers = 5) ~seed () =
  (* m = 1 preferential attachment is a random tree.  That matters: on
     a cyclic graph the cross-LAN assert winner keeps forwarding (there
     is no prune-toward-winner), so branches never fully prune and a
     late join gets data without a Graft.  On a tree, prunes propagate
     to the first hop and only a Graft can restore a branch — which is
     exactly the knob this variant breaks. *)
  let edges = pref_attach_edges ~m:1 ~seed ~routers () in
  let name = Printf.sprintf "broken-graft-r%d-s%d" routers seed in
  let d = base ~name ~seed ~edges ~routers in
  let rng = Rng.create (0xb40ce lxor seed) in
  let h0_i = Rng.int rng routers in
  let draw = Rng.int rng routers in
  let h1_i = if draw = h0_i then (draw + 1) mod routers else draw in
  let h2_i = Rng.int rng routers in
  let h0 = stub h0_i in
  let hosts = [ ("H0", h0); ("H1", stub h1_i); ("H2", stub h2_i) ] in
  (* No initial receivers: the first datagrams flood, then every branch
     prunes.  H1's join at 30 s can only be served by a Graft — which
     this variant has disabled.  Everything else is noise the shrinker
     must strip: H2's short-lived join ends before the sustain window
     closes, the move and the faults never matter. *)
  let events =
    [ Desc.Move { at = 20.0; host = "H2"; link = h0 };
      Desc.Join { at = 30.0; host = "H1"; group = 0 };
      Desc.Join { at = 32.0; host = "H2"; group = 0 };
      Desc.Leave { at = 40.0; host = "H2"; group = 0 } ]
  in
  let faults =
    match Desc.backbone_links { d with Desc.d_hosts = hosts; d_duration = 60.0 } with
    | [] -> []
    | b :: _ ->
      [ Desc.Loss { link = b; rate = 0.15; from_t = 22.0; until = 28.0 };
        Desc.Flap { link = b; down_at = 44.0; up_at = 46.0 } ]
  in
  { d with
    Desc.d_hosts = hosts;
    d_senders = [ ("H0", 0) ];
    d_events = events;
    d_faults = faults;
    d_duration = 60.0;
    d_traffic = { Desc.tr_from = 5.0; tr_until = 55.0; tr_interval = 0.5; tr_bytes = 256 };
    d_disable_graft = true }

let clean ?routers ~seed () =
  let d = broken ?routers ~seed () in
  { d with
    Desc.d_name =
      Printf.sprintf "clean-graft-r%d-s%d" (List.length d.Desc.d_routers) seed;
    d_disable_graft = false }

(* Faults live in [30, 140] s and handoffs in [40, 130] s: every
   disruption is repaired with a settled tail (~100 s, longer than the
   convergence bound of [Runner.spec_for]) left before the run ends. *)
let soak_links = [| "L1"; "L2"; "L3"; "L4"; "L5"; "L6" |]
let soak_crashable = [| "A"; "B"; "C"; "E" |]
let soak_roam_links = [| "L1"; "L2"; "L6" |]

let soak ~seed =
  (* The schedule RNG is its own root, so fault placement never
     perturbs the protocol streams.  Draws happen in a fixed order with
     explicit lets: a seed names one schedule whatever the argument
     evaluation order. *)
  let rng = Rng.create (0x50a50a lxor seed) in
  let n_faults = 3 + Rng.int rng 3 in
  let drawn =
    List.init n_faults (fun _ ->
        let from_t = Rng.uniform rng 30.0 110.0 in
        let until = from_t +. Rng.uniform rng 5.0 30.0 in
        match Rng.int rng 6 with
        | 0 ->
          let link = Rng.pick rng soak_links in
          let rate = Rng.uniform rng 0.05 0.7 in
          Either.Left (Desc.Loss { link; rate; from_t; until })
        | 1 ->
          let link = Rng.pick rng soak_links in
          let rate = Rng.uniform rng 0.05 0.5 in
          Either.Right (Desc.Duplicate { link; rate; from_t; until })
        | 2 ->
          let link = Rng.pick rng soak_links in
          let rate = Rng.uniform rng 0.1 0.5 in
          let jitter = Rng.uniform rng 0.05 0.5 in
          Either.Right (Desc.Reorder { link; rate; jitter; from_t; until })
        | 3 ->
          let link = Rng.pick rng soak_links in
          let rate = Rng.uniform rng 0.05 0.6 in
          Either.Right (Desc.Corrupt { link; rate; from_t; until })
        | 4 ->
          let link = Rng.pick rng soak_links in
          let up_at = from_t +. Rng.uniform rng 2.0 10.0 in
          Either.Left (Desc.Flap { link; down_at = from_t; up_at })
        | _ ->
          (* Any router but D: D is the roaming hosts' home agent, and
             losing its binding cache black-holes tunnelled delivery
             until the next refresh by design. *)
          let router = Rng.pick rng soak_crashable in
          let recover_at = from_t +. Rng.uniform rng 5.0 20.0 in
          Either.Left (Desc.Crash { router; at = from_t; recover_at }))
  in
  (* R3 roams once or twice; S roams in about half the runs, so the
     send path of each approach is exercised too. *)
  let r3_first = Rng.uniform rng 40.0 90.0 in
  let r3_moves =
    let link = Rng.pick rng soak_roam_links in
    if Rng.bool rng then begin
      let back = r3_first +. Rng.uniform rng 15.0 40.0 in
      [ Desc.Move { at = r3_first; host = "R3"; link };
        Desc.Move { at = back; host = "R3"; link = "L4" } ]
    end
    else [ Desc.Move { at = r3_first; host = "R3"; link } ]
  in
  let s_moves =
    if Rng.bool rng then begin
      let away = Rng.uniform rng 50.0 100.0 in
      let link = Rng.pick rng [| "L2"; "L6" |] in
      let back = away +. Rng.uniform rng 20.0 30.0 in
      [ Desc.Move { at = away; host = "S"; link };
        Desc.Move { at = back; host = "S"; link = "L1" } ]
    end
    else []
  in
  let joins =
    List.map (fun host -> Desc.Join { at = 0.0; host; group = 0 }) [ "R1"; "R2"; "R3" ]
  in
  let faults, windows = List.partition_map Fun.id drawn in
  let duration = 240.0 in
  let d =
    Paper.figure1 ~seed ~faults ~from_t:5.0 ~name:(Printf.sprintf "soak-s%d" seed)
      ~until:(duration -. 5.0) ~duration []
  in
  { d with
    Desc.d_traffic = { d.Desc.d_traffic with Desc.tr_interval = 0.2; tr_bytes = 256 };
    d_events =
      List.stable_sort
        (fun a b -> compare (Desc.event_time a) (Desc.event_time b))
        (joins @ r3_moves @ s_moves);
    d_windows = windows;
    (* Every delivery goes through the codec, faults or not: the soak
       is also a wire-exactness proof for the whole protocol
       exchange. *)
    d_wire_check = true }
