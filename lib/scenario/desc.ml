module Json = Obs.Json

type traffic = {
  tr_from : float;
  tr_until : float;
  tr_interval : float;
  tr_bytes : int;
}

type event =
  | Join of { at : float; host : string; group : int }
  | Leave of { at : float; host : string; group : int }
  | Move of { at : float; host : string; link : string }

type fault =
  | Loss of { link : string; rate : float; from_t : float; until : float }
  | Flap of { link : string; down_at : float; up_at : float }
  | Crash of { router : string; at : float; recover_at : float }

type window =
  | Duplicate of { link : string; rate : float; from_t : float; until : float }
  | Reorder of { link : string; rate : float; jitter : float; from_t : float; until : float }
  | Corrupt of { link : string; rate : float; from_t : float; until : float }

type t = {
  d_name : string;
  d_seed : int;
  d_links : (string * string) list;
  d_routers : (string * string list * string list) list;
  d_hosts : (string * string) list;
  d_senders : (string * int) list;
  d_traffic : traffic;
  d_events : event list;
  d_faults : fault list;
  d_windows : window list;
  d_duration : float;
  d_disable_graft : bool;
  d_wire_check : bool;
}

let schema = "mmcast-scenario/1"

let group_addr i = Ipv6.Addr.of_string (Printf.sprintf "ff0e::1:%x" (i + 1))

(* The largest index whose address's last group, [i + 1], fits 16 bits. *)
let max_group = 0xfffe

let event_time = function
  | Join { at; _ } | Leave { at; _ } | Move { at; _ } -> at

(* ---- validation ---- *)

let validate t =
  let ( let* ) = Result.bind in
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let link_names = Hashtbl.create (List.length t.d_links) in
  List.iter (fun (n, _) -> Hashtbl.replace link_names n ()) t.d_links;
  let link_known n = Hashtbl.mem link_names n in
  let host_known n = List.mem_assoc n t.d_hosts in
  let router_known n = List.exists (fun (r, _, _) -> String.equal r n) t.d_routers in
  let finite x = Float.is_finite x && x >= 0.0 in
  (* A forward window whose onset the run reaches: a later one would
     be silently dropped.  Its repair may fall after the end. *)
  let window what onset until =
    if not (finite onset && finite until && until > onset) then
      err "%s [%g, %g] is not a forward window" what onset until
    else if onset > t.d_duration then
      err "%s at %g starts after the run ends at %g" what onset t.d_duration
    else Ok ()
  in
  let group_ok what g =
    if g >= 0 && g <= max_group then Ok ()
    else err "%s: group index %d outside [0, %d]" what g max_group
  in
  let* () = if t.d_routers = [] then err "%s: no routers" t.d_name else Ok () in
  (* Events, faults and senders name their link or node, and a
     scenario resolves a name to the first of its kind: a second link,
     router or host of that name would be built but never driven. *)
  let unique what names =
    let seen = Hashtbl.create 16 in
    List.fold_left
      (fun acc n ->
        let* () = acc in
        if Hashtbl.mem seen n then err "two %ss are named %s" what n
        else begin
          Hashtbl.replace seen n ();
          Ok ()
        end)
      (Ok ()) names
  in
  let* () = unique "link" (List.map fst t.d_links) in
  let* () = unique "router" (List.map (fun (r, _, _) -> r) t.d_routers) in
  let* () = unique "host" (List.map fst t.d_hosts) in
  (* Every prefix parses as a /64 or shorter, and no two links share one. *)
  let prefixes = Hashtbl.create (List.length t.d_links) in
  let* () =
    List.fold_left
      (fun acc (name, prefix) ->
        let* () = acc in
        match Ipv6.Prefix.of_string prefix with
        | exception Invalid_argument _ -> err "link %s: malformed prefix %S" name prefix
        | p when Ipv6.Prefix.length p > 64 ->
          err "link %s: prefix %s is longer than /64" name prefix
        | p ->
          match Hashtbl.find_opt prefixes p with
          | Some other ->
            err "links %s and %s share prefix %s" other name (Ipv6.Prefix.to_string p)
          | None ->
            Hashtbl.replace prefixes p name;
            Ok ())
      (Ok ()) t.d_links
  in
  (* No prefix contains another link's: an address on the longer one
     would resolve to either link.  Prefixes nest or are disjoint, so
     in address order (shorter first on a tie) a prefix that contains
     any other contains the one right after it. *)
  let* () =
    let sorted =
      List.sort (fun (a, _) (b, _) -> Ipv6.Prefix.compare a b)
        (Hashtbl.fold (fun p name acc -> (p, name) :: acc) prefixes [])
    in
    let rec check = function
      | (outer, o) :: ((inner, i) :: _ as rest) ->
        if Ipv6.Prefix.contains outer (Ipv6.Prefix.address inner) then
          err "link %s: prefix %s contains link %s's prefix %s" o (Ipv6.Prefix.to_string outer) i
            (Ipv6.Prefix.to_string inner)
        else check rest
      | [ _ ] | [] -> Ok ()
    in
    check sorted
  in
  let* () =
    let { tr_from; tr_until; tr_interval; tr_bytes } = t.d_traffic in
    if not (finite tr_from && finite tr_until) then
      err "traffic window [%g, %g] must be finite and non-negative" tr_from tr_until
    else if not (Float.is_finite tr_interval && tr_interval > 0.0) then
      err "traffic interval %g must be positive and finite" tr_interval
    else if tr_bytes < Ipv6.Codec.data_min_bytes || tr_bytes > Ipv6.Codec.data_max_bytes then
      err "traffic datagram size %d outside [%d, %d]" tr_bytes Ipv6.Codec.data_min_bytes
        Ipv6.Codec.data_max_bytes
    else Ok ()
  in
  let* () =
    List.fold_left
      (fun acc (r, attached, ha) ->
        let* () = acc in
        match List.find_opt (fun l -> not (link_known l)) (attached @ ha) with
        | Some l -> err "router %s references unknown link %s" r l
        | None ->
          if List.for_all (fun l -> List.mem l attached) ha then Ok ()
          else err "router %s has a home-agent link it is not attached to" r)
      (Ok ()) t.d_routers
  in
  let* () =
    List.fold_left
      (fun acc (h, home) ->
        let* () = acc in
        if not (link_known home) then err "host %s homed on unknown link %s" h home
        else if
          List.exists (fun (_, _, ha) -> List.mem home ha) t.d_routers
        then Ok ()
        else err "host %s: no home agent serves link %s" h home)
      (Ok ()) t.d_hosts
  in
  let* () =
    List.fold_left
      (fun acc (s, g) ->
        let* () = acc in
        if not (host_known s) then err "sender %s is not a host" s
        else group_ok ("sender " ^ s) g)
      (Ok ()) t.d_senders
  in
  let* () =
    List.fold_left
      (fun acc ev ->
        let* () = acc in
        let at = event_time ev in
        if not (finite at) || at > t.d_duration then
          err "event at %g outside the run [0, %g]" at t.d_duration
        else
          match ev with
          | Join { host; group; _ } | Leave { host; group; _ } ->
            if not (host_known host) then err "event references unknown host %s" host
            else group_ok ("event on " ^ host) group
          | Move { host; link; _ } ->
            if not (host_known host) then err "move references unknown host %s" host
            else if not (link_known link) then err "move to unknown link %s" link
            else Ok ())
      (Ok ()) t.d_events
  in
  let* () =
    List.fold_left
      (fun acc f ->
        let* () = acc in
        match f with
        | Loss { link; rate; from_t; until } ->
          if not (link_known link) then err "loss fault on unknown link %s" link
          else if rate < 0.0 || rate > 1.0 then err "loss rate %g outside [0,1]" rate
          else window "loss window" from_t until
        | Flap { link; down_at; up_at } ->
          if not (link_known link) then err "flap on unknown link %s" link
          else window "flap" down_at up_at
        | Crash { router; at; recover_at } ->
          if not (router_known router) then err "crash of unknown router %s" router
          else window "crash" at recover_at)
      (Ok ()) t.d_faults
  in
  let* () =
    List.fold_left
      (fun acc w ->
        let* () = acc in
        let link, rate, from_t, until =
          match w with
          | Duplicate { link; rate; from_t; until }
          | Reorder { link; rate; from_t; until; _ }
          | Corrupt { link; rate; from_t; until } -> (link, rate, from_t, until)
        in
        if not (link_known link) then err "window on unknown link %s" link
        else if rate < 0.0 || rate > 1.0 then err "window rate %g outside [0,1]" rate
        else
          let* () = window "window" from_t until in
          match w with
          | Reorder { jitter; _ } when not (finite jitter) ->
            err "reorder jitter %g must be finite and non-negative" jitter
          | _ -> Ok ())
      (Ok ()) t.d_windows
  in
  if not (finite t.d_duration) || t.d_duration <= 0.0 then
    err "duration %g must be positive and finite" t.d_duration
  else Ok ()

(* ---- connectivity (descriptor-level BFS, no network needed) ---- *)

let connected t =
  let nodes =
    List.map (fun (r, _, _) -> "r:" ^ r) t.d_routers
    @ List.map (fun (h, _) -> "h:" ^ h) t.d_hosts
  in
  match nodes with
  | [] -> true
  | start :: _ ->
    let on_link : (string, string list) Hashtbl.t = Hashtbl.create 64 in
    let add link node =
      Hashtbl.replace on_link link
        (node :: Option.value ~default:[] (Hashtbl.find_opt on_link link))
    in
    List.iter (fun (r, attached, _) -> List.iter (fun l -> add l ("r:" ^ r)) attached)
      t.d_routers;
    List.iter (fun (h, home) -> add home ("h:" ^ h)) t.d_hosts;
    let links_of : (string, string list) Hashtbl.t = Hashtbl.create 64 in
    List.iter
      (fun (r, attached, _) -> Hashtbl.replace links_of ("r:" ^ r) attached)
      t.d_routers;
    List.iter (fun (h, home) -> Hashtbl.replace links_of ("h:" ^ h) [ home ]) t.d_hosts;
    let visited = Hashtbl.create 64 in
    let rec walk n =
      if not (Hashtbl.mem visited n) then begin
        Hashtbl.replace visited n ();
        List.iter
          (fun l ->
            List.iter walk (Option.value ~default:[] (Hashtbl.find_opt on_link l)))
          (Option.value ~default:[] (Hashtbl.find_opt links_of n))
      end
    in
    walk start;
    Hashtbl.length visited = List.length nodes

let backbone_links t =
  List.filter_map
    (fun (name, _) ->
      let routers_attached =
        List.length
          (List.filter (fun (_, attached, _) -> List.mem name attached) t.d_routers)
      in
      let hosts_homed = List.exists (fun (_, home) -> String.equal home name) t.d_hosts in
      if routers_attached >= 2 && not hosts_homed then Some name else None)
    t.d_links

let size_summary t =
  Printf.sprintf "%dr/%dl/%dh/%dev/%df" (List.length t.d_routers)
    (List.length t.d_links) (List.length t.d_hosts) (List.length t.d_events)
    (List.length t.d_faults + List.length t.d_windows)

(* ---- JSON ---- *)

let event_json = function
  | Join { at; host; group } ->
    Json.Obj
      [ ("kind", Json.String "join"); ("at_s", Json.float at);
        ("host", Json.String host); ("group", Json.Int group) ]
  | Leave { at; host; group } ->
    Json.Obj
      [ ("kind", Json.String "leave"); ("at_s", Json.float at);
        ("host", Json.String host); ("group", Json.Int group) ]
  | Move { at; host; link } ->
    Json.Obj
      [ ("kind", Json.String "move"); ("at_s", Json.float at);
        ("host", Json.String host); ("link", Json.String link) ]

let fault_json = function
  | Loss { link; rate; from_t; until } ->
    Json.Obj
      [ ("kind", Json.String "loss"); ("link", Json.String link);
        ("rate", Json.float rate); ("from_s", Json.float from_t);
        ("until_s", Json.float until) ]
  | Flap { link; down_at; up_at } ->
    Json.Obj
      [ ("kind", Json.String "flap"); ("link", Json.String link);
        ("down_s", Json.float down_at); ("up_s", Json.float up_at) ]
  | Crash { router; at; recover_at } ->
    Json.Obj
      [ ("kind", Json.String "crash"); ("router", Json.String router);
        ("at_s", Json.float at); ("recover_s", Json.float recover_at) ]

let window_json w =
  let fields kind link rate from_t until extra =
    Json.Obj
      ([ ("kind", Json.String kind); ("link", Json.String link); ("rate", Json.float rate) ]
      @ extra
      @ [ ("from_s", Json.float from_t); ("until_s", Json.float until) ])
  in
  match w with
  | Duplicate { link; rate; from_t; until } -> fields "duplicate" link rate from_t until []
  | Reorder { link; rate; jitter; from_t; until } ->
    fields "reorder" link rate from_t until [ ("jitter_s", Json.float jitter) ]
  | Corrupt { link; rate; from_t; until } -> fields "corrupt" link rate from_t until []

let to_json t =
  (* Optional keys are omitted at their defaults so every descriptor
     that predates them keeps its exact encoding and digest. *)
  let windows =
    if t.d_windows = [] then []
    else [ ("windows", Json.List (List.map window_json t.d_windows)) ]
  in
  let wire_check = if t.d_wire_check then [ ("wire_check", Json.Bool true) ] else [] in
  Json.Obj
    ([ ("schema", Json.String schema);
      ("name", Json.String t.d_name);
      ("seed", Json.Int t.d_seed);
      ( "links",
        Json.List
          (List.map
             (fun (n, p) ->
               Json.Obj [ ("name", Json.String n); ("prefix", Json.String p) ])
             t.d_links) );
      ( "routers",
        Json.List
          (List.map
             (fun (n, attached, ha) ->
               Json.Obj
                 [ ("name", Json.String n); ("attached", Json.strings attached);
                   ("ha", Json.strings ha) ])
             t.d_routers) );
      ( "hosts",
        Json.List
          (List.map
             (fun (n, home) ->
               Json.Obj [ ("name", Json.String n); ("home", Json.String home) ])
             t.d_hosts) );
      ( "senders",
        Json.List
          (List.map
             (fun (h, g) -> Json.Obj [ ("host", Json.String h); ("group", Json.Int g) ])
             t.d_senders) );
      ( "traffic",
        Json.Obj
          [ ("from_s", Json.float t.d_traffic.tr_from);
            ("until_s", Json.float t.d_traffic.tr_until);
            ("interval_s", Json.float t.d_traffic.tr_interval);
            ("bytes", Json.Int t.d_traffic.tr_bytes) ] );
      ("events", Json.List (List.map event_json t.d_events));
      ("faults", Json.List (List.map fault_json t.d_faults)) ]
    @ windows
    @ [ ("duration_s", Json.float t.d_duration);
        ("disable_graft", Json.Bool t.d_disable_graft) ]
    @ wire_check)

(* Decoding helpers: every failure names the offending field. *)
let field name conv j =
  match Option.bind (Json.member name j) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing or ill-typed field %S" name)

let decode_event j =
  let ( let* ) = Result.bind in
  let* kind = field "kind" Json.to_string_opt j in
  let* at = field "at_s" Json.to_float_opt j in
  let* host = field "host" Json.to_string_opt j in
  match kind with
  | "join" ->
    let* group = field "group" Json.to_int_opt j in
    Ok (Join { at; host; group })
  | "leave" ->
    let* group = field "group" Json.to_int_opt j in
    Ok (Leave { at; host; group })
  | "move" ->
    let* link = field "link" Json.to_string_opt j in
    Ok (Move { at; host; link })
  | k -> Error (Printf.sprintf "unknown event kind %S" k)

let decode_fault j =
  let ( let* ) = Result.bind in
  let* kind = field "kind" Json.to_string_opt j in
  match kind with
  | "loss" ->
    let* link = field "link" Json.to_string_opt j in
    let* rate = field "rate" Json.to_float_opt j in
    let* from_t = field "from_s" Json.to_float_opt j in
    let* until = field "until_s" Json.to_float_opt j in
    Ok (Loss { link; rate; from_t; until })
  | "flap" ->
    let* link = field "link" Json.to_string_opt j in
    let* down_at = field "down_s" Json.to_float_opt j in
    let* up_at = field "up_s" Json.to_float_opt j in
    Ok (Flap { link; down_at; up_at })
  | "crash" ->
    let* router = field "router" Json.to_string_opt j in
    let* at = field "at_s" Json.to_float_opt j in
    let* recover_at = field "recover_s" Json.to_float_opt j in
    Ok (Crash { router; at; recover_at })
  | k -> Error (Printf.sprintf "unknown fault kind %S" k)

let decode_window j =
  let ( let* ) = Result.bind in
  let* kind = field "kind" Json.to_string_opt j in
  let* link = field "link" Json.to_string_opt j in
  let* rate = field "rate" Json.to_float_opt j in
  let* from_t = field "from_s" Json.to_float_opt j in
  let* until = field "until_s" Json.to_float_opt j in
  match kind with
  | "duplicate" -> Ok (Duplicate { link; rate; from_t; until })
  | "reorder" ->
    let* jitter = field "jitter_s" Json.to_float_opt j in
    Ok (Reorder { link; rate; jitter; from_t; until })
  | "corrupt" -> Ok (Corrupt { link; rate; from_t; until })
  | k -> Error (Printf.sprintf "unknown window kind %S" k)

let decode_list name decode j =
  let ( let* ) = Result.bind in
  let* items = field name Json.to_list_opt j in
  List.fold_left
    (fun acc item ->
      let* rev = acc in
      let* v = decode item in
      Ok (v :: rev))
    (Ok []) items
  |> Result.map List.rev

let of_json j =
  let ( let* ) = Result.bind in
  let* s = field "schema" Json.to_string_opt j in
  if not (String.equal s schema) then
    Error (Printf.sprintf "schema %S is not %S" s schema)
  else
    let* d_name = field "name" Json.to_string_opt j in
    let* d_seed = field "seed" Json.to_int_opt j in
    let* d_links =
      decode_list "links"
        (fun item ->
          let* n = field "name" Json.to_string_opt item in
          let* p = field "prefix" Json.to_string_opt item in
          Ok (n, p))
        j
    in
    let* d_routers =
      decode_list "routers"
        (fun item ->
          let* n = field "name" Json.to_string_opt item in
          let* attached = field "attached" Json.to_list_opt item in
          let* ha = field "ha" Json.to_list_opt item in
          let strings l =
            List.fold_left
              (fun acc x ->
                let* rev = acc in
                let* s = Option.to_result ~none:"non-string link name" (Json.to_string_opt x) in
                Ok (s :: rev))
              (Ok []) l
            |> Result.map List.rev
          in
          let* attached = strings attached in
          let* ha = strings ha in
          Ok (n, attached, ha))
        j
    in
    let* d_hosts =
      decode_list "hosts"
        (fun item ->
          let* n = field "name" Json.to_string_opt item in
          let* home = field "home" Json.to_string_opt item in
          Ok (n, home))
        j
    in
    let* d_senders =
      decode_list "senders"
        (fun item ->
          let* h = field "host" Json.to_string_opt item in
          let* g = field "group" Json.to_int_opt item in
          Ok (h, g))
        j
    in
    let* tj = Option.to_result ~none:"missing field \"traffic\"" (Json.member "traffic" j) in
    let* tr_from = field "from_s" Json.to_float_opt tj in
    let* tr_until = field "until_s" Json.to_float_opt tj in
    let* tr_interval = field "interval_s" Json.to_float_opt tj in
    let* tr_bytes = field "bytes" Json.to_int_opt tj in
    let* d_events = decode_list "events" decode_event j in
    let* d_faults = decode_list "faults" decode_fault j in
    let* d_windows =
      if Json.member "windows" j = None then Ok [] else decode_list "windows" decode_window j
    in
    let* d_duration = field "duration_s" Json.to_float_opt j in
    let* d_disable_graft = field "disable_graft" Json.to_bool_opt j in
    let* d_wire_check =
      if Json.member "wire_check" j = None then Ok false
      else field "wire_check" Json.to_bool_opt j
    in
    Ok
      { d_name;
        d_seed;
        d_links;
        d_routers;
        d_hosts;
        d_senders;
        d_traffic = { tr_from; tr_until; tr_interval; tr_bytes };
        d_events;
        d_faults;
        d_windows;
        d_duration;
        d_disable_graft;
        d_wire_check }

let digest t = Digest.to_hex (Digest.string (Json.to_string (to_json t)))
