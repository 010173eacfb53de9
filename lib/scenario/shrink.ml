module Monitor = Check.Monitor

type result = {
  sh_min : Desc.t;
  sh_runs : int;
  sh_invariant : Monitor.invariant;
  sh_approach : Mmcast.Approach.t;
}

exception Budget_exhausted

(* ---- list ddmin over indices (values may not be distinct) ---- *)

let split_chunks items n =
  let len = List.length items in
  let base = len / n and extra = len mod n in
  let rec go i rest acc =
    if i >= n then List.rev acc
    else begin
      let size = base + if i < extra then 1 else 0 in
      let rec take k xs taken =
        if k = 0 then (List.rev taken, xs)
        else match xs with [] -> (List.rev taken, []) | x :: tl -> take (k - 1) tl (x :: taken)
      in
      let chunk, rest = take size rest [] in
      go (i + 1) rest (chunk :: acc)
    end
  in
  go 0 items []

let ddmin test items =
  let rec go items n =
    if List.length items <= 1 then items
    else begin
      let chunks = split_chunks items n in
      match List.find_opt test chunks with
      | Some c -> go c 2
      | None ->
        let complement skip = List.concat (List.filteri (fun i _ -> i <> skip) chunks) in
        let rec try_complements i =
          if i >= List.length chunks then None
          else begin
            let c = complement i in
            if test c then Some c else try_complements (i + 1)
          end
        in
        (match try_complements 0 with
        | Some c -> go c (Stdlib.max (n - 1) 2)
        | None ->
          if n < List.length items then go items (Stdlib.min (List.length items) (2 * n))
          else items)
    end
  in
  if test [] then [] else if test items then go items 2 else items

(* ---- structural shrinking helpers ---- *)

let without_host d name =
  { d with
    Desc.d_hosts = List.filter (fun (h, _) -> not (String.equal h name)) d.Desc.d_hosts }

let host_referenced d name =
  List.exists (fun (s, _) -> String.equal s name) d.Desc.d_senders
  || List.exists
       (function
         | Desc.Join { host; _ } | Desc.Leave { host; _ } | Desc.Move { host; _ } ->
           String.equal host name)
       d.Desc.d_events

let link_referenced d name =
  List.exists (function Desc.Move { link; _ } -> String.equal link name | _ -> false)
    d.Desc.d_events
  || List.exists
       (function
         | Desc.Loss { link; _ } | Desc.Flap { link; _ } -> String.equal link name
         | Desc.Crash _ -> false)
       d.Desc.d_faults
  || List.exists
       (function
         | Desc.Duplicate { link; _ } | Desc.Reorder { link; _ } | Desc.Corrupt { link; _ } ->
           String.equal link name)
       d.Desc.d_windows

let without_link d name =
  { d with
    Desc.d_links = List.filter (fun (l, _) -> not (String.equal l name)) d.Desc.d_links;
    d_routers =
      List.map
        (fun (r, attached, ha) ->
          (r, List.filter (fun l -> not (String.equal l name)) attached,
           List.filter (fun l -> not (String.equal l name)) ha))
        d.Desc.d_routers }

let router_removable d (name, attached, _) =
  (* A router can go if nothing outside it references it: no crash
     fault names it, no host is homed on any of its HA links, and no
     move targets a link that would disappear with it. *)
  (not
     (List.exists
        (function Desc.Crash { router; _ } -> String.equal router name | _ -> false)
        d.Desc.d_faults))
  &&
  let dying_links =
    (* its stub links die with it; backbones survive unless this was
       one of only two attachments — dropping the attachment is enough,
       the link just goes quiet. *)
    List.filter
      (fun l ->
        not
          (List.exists
             (fun (r2, att2, _) -> (not (String.equal r2 name)) && List.mem l att2)
             d.Desc.d_routers))
      attached
  in
  List.for_all
    (fun l ->
      (not (List.exists (fun (_, home) -> String.equal home l) d.Desc.d_hosts))
      && not (link_referenced d l))
    dying_links

let without_router d (name, attached, _) =
  let dying_links =
    List.filter
      (fun l ->
        not
          (List.exists
             (fun (r2, att2, _) -> (not (String.equal r2 name)) && List.mem l att2)
             d.Desc.d_routers))
      attached
  in
  let d =
    { d with
      Desc.d_routers =
        List.filter (fun (r, _, _) -> not (String.equal r name)) d.Desc.d_routers }
  in
  List.fold_left without_link d dying_links

let acceptable d = Desc.validate d = Ok () && Desc.connected d

(* ---- the minimizer ---- *)

let minimize ?(budget = 150) ?(sustain = 10.0) d approach =
  let runs = ref 0 in
  let cache : (string, bool) Hashtbl.t = Hashtbl.create 64 in
  let target = ref None in
  let reproduces candidate =
    if not (acceptable candidate) then false
    else begin
      let key = Desc.digest candidate in
      match Hashtbl.find_opt cache key with
      | Some hit -> hit
      | None ->
        if !runs >= budget then raise Budget_exhausted;
        incr runs;
        let outcome = Runner.run ~sustain candidate approach in
        let hit =
          match !target with
          | None ->
            (match outcome.Runner.out_violations with
            | [] -> false
            | v :: _ ->
              target := Some v.Monitor.v_invariant;
              true)
          | Some inv ->
            List.exists
              (fun v -> v.Monitor.v_invariant = inv)
              outcome.Runner.out_violations
        in
        Hashtbl.replace cache key hit;
        hit
    end
  in
  if not (reproduces d) then None
  else begin
    let best = ref d in
    (try
       (* 1. ddmin the churn events (faults held fixed), then the
          faults and the impairment windows against the minimized
          events. *)
       let events =
         ddmin (fun evs -> reproduces { !best with Desc.d_events = evs }) d.Desc.d_events
       in
       best := { !best with Desc.d_events = events };
       let faults =
         ddmin (fun fs -> reproduces { !best with Desc.d_faults = fs }) !best.Desc.d_faults
       in
       best := { !best with Desc.d_faults = faults };
       let windows =
         ddmin (fun ws -> reproduces { !best with Desc.d_windows = ws }) !best.Desc.d_windows
       in
       best := { !best with Desc.d_windows = windows };
       (* 2. Greedy structural pass to fixpoint: hosts, then redundant
          backbone links, then routers. *)
       let progress = ref true in
       while !progress do
         progress := false;
         List.iter
           (fun (h, _) ->
             if List.mem_assoc h !best.Desc.d_hosts && not (host_referenced !best h)
             then begin
               let candidate = without_host !best h in
               if reproduces candidate then begin
                 best := candidate;
                 progress := true
               end
             end)
           !best.Desc.d_hosts;
         List.iter
           (fun (l, _) ->
             if
               List.mem_assoc l !best.Desc.d_links
               && (not (link_referenced !best l))
               && not (List.exists (fun (_, home) -> String.equal home l) !best.Desc.d_hosts)
             then begin
               let candidate = without_link !best l in
               if acceptable candidate && reproduces candidate then begin
                 best := candidate;
                 progress := true
               end
             end)
           !best.Desc.d_links;
         List.iter
           (fun r ->
             let name, _, _ = r in
             if
               List.exists (fun (n, _, _) -> String.equal n name) !best.Desc.d_routers
               && router_removable !best r
             then begin
               let candidate = without_router !best r in
               if reproduces candidate then begin
                 best := candidate;
                 progress := true
               end
             end)
           !best.Desc.d_routers
       done
     with Budget_exhausted -> ());
    match !target with
    | None -> None
    | Some inv ->
      Some
        { sh_min = { !best with Desc.d_name = !best.Desc.d_name ^ "-min" };
          sh_runs = !runs;
          sh_invariant = inv;
          sh_approach = approach }
  end

(* ---- schedule minimization ---- *)

type schedule_result = {
  ss_sched : Runner.schedule;
  ss_runs : int;
  ss_invariant : Monitor.invariant;
  ss_approach : Mmcast.Approach.t;
}

let minimize_schedule ?(budget = 80) ?(sustain = 10.0) d approach
    (sched : Runner.schedule) =
  let runs = ref 0 in
  let cache : (string, bool) Hashtbl.t = Hashtbl.create 64 in
  let target = ref None in
  let best = ref sched.Runner.sched_choices in
  let key choices =
    String.concat ";"
      (List.map (fun (i, c) -> Printf.sprintf "%d:%d" i c) choices)
  in
  (* Dropping an element of the sparse decision list is exactly "resolve
     that choice point canonically", so plain list ddmin over the
     choices is schedule minimization: the scenario stays fixed (editing
     it would shift choice-point positions and invalidate the rest of
     the schedule) and only the deviations from the canonical
     interleaving shrink. *)
  let reproduces choices =
    let k = key choices in
    match Hashtbl.find_opt cache k with
    | Some hit -> hit
    | None ->
      if !runs >= budget then raise Budget_exhausted;
      incr runs;
      let outcome =
        Runner.run ~sustain
          ~sched:{ sched with Runner.sched_choices = choices }
          d approach
      in
      let hit =
        match !target with
        | None -> (
          match outcome.Runner.out_violations with
          | [] -> false
          | v :: _ ->
            target := Some v.Monitor.v_invariant;
            true)
        | Some inv ->
          List.exists
            (fun v -> v.Monitor.v_invariant = inv)
            outcome.Runner.out_violations
      in
      Hashtbl.replace cache k hit;
      if hit && List.length choices < List.length !best then best := choices;
      hit
  in
  if not (try reproduces sched.Runner.sched_choices with Budget_exhausted -> false)
  then None
  else begin
    (try ignore (ddmin reproduces sched.Runner.sched_choices)
     with Budget_exhausted -> ());
    match !target with
    | None -> None
    | Some inv ->
      let min_sched =
        if !best = [] then Runner.canonical_schedule
        else { sched with Runner.sched_choices = !best }
      in
      Some
        { ss_sched = min_sched;
          ss_runs = !runs;
          ss_invariant = inv;
          ss_approach = approach }
  end
