module Monitor = Check.Monitor
module Json = Obs.Json

type progress = {
  pr_wall_s : float;
  pr_runs : int;
  pr_distinct : int;
  pr_violations : int;
}

type outcome = {
  ex_desc : Scale.Desc.t;
  ex_approach : Mmcast.Approach.t;
  ex_strategy : string;
  ex_seed : int;
  ex_budget : int;
  ex_sustain : Engine.Time.t;
  ex_runs : int;
  ex_distinct : int;
  ex_wall_s : float;
  ex_exhausted : bool;
  ex_violation : (Schedule.t * Monitor.violation) option;
  ex_progress : progress list;
}

(* Wrap a strategy decider so the realized (clamped) decisions are
   recorded sparsely: positions resolving to 0 — the overwhelming
   majority — cost nothing.  The record, not the strategy, is what
   replays: [Runner.decider_of_choices] over it reproduces the run
   bit-for-bit. *)
let record base =
  (* Deviation [i] chose [choices.(i)] at decision [positions.(i)]. *)
  let positions = ref (Array.make 16 0) and choices = ref (Array.make 16 0) in
  let deviations = ref 0 and count = ref 0 in
  let decide ~kind ~arity =
    let c = base ~kind ~arity in
    let c = if c <= 0 then 0 else if c >= arity then arity - 1 else c in
    if c <> 0 then begin
      let n = !deviations in
      if n = Array.length !positions then begin
        positions := Array.append !positions !positions;
        choices := Array.append !choices !choices
      end;
      !positions.(n) <- !count;
      !choices.(n) <- c;
      deviations := n + 1
    end;
    incr count;
    c
  in
  (decide, fun () -> (List.init !deviations (fun i -> (!positions.(i), !choices.(i))), !count))

let explore ?(budget = 500) ?(sustain = 10.0) ?(delay_slots = 3)
    ?(delay_max = 0.05) ?(seed = 42) ?(stop_on_violation = true) ?on_progress
    ~strategy d approach =
  let wall0 = Unix.gettimeofday () in
  let digests : (string, unit) Hashtbl.t = Hashtbl.create 256 in
  let snapshots = ref [] in
  let violation = ref None in
  let runs = ref 0 in
  let exhausted = ref false in
  let base_sched =
    { Scale.Runner.canonical_schedule with
      Scale.Runner.sched_delay_slots = delay_slots;
      sched_delay_max = delay_max }
  in
  let snapshot () =
    let p =
      { pr_wall_s = Unix.gettimeofday () -. wall0;
        pr_runs = !runs;
        pr_distinct = Hashtbl.length digests;
        pr_violations = (if Option.is_some !violation then 1 else 0) }
    in
    snapshots := p :: !snapshots;
    Option.iter (fun f -> f p) on_progress
  in
  (try
     while
       !runs < budget && not (stop_on_violation && Option.is_some !violation)
     do
       match Strategy.next strategy ~seed ~run_index:!runs with
       | None ->
         exhausted := true;
         raise Exit
       | Some base ->
         let decide, finish = record base in
         let o =
           Scale.Runner.run ~sustain ~sched:base_sched ~decider:decide d
             approach
         in
         incr runs;
         let fresh = not (Hashtbl.mem digests o.Scale.Runner.out_digest) in
         if fresh then Hashtbl.replace digests o.Scale.Runner.out_digest ();
         Strategy.note_result strategy ~distinct:fresh;
         (match o.Scale.Runner.out_violations with
         | v :: _ when Option.is_none !violation ->
           let choices, length = finish () in
           violation :=
             Some
               ( { Schedule.sc_strategy = Strategy.name strategy;
                   sc_seed = seed;
                   sc_index = !runs - 1;
                   sc_length = length;
                   sc_sched =
                     { base_sched with Scale.Runner.sched_choices = choices } },
                 v )
         | _ -> ());
         if !runs mod 25 = 0 then snapshot ()
     done
   with Exit -> ());
  snapshot ();
  { ex_desc = d;
    ex_approach = approach;
    ex_strategy = Strategy.name strategy;
    ex_seed = seed;
    ex_budget = budget;
    ex_sustain = sustain;
    ex_runs = !runs;
    ex_distinct = Hashtbl.length digests;
    ex_wall_s = Unix.gettimeofday () -. wall0;
    ex_exhausted = !exhausted;
    ex_violation = !violation;
    ex_progress = List.rev !snapshots }

let minimize ?(budget = 80) ~sustain d approach (sc : Schedule.t) =
  match
    Scale.Shrink.minimize_schedule ~budget ~sustain d approach
      sc.Schedule.sc_sched
  with
  | None -> None
  | Some ss ->
    let repro = Scale.Repro.of_schedule_shrink ss ~desc:d ~sustain in
    Some (ss, repro)

let progress_to_json o =
  Json.Obj
    [ ("schema", Json.String "mmcast-explore-progress/1");
      ("scenario", Json.String o.ex_desc.Scale.Desc.d_name);
      ("scenario_digest", Json.String (Scale.Desc.digest o.ex_desc));
      ("approach", Json.Int (Mmcast.Approach.number o.ex_approach));
      ("strategy", Json.String o.ex_strategy);
      ("seed", Json.Int o.ex_seed);
      ("budget", Json.Int o.ex_budget);
      ("sustain_s", Json.float o.ex_sustain);
      ("runs", Json.Int o.ex_runs);
      ("distinct_digests", Json.Int o.ex_distinct);
      ("exhausted", Json.Bool o.ex_exhausted);
      ( "rows",
        Json.List
          (List.map
             (fun p ->
               Json.Obj
                 [ ("wall_s", Json.float p.pr_wall_s);
                   ("runs", Json.Int p.pr_runs);
                   ("distinct_digests", Json.Int p.pr_distinct);
                   ("violations", Json.Int p.pr_violations) ])
             o.ex_progress) ) ]

let write_progress o ~dir =
  Json.ensure_dir dir;
  let path = Filename.concat dir "explore_progress.json" in
  Json.write_file ~pretty:true ~path (progress_to_json o);
  path
