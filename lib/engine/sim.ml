type handle = (unit -> unit) Wheel.handle

type category_profile = { cat_events : int; cat_seconds : float }

type profile_cell = { mutable p_events : int; mutable p_seconds : float }

type profiler = {
  clock : unit -> float;
  cells : (string, profile_cell) Hashtbl.t;
}

type choice_kind = Order | Delay | Fault

type decider = kind:choice_kind -> arity:int -> int

type t = {
  mutable clock : Time.t;
  queue : (unit -> unit) Wheel.t;
  root_rng : Rng.t;
  mutable executed : int;
  mutable profiler : profiler option;
  mutable decider : decider option;
  mutable lineage : Span.t option;
}

let create ?(seed = 42) () =
  { clock = Time.zero;
    queue = Wheel.create ();
    root_rng = Rng.create seed;
    executed = 0;
    profiler = None;
    decider = None;
    lineage = None }

let set_decider t d = t.decider <- d
let decider_active t = t.decider <> None

(* Lineage collection follows the profiling discipline: [lineage]
   stays [None] by default, and every instrumented site matches on it
   before doing any work, so the disabled path allocates nothing. *)
let set_lineage t c = t.lineage <- c
let lineage t = t.lineage
let lineage_active t = t.lineage <> None

let decide t ~kind ~arity =
  if arity <= 1 then 0
  else
    match t.decider with
    | None -> 0
    | Some d ->
      let c = d ~kind ~arity in
      if c <= 0 then 0 else if c >= arity then arity - 1 else c

let now t = t.clock
let rng t = t.root_rng

let enable_profiling ?(clock = Sys.time) t =
  t.profiler <- Some { clock; cells = Hashtbl.create 16 }

let disable_profiling t = t.profiler <- None

let profile t =
  match t.profiler with
  | None -> []
  | Some p ->
    Hashtbl.fold
      (fun cat c acc ->
        (cat, { cat_events = c.p_events; cat_seconds = c.p_seconds }) :: acc)
      p.cells []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* Wrapping only happens when profiling is enabled, so the default
   schedule/fire path stays allocation-identical to the unprofiled
   build. *)
let instrument t category f =
  match t.profiler with
  | None -> f
  | Some p ->
    fun () ->
      let t0 = p.clock () in
      Fun.protect ~finally:(fun () ->
          let dt = p.clock () -. t0 in
          match Hashtbl.find_opt p.cells category with
          | Some c ->
            c.p_events <- c.p_events + 1;
            c.p_seconds <- c.p_seconds +. dt
          | None ->
            Hashtbl.replace p.cells category { p_events = 1; p_seconds = dt })
        f

let check_future t fn time =
  if Time.compare time t.clock < 0 then
    invalid_arg
      (Printf.sprintf "Sim.%s: %g is in the past (now %g)" fn (Time.seconds time)
         (Time.seconds t.clock))

let schedule_at ?(category = "other") t time f =
  check_future t "schedule_at" time;
  Wheel.push t.queue time (instrument t category f)

let schedule_after ?category t delay f =
  schedule_at ?category t (Time.add t.clock delay) f

let cancel t handle = Wheel.cancel t.queue handle

let postpone ?(category = "other") t handle time f =
  check_future t "postpone" time;
  Wheel.postpone t.queue handle time (instrument t category f)

let pending t = Wheel.size t.queue

let fire t time f =
  t.clock <- time;
  t.executed <- t.executed + 1;
  f ();
  true

let step t =
  match t.decider with
  | None -> (
    (* Default path: untouched, so golden traces are unaffected by the
       existence of the choice hook. *)
    match Wheel.pop t.queue with
    | None -> false
    | Some (time, f) -> fire t time f)
  | Some _ -> (
    (* Explored path: same-timestamp ties are a choice point.  The
       decider is consulted only when the tie is real (arity > 1), so
       decision sequences stay compact. *)
    let n = Wheel.front_count t.queue in
    if n = 0 then false
    else
      let k = decide t ~kind:Order ~arity:n in
      match Wheel.pop_kth t.queue k with
      | None -> false
      | Some (time, f) -> fire t time f)

let run ?until ?max_events t =
  let budget_exhausted () =
    match max_events with
    | None -> false
    | Some n -> t.executed >= n
  in
  let rec loop () =
    if budget_exhausted () then ()
    else
      match Wheel.peek_time t.queue with
      | None -> ()
      | Some next -> (
        match until with
        | Some limit when Time.compare next limit > 0 -> t.clock <- limit
        | Some _ | None ->
          ignore (step t);
          loop ())
  in
  loop ();
  (* An [until] bound advances the clock even when the queue drains early. *)
  match until with
  | Some limit when Time.compare t.clock limit < 0 && not (budget_exhausted ()) ->
    t.clock <- limit
  | Some _ | None -> ()

let events_executed t = t.executed
