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
  mutable choose : int -> int;  (* [decider] on an Order choice, clamped *)
  mutable lineage : Span.t option;
}

let canonical (_ : int) = 0

let create ?(seed = 42) () =
  { clock = Time.zero;
    queue = Wheel.create ();
    root_rng = Rng.create seed;
    executed = 0;
    profiler = None;
    decider = None;
    choose = canonical;
    lineage = None }

let clamp ~arity c = if c <= 0 then 0 else if c >= arity then arity - 1 else c

(* The Order chooser is built here, once, so the dispatch loop hands
   [Wheel.pop_choice] a closure it does not allocate. *)
let set_decider t d =
  t.decider <- d;
  t.choose <-
    (match d with
     | None -> canonical
     | Some d -> fun arity -> clamp ~arity (d ~kind:Order ~arity))

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
    | Some d -> clamp ~arity (d ~kind ~arity)

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

(* Run the earliest event; the queue is not empty.  With no decider
   the front is taken as is.  With one, same-timestamp ties are a
   choice point: the decider is consulted only when the tie is real
   (arity > 1), so decision sequences stay compact.  Neither path
   allocates. *)
let dispatch t =
  let q = t.queue in
  let time = Wheel.front_time q in
  let f =
    match t.decider with
    | None -> Wheel.take q
    | Some _ -> Wheel.pop_choice q t.choose
  in
  t.clock <- time;
  t.executed <- t.executed + 1;
  f ()

let step t =
  if Wheel.is_empty t.queue then false
  else begin
    dispatch t;
    true
  end

let run ?until ?max_events t =
  let budget = match max_events with None -> max_int | Some n -> n in
  let q = t.queue in
  match until with
  | None ->
    while t.executed < budget && not (Wheel.is_empty q) do
      dispatch t
    done
  | Some limit ->
    (* An [until] before [now] runs nothing and leaves the clock where
       it is; otherwise the clock ends at [until], even when the queue
       drains early, unless the budget ran out first. *)
    if Time.compare limit t.clock >= 0 then begin
      while
        t.executed < budget
        && (not (Wheel.is_empty q))
        && Time.compare (Wheel.front_time q) limit <= 0
      do
        dispatch t
      done;
      if t.executed < budget then t.clock <- limit
    end

let events_executed t = t.executed
