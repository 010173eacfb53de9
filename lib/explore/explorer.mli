(** The schedule-exploration driver.

    [explore] runs a scenario descriptor under one approach repeatedly,
    each run scheduled by a fresh decider from the {!Strategy}, with
    {!Check.Monitor} as the oracle and {!Engine.Trace.digest} counting
    distinct interleavings.  The first violating run's realized
    decision sequence is captured as a {!Schedule.t}; [minimize] then
    ddmins it ({!Scale.Shrink.minimize_schedule}) and emits a
    {!Scale.Repro} bundle that replays the exact interleaving. *)

type progress = {
  pr_wall_s : float;
  pr_runs : int;
  pr_distinct : int;  (** distinct trace digests seen so far *)
  pr_violations : int;  (** 0 or 1: exploration stops at the first *)
}

type outcome = {
  ex_desc : Scale.Desc.t;
  ex_approach : Mmcast.Approach.t;
  ex_strategy : string;
  ex_seed : int;
  ex_budget : int;
  ex_sustain : Engine.Time.t;
  ex_runs : int;  (** schedules actually executed *)
  ex_distinct : int;  (** distinct trace digests among them *)
  ex_wall_s : float;
  ex_exhausted : bool;  (** DFS covered its bounded space before the budget *)
  ex_violation : (Schedule.t * Check.Monitor.violation) option;
      (** first violating schedule, with the violation it triggered *)
  ex_progress : progress list;  (** chronological snapshots (every 25 runs and at the end) *)
}

val explore :
  ?budget:int ->
  ?sustain:Engine.Time.t ->
  ?delay_slots:int ->
  ?delay_max:Engine.Time.t ->
  ?seed:int ->
  ?stop_on_violation:bool ->
  ?on_progress:(progress -> unit) ->
  strategy:Strategy.t ->
  Scale.Desc.t ->
  Mmcast.Approach.t ->
  outcome
(** Defaults: [budget] 500 schedules, [sustain] 10 s (the cheap-oracle
    override the shrinker also uses), [delay_slots] 3 and [delay_max]
    0.05 s of per-hop delay exploration, [seed] 42,
    [stop_on_violation] true.  Run 0 always realizes the canonical
    schedule for DFS; randomized strategies are independent per run
    index.  Deterministic: equal arguments yield equal outcomes (wall
    clocks aside). *)

val minimize :
  ?budget:int ->
  sustain:Engine.Time.t ->
  Scale.Desc.t ->
  Mmcast.Approach.t ->
  Schedule.t ->
  (Scale.Shrink.schedule_result * Scale.Repro.t) option
(** Shrink a violating schedule to the minimal decision list that still
    triggers the same invariant (budget default 80 oracle runs), then
    bundle it as a replayable {!Scale.Repro} (schema [mmcast-repro/2])
    carrying the pinned interleaving.  [None] if the schedule no longer
    reproduces. *)

val progress_to_json : outcome -> Obs.Json.t
(** Exploration-progress telemetry (schema
    ["mmcast-explore-progress/1"]): provenance fields plus one row per
    snapshot — wall seconds, schedules run, distinct digests,
    violations. *)

val write_progress : outcome -> dir:string -> string
(** Write {!progress_to_json} to [<dir>/explore_progress.json]
    (creating [dir] and any missing parents); returns the path. *)
