(** Delta-debugging shrinker for failing scenarios.

    Given a descriptor whose run violates an invariant, [minimize]
    searches for a smaller descriptor that still violates the {e same}
    invariant: classic ddmin over the churn-event, fault-schedule and
    impairment-window lists, then greedy structural shrinking —
    dropping unreferenced hosts, redundant backbone links, and leaf
    routers — until a fixpoint or the run budget.  Every candidate is judged by actually
    re-running it (results memoized by {!Desc.digest}), so the minimum
    is replayable by construction. *)

type result = {
  sh_min : Desc.t;
  sh_runs : int;  (** oracle executions spent *)
  sh_invariant : Check.Monitor.invariant;  (** the violation preserved *)
  sh_approach : Mmcast.Approach.t;
}

val minimize :
  ?budget:int ->
  ?sustain:Engine.Time.t ->
  Desc.t ->
  Mmcast.Approach.t ->
  result option
(** [None] when the descriptor does not violate anything to begin
    with.  [budget] caps oracle runs (default 150); on exhaustion the
    smallest reproduction found so far is returned.  [sustain]
    (default 10 s) overrides the monitor's convergence bound so each
    oracle run stays cheap; it is the same override a replay must use
    ({!Repro}). *)

(** {2 Schedule minimization}

    The same ddmin machinery applied to a violating {e interleaving}
    instead of a violating scenario: dropping an element of the sparse
    decision list ({!Runner.schedule}) resolves that choice point
    canonically, so the minimum is the smallest set of deviations from
    the canonical schedule that still triggers the violation.  The
    scenario itself is held fixed — editing it would renumber the
    choice points and invalidate the remaining decisions. *)

type schedule_result = {
  ss_sched : Runner.schedule;
      (** minimized; normalized to {!Runner.canonical_schedule} when no
          deviation is needed (the scenario violates on its own) *)
  ss_runs : int;  (** oracle executions spent *)
  ss_invariant : Check.Monitor.invariant;  (** the violation preserved *)
  ss_approach : Mmcast.Approach.t;
}

val minimize_schedule :
  ?budget:int ->
  ?sustain:Engine.Time.t ->
  Desc.t ->
  Mmcast.Approach.t ->
  Runner.schedule ->
  schedule_result option
(** [None] when the schedule does not reproduce a violation on this
    descriptor.  [budget] caps oracle runs (default 80); on exhaustion
    the smallest reproducing choice list found so far is returned.
    Oracle results are memoized by choice list. *)
