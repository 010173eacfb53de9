(** Execute a {!Desc.t} under one approach with the invariant monitor
    attached. *)

type outcome = {
  out_approach : Mmcast.Approach.t;
  out_events : int;  (** simulator events executed *)
  out_wall_s : float;
  out_sent : int;
  out_delivered : int;  (** fresh datagrams summed over hosts and groups *)
  out_duplicates : int;
  out_samples : int;
  out_bound : Engine.Time.t;  (** monitor convergence bound in force *)
  out_violations : Check.Monitor.violation list;
  out_digest : string;
      (** {!Engine.Trace.digest} of the run's network trace — a compact
          fingerprint of the realized schedule, used by the explorer to
          count distinct interleavings and prune revisited states *)
  out_marks : Faults.mark list;
      (** onset and repair instants of the installed fault schedule,
          chronological ({!Faults.marks_of}) *)
  out_malformed : int;
      (** frames the decoder rejected and dropped
          ({!Net.Network.total_malformed_drops}); non-zero only under
          wire-exact delivery *)
}

(** {2 Pinned interleavings}

    A [schedule] fixes one resolution of every choice point the engine
    exposes ({!Engine.Sim.set_decider}): same-timestamp tie-breaks,
    extra per-hop delivery delay, and crash placement.  The canonical
    schedule — every choice 0 — reproduces the default deterministic
    run exactly. *)

type schedule = {
  sched_choices : (int * int) list;
      (** sparse decision sequence: [(i, c)] means the [i]-th consulted
          choice point (0-based) resolves to alternative [c]; positions
          absent from the list resolve to 0.  Must be sorted ascending
          by position with [c > 0]. *)
  sched_delay_slots : int;
      (** arity of per-hop delivery-delay choice points; [1] disables
          them (see {!Net.Network.set_delay_exploration}) *)
  sched_delay_max : Engine.Time.t;
      (** extra delay of the highest slot; slot [k] adds
          [k * max / (slots - 1)] *)
}

val canonical_schedule : schedule

val schedule_fields : schedule -> (string * Obs.Json.t) list
(** The JSON fields ["delay_slots"], ["delay_max_s"] and ["choices"]
    (a list of [[position, choice]] pairs): the one encoding of a
    schedule, embedded by {!Repro} bundles and schedule descriptors. *)

val schedule_of_json : Obs.Json.t -> (schedule, string) result
(** Reads {!schedule_fields} back from an object, ignoring other keys.
    Rejects [delay_slots < 1], negative positions, choices [<= 0] and
    positions that are not strictly ascending — every list it accepts
    meets the precondition of {!decider_of_choices}. *)

val decider_of_choices :
  (int * int) list -> kind:Engine.Sim.choice_kind -> arity:int -> int
(** A stateful replay decider over a sparse decision sequence: the
    [i]-th call returns the choice recorded at position [i] (clamped to
    the offered arity), or 0 when none was.  {b One decider per run} —
    the position counter does not reset. *)

val spec_for : Desc.t -> Mmcast.Approach.t -> Mmcast.Scenario.spec
(** The tightened protocol configuration (15 s MLD queries, 40 s
    binding lifetime, 20 s state refresh, 30 s assert time) so the
    monitor's convergence bound stays short, with the descriptor's seed
    and graft knob applied. *)

val groups_of : Desc.t -> int list
(** Sorted distinct group indices referenced by senders and events. *)

val run :
  ?spec:Mmcast.Scenario.spec ->
  ?sustain:Engine.Time.t ->
  ?sched:schedule ->
  ?decider:(kind:Engine.Sim.choice_kind -> arity:int -> int) ->
  ?lineage:bool ->
  ?on_trace:(Engine.Trace.record -> unit) ->
  ?inspect:(Mmcast.Scenario.t -> Faults.t -> unit) ->
  Desc.t ->
  Mmcast.Approach.t ->
  outcome
(** Build the network (with wire-exact delivery when [d_wire_check]),
    install the fault schedule and impairment windows, attach the monitor
    (with [sustain] overriding its convergence bound when given — the
    shrinker uses a short one), schedule the churn events and senders,
    and run to the descriptor's duration.  [lineage] installs a causal
    packet-lineage collector ({!Engine.Sim.set_lineage}) so detected
    violations carry rendered causal chains; it draws no randomness
    and leaves the outcome digest unchanged.

    [spec] is the protocol configuration, default {!spec_for}; the
    seed and the graft knob always come from the descriptor and the
    approach from the positional argument.  The paper's experiments
    ({!Paper}) pass the untightened defaults here.

    [on_trace] sees every record of the network's trace, from the
    first one {!Mmcast.Scenario.build} writes.

    [inspect] sees the fully set-up scenario (monitor attached, churn
    and senders scheduled) and its installed fault schedule just before
    the run starts.  The paper's
    experiments and tests use it to attach metrics and schedule
    read-only probes alongside the monitor's samples; the scenario
    stays readable after [run] returns.

    [sched] pins the interleaving: its choices drive every engine
    choice point and its delay parameters configure per-hop delay
    exploration.  [decider] overrides the choice source (a live search
    strategy); delay parameters still come from [sched].  With
    neither, the canonical deterministic schedule runs and no decider
    is installed — the default fast path.
    @raise Invalid_argument if {!Desc.validate} rejects the
    descriptor. *)
