(** Minimal-reproduction artifacts.

    When the scale suite (or the shrink demo) catches a violation, the
    minimized descriptor is written to disk as a self-contained
    reproduction bundle: a JSON document embedding the full scenario
    descriptor, the approach, the preserved invariant, the sustain
    override the oracle used, and a trace excerpt from the violating
    run — plus a standard {!Obs.Manifest} next to it.  [load] reads the
    bundle back and {!replay} re-runs it, so a reproduction is
    checkable long after the run that produced it. *)

type t = {
  rp_desc : Desc.t;
  rp_approach : Mmcast.Approach.t;
  rp_invariant : Check.Monitor.invariant;
  rp_sustain : Engine.Time.t;
  rp_sched : Runner.schedule;
      (** the pinned interleaving the replay must use;
          {!Runner.canonical_schedule} for pure scenario repros *)
  rp_detail : string;  (** human-readable summary of the violation *)
  rp_trace : string list;  (** rendered trace excerpt, oldest first *)
  rp_chain : string list;
      (** rendered causal chain from lineage collection at capture
          time, root first; [[]] when collection was off or no drop
          was in scope (bundles written before lineage existed load
          with an empty chain) *)
}

val schema : string
(** ["mmcast-repro/2"].  [of_json] also accepts ["mmcast-repro/1"]
    bundles, which predate pinned interleavings and load with the
    canonical schedule. *)

val of_shrink : Shrink.result -> sustain:Engine.Time.t -> t
(** Re-runs the minimum once to capture the violation detail and trace
    excerpt. *)

val of_schedule_shrink :
  Shrink.schedule_result -> desc:Desc.t -> sustain:Engine.Time.t -> t
(** Bundle a minimized violating interleaving ({!Shrink.minimize_schedule})
    on the fixed descriptor it was found on; re-runs it once under the
    pinned schedule to capture the violation detail and trace
    excerpt. *)

val to_json : t -> Obs.Json.t
val of_json : Obs.Json.t -> (t, string) result

val write : t -> dir:string -> string
(** Writes [<dir>/repro_<name>.json] and a manifest beside it; creates
    [dir] and any missing parents; returns the bundle path. *)

val load : string -> (t, string) result

val replay : t -> Check.Monitor.violation list
(** Run the bundled descriptor with the bundled sustain {e and the
    bundled schedule} and return the violations matching the bundled
    invariant — non-empty iff the reproduction still reproduces. *)
