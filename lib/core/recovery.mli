(** Time-to-reconverge measurement.

    After a fault is injected the interesting question is how long the
    protocols take to restore multicast delivery: the PIM-DM Graft
    retry timer must re-join pruned branches, MLD's robustness-variable
    resends must re-establish listener state, Mobile IPv6's
    binding-update backoff must re-register with the home agent.  This
    module turns that into a number per (fault, receiver) pair.

    A {!t} watches a set of receiver hosts (via
    {!Host_stack.add_data_observer}, so the application's own callback
    is untouched) and holds a list of fault {e marks} — labelled
    instants from {!Faults.marks}, or noted manually with
    {!note_fault}.  For every mark, the recovery time at a host is the
    delay until the first datagram for the group that reaches the host
    at or after the mark's time.  A mark with no subsequent reception
    by the end of the run is reported as unrecovered; a mark the
    simulation clock has not reached yet is not reported at all.

    By default only {e repair} marks are anchored (link back up, router
    restarted, window closed): measuring from the repair instant gives
    the protocol-recovery time the RFC timers govern.  Pass
    [~onsets:true] to anchor onset marks too, which measures the full
    outage as seen by the application. *)

open Ipv6

type t

val create :
  ?onsets:bool -> Scenario.t -> group:Addr.t -> hosts:string list -> Faults.mark list -> t
(** [create scenario ~group ~hosts marks] starts watching the named
    hosts for datagrams of [group].  Marks whose time has already
    passed are still anchored; receptions before {!create} are not
    seen.  [onsets] defaults to [false] (repair marks only).
    @raise Invalid_argument for an unknown host name. *)

val note_fault : t -> label:string -> Engine.Time.t -> unit
(** Add a manual mark (always anchored, regardless of [onsets]) — used
    e.g. to measure recovery from a handoff or an ambient-loss episode
    that no {!Faults} schedule describes.
    @raise Invalid_argument if the time is in the simulator's past. *)

(** One (mark, host) measurement. *)
type sample = {
  fault_label : string;
  fault_at : Engine.Time.t;
  host : string;
  recovery_s : float option;  (** [None]: no datagram reached the host after the mark *)
}

type report = {
  samples : sample list;  (** chronological by mark, then host order *)
  mean_recovery_s : float option;  (** over recovered samples; [None] if none *)
  max_recovery_s : float option;
  unrecovered : int;
}

val report : t -> report
val pp_report : Format.formatter -> report -> unit
