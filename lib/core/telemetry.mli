(** Protocol telemetry: one call wires a scenario's observable state
    into an {!Obs.Registry} time-series document.

    {!attach} registers, per sampling tick:

    {ul
    {- [link.<name>.native_bytes] / [.tunnelled_bytes] /
       [.tunnel_overhead_bytes] — cumulative application bytes on every
       link, split native vs Mobile-IP-tunnelled (the paper's
       bandwidth-cost observable);}
    {- [control.mld_bytes] / [.pim_bytes] / [.mipv6_bytes] /
       [.nd_bytes] — cumulative signalling cost by protocol;}
    {- [control.<kind>] — the control-message census
       (joins, prunes, grafts, queries, reports, binding updates, …);}
    {- [host.<name>.received] / [.duplicates] — per-receiver delivery
       counts for the scenario group;}
    {- [router.<name>.sg_entries] — live PIM (S,G) state;}
    {- [router.<name>.bindings] — home-agent binding-cache size;}
    {- the {!Obs.Probe} engine series (queue depth, events/sec,
       per-category handler timing).}}

    Join/leave delays are distributions, not series: record them with
    {!record_join_delay} / {!record_leave_delay} as the workload
    observes them and they are exported as summary snapshots. *)

open Ipv6

type t

val attach :
  ?probe:bool ->
  ?profile:bool ->
  ?group:Addr.t ->
  Obs.Registry.t ->
  Scenario.t ->
  Metrics.t ->
  t
(** [probe] (default [true]) also attaches {!Obs.Probe}; [profile]
    is forwarded to it.  [group] defaults to {!Scenario.group}.
    Attaching only reads state — it never perturbs the protocols. *)

val record_join_delay : t -> Engine.Time.t -> unit
(** Exported as the [join_delay_s] summary. *)

val record_leave_delay : t -> Engine.Time.t -> unit
(** Exported as the [leave_delay_s] summary. *)
