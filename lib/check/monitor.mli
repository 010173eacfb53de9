(** Runtime protocol-invariant monitor.

    Attaches to a running {!Mmcast.Scenario} through the existing
    observer hooks (transmit observers, protocol snapshots, load
    counters) and continuously verifies the safety and liveness
    properties the paper's protocol stack is supposed to maintain:

    - {b assert-winner}: at most one PIM-DM router forwards a given
      (S,G) onto a LAN once the Assert process has had time to
      converge (draft-ietf-pim-v2-dm-03 section 3.5).
    - {b mld-querier}: exactly one MLD querier per link with MLD
      routers (RFC 2710 section 6, lowest-address election).
    - {b forwarding-loop}: no packet crosses the same link more often
      than the topology can explain, no unicast packet circulates
      until its hop limit runs out.
    - {b prune-graft}: prune state between PIM neighbours stays
      consistent — a router joined and forwarding downstream must not
      face a pruned upstream interface, a pruned-upstream router with
      live listeners must graft, and a Graft must eventually be
      acknowledged.
    - {b tunnel-coherence}: no packet is tunnelled to a stale care-of
      address once the binding registration has had time to complete
      (paper section 4.3.2).
    - {b black-hole}: a subscribed receiver on a live topology gets
      data within the convergence bound of the last disruption
      (eventual delivery — the paper's baseline expectation of all
      four Table 1 approaches).

    The monitor is read-only and draws no random numbers, so attaching
    it never perturbs a seeded run.  A liveness condition only becomes
    a violation when it has held for the {e convergence bound} — a
    duration computed from the protocol configuration
    ({!bound_for_spec}) — with the clock restarting at every
    disruption: a fault event firing, a handoff, a subscription
    change, a link down, a failed router, or heavy (≥ 0.5) loss or
    corruption.  Detected violations carry the event time, the node or
    link concerned, and a replayable excerpt of the protocol trace.

    {b Cost.}  A sample follows changes to protocol state, not the
    sample clock or topology size, and a quiet one — nothing moved,
    no condition holds — allocates nothing.  It compares what it reads
    against what the previous sample read, with integer and physical
    compares, and re-derives a check's conditions only where something
    moved:

    - {b MLD querier.}  Each link's routers are listed once at
      [attach] (routers never change links; only hosts move).  A link's
      querier conditions are re-derived only when one of its routers
      failed, recovered or moved its {!Mld.Mld_router.generation}.
    - {b PIM.}  A router is re-snapshotted only when its
      {!Pimdm.Pim_router.generation} moved.  The forwarders table, its
      contested (link, S, G) keys and the prune-graft candidates
      (Grafting entries, Pruned entries with an oif no other router
      covers, Joined entries nobody feeds) are rebuilt only when some
      router's generation moved.  Otherwise a sample tests the stream
      clocks on the contested keys and candidates alone.
    - {b Hosts.}  Each host's attach time and subscription set are kept
      by host index and compared physically first; black-hole progress
      is one array slot per subscribed group, read with one lookup of
      the host's receive counters.
    - {b Liveness clocks.}  Each check keeps its clocks under its own
      typed key; a check with no condition holding and no clock running
      does no table work at all.

    Link conditions are scanned only while
    {!Net.Network.impaired_links} is non-zero.  The per-packet observer
    hashes nothing: it indexes arrays by the transmission's channel
    ({!Net.Ids.Channel_id}) and link id, for the streams' liveness
    times, the per-link limits and names, and the loop counter
    ({!Tx_window}), which keeps the {!Tx_window.size} most recent
    datagrams of each (channel, link) that carried data.  It formats a
    string only when it records a violation. *)

open Mmcast

type invariant =
  | Assert_winner
  | Mld_querier
  | Forwarding_loop
  | Prune_graft
  | Tunnel_coherence
  | Black_hole

val invariant_name : invariant -> string

val invariant_of_name : string -> invariant option
(** Inverse of {!invariant_name} — the scenario-repro loader uses it to
    re-match a persisted violation against a replay. *)

type violation = {
  v_invariant : invariant;
  v_at : Engine.Time.t;  (** simulated time of detection *)
  v_where : string;  (** node or link concerned *)
  v_detail : string;
  v_trace : Engine.Trace.record list;
      (** the trace's {!Engine.Trace.recent} records at detection,
          newest first *)
  v_chain : string list;
      (** rendered causal chain (root first) of the most recent
          relevant packet drop when lineage collection
          ({!Engine.Sim.set_lineage}) is enabled; [[]] otherwise *)
}

type config = {
  sample_interval : Engine.Time.t;  (** state-poll period, default 0.5 s *)
  sustain : Engine.Time.t option;
      (** override the computed convergence bound (tests use a short
          one to catch deliberately broken configurations quickly) *)
}

val default_config : config

val bound_for_spec : Scenario.spec -> Engine.Time.t
(** Convergence bound implied by a scenario's protocol configuration:
    the slowest control-plane repair path (movement detection, an MLD
    query/report cycle, prune override and graft retries, the Binding
    Update retransmission backoff) or a binding refresh cycle,
    whichever is longer, plus a scheduling margin.  A liveness
    condition sustained longer than this after the last disruption is
    a violation. *)

type t

val attach : ?config:config -> ?faults:Faults.t -> Scenario.t -> t
(** Start monitoring.  [faults] lets the monitor restart its
    convergence clocks when scheduled fault events fire.  A scenario
    without a monitor attached pays zero overhead — there is no hook
    in the packet path until [attach] registers one. *)

val detach : t -> unit
(** Stop sampling and observing, and release the tables that served
    only that (snapshots, querier stamps, host state, address
    ownership, liveness clocks, and the loop counter's
    {!Tx_window.size} datagrams per (channel, link)); recorded
    violations and the sample count stay readable. *)

val bound : t -> Engine.Time.t
val samples : t -> int

val violations : t -> violation list
(** Chronological. *)

val violation_count : t -> int

val pp_violation : Format.formatter -> violation -> unit
val pp_report : Format.formatter -> t -> unit
