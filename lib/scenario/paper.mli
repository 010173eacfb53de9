(** The paper's experiments as scenario descriptors.

    Every figure, table and sweep of the paper runs one Figure-1
    script: subscribe R1–R3 at 5 s, stream from S every 0.5 s, move a
    host, run.  Here that script is a {!Desc.t} ({!figure1}) plus the
    run's own moves, flaps and crashes, executed by {!Runner.run} under
    the paper's (untightened) protocol timers with the invariant
    monitor attached; the measures are read through Runner's [inspect]
    hook ({!run}). *)

(** {1 The Figure-1 script} *)

val figure1 :
  ?seed:int ->
  ?from_t:float ->
  ?faults:Desc.fault list ->
  name:string ->
  until:float ->
  duration:float ->
  Desc.event list ->
  Desc.t
(** Figure 1 ({!Mmcast.Scenario.figure1}): R1, R2 and R3 join group 0
    at 5 s (when the run lasts that long), and S sends group 0 a
    500-byte datagram every 0.5 s from [from_t] (default 30 s) until
    [until].  The given events are merged in by time; [seed] defaults
    to {!Mmcast.Scenario.default_spec}'s. *)

val run :
  ?spec:Mmcast.Scenario.spec ->
  ?inspect:(Mmcast.Scenario.t -> Mmcast.Metrics.t -> unit) ->
  Desc.t ->
  Mmcast.Approach.t ->
  (Mmcast.Scenario.t -> Mmcast.Metrics.t -> unit -> 'a) ->
  'a
(** [run d approach measure] runs [d] through {!Runner.run} under
    [spec] (default {!Mmcast.Scenario.default_spec}).  From Runner's
    [inspect] hook, [measure] gets the scenario and a fresh
    {!Mmcast.Metrics.t}; it may schedule read-only probes, and the
    thunk it returns reads the measures after the run.  [inspect] runs
    after it, on the same scenario and {!Mmcast.Metrics.t}.
    @raise Violation if the monitor reports an invariant violation
    ({!check_verdict}); the measures are then not read. *)

exception Violation of string
(** A paper run failed its verdict.  The message names the run, its
    approach and its first violation, on one line. *)

val check_verdict : Desc.t -> Runner.outcome -> unit
(** @raise Violation if [outcome], a run of the descriptor, reports
    an invariant violation. *)

val rfc_mld : Mmcast.Scenario.spec
(** The paper's defaults with RFC-default MLD hosts: no unsolicited
    Reports, so a host waits for the next Query. *)

val watch_flaps : Desc.t -> hosts:string list -> Mmcast.Scenario.t -> Mmcast.Recovery.t
(** Time-to-reconverge of [hosts] (group 0), anchored on the repairs of
    the descriptor's [Flap] faults only — an ambient [Loss] window that
    closes with the run is no repair. *)

(** {1 Figures 1–5} *)

type fig_result = {
  description : string;
  tree : string;  (** rendered distribution tree *)
  links : string list;  (** links carrying the group's traffic *)
  tunnels : string list;  (** mobile hosts served through tunnels *)
  notes : (string * string) list;  (** measured quantities, in display order *)
}

val fig1 : ?spec:Mmcast.Scenario.spec -> unit -> fig_result
(** Initial source-rooted distribution tree (Figure 1). *)

val fig2 : ?spec:Mmcast.Scenario.spec -> unit -> fig_result
(** Mobile receiver, local group membership: R3 moves L4→L6
    (Figure 2); notes give join delay, leave delay and the bytes
    wasted on L4. *)

val fig3 : ?spec:Mmcast.Scenario.spec -> unit -> fig_result
(** Mobile receiver via home-agent tunnel: R3 moves L4→L1
    (Figure 3). *)

val fig4 : ?spec:Mmcast.Scenario.spec -> unit -> fig_result
(** Mobile sender via reverse tunnel: S moves L1→L6 (Figure 4). *)

val fig5 : unit -> string
(** Wire dump of a Binding Update carrying the Multicast Group List
    Sub-Option, plus the sub-option alone in the bit layout of the
    paper's Figure 5. *)

(** {1 Table 1}

    Two phases per approach: R3 moves L4→L6 (join and leave delay,
    waste, tunnel and signalling cost, losses, load), then S moves
    L1→L3 (asserts, re-flood onto the empty L5, (S,G) state).  Stretch
    is computed from shortest paths, in link crossings. *)

type row = {
  approach : Mmcast.Approach.t;
  (* mobile receiver phase *)
  join_delay_s : float option;  (** R3, after its handoff; None = never re-received *)
  leave_delay_s : float;  (** continued data on L4 after R3 left *)
  wasted_bytes_old_link : int;  (** data bytes on L4 after the move *)
  tunnel_overhead_bytes : int;
  signalling_bytes : int;
  receiver_stretch : float;  (** path length ratio for R3 on L6 *)
  receiver_lost : int;  (** datagrams sent after the move that R3 missed *)
  duplicates : int;
  ha_load : int;  (** router D's total work (receiver phase) *)
  mh_load : int;  (** R3's total work *)
  routers_load : int;  (** all five routers together *)
  (* mobile sender phase *)
  sender_asserts : int;
  sender_flood_bytes : int;  (** data bytes hitting the empty Link 5 after the sender moved *)
  sender_sg_states : int;  (** (S,G) entries across all routers at the end *)
  sender_stretch : float;  (** path ratio from moved S to R3 *)
}

type phase = [ `Receiver | `Sender ]

val phase : ?seed:int -> phase -> Desc.t
(** R3 moves at {!receiver_move_time} in a 360 s run; S moves at
    {!sender_move_time} in a 260 s run. *)

val receiver_move_time : float
val sender_move_time : float

val table1_row :
  ?spec:Mmcast.Scenario.spec ->
  ?inspect:(phase -> Mmcast.Scenario.t -> Mmcast.Metrics.t -> unit) ->
  Mmcast.Approach.t ->
  row
(** Both phases for one approach; [inspect] is each phase's {!run}
    hook, e.g. to attach telemetry to the phase's metrics. *)

val table1 : ?spec:Mmcast.Scenario.spec -> ?jobs:int -> unit -> row list
(** All four approaches, paper order, over [jobs] (default 1) domains;
    the rows do not depend on [jobs]. *)

val pp_table : Format.formatter -> row list -> unit
(** The quantitative Table 1. *)

(** {1 Section 4.3.2: tunnel delivery defeats multicast on shared
    foreign links} *)

type convergence_row = {
  conv_approach : Mmcast.Approach.t;
  foreign_link_data_bytes : int;
      (** application bytes crossing the shared foreign link *)
  foreign_link_packets : int;
  per_receiver_rx : int list;  (** sorted delivery counts *)
}

val tunnel_convergence :
  ?spec:Mmcast.Scenario.spec -> ?jobs:int -> unit -> convergence_row list
(** R2 and R3 both roam to Link 6 while S streams: one multicast copy
    per datagram crosses L6 under local membership, one unicast copy per
    member under the bi-directional tunnel. *)

(** {1 Section 4.4: MLD timer optimization} *)

type sweep_row = {
  tquery_s : float;
  trials : int;
  join_mean_s : float;
  join_min_s : float;
  join_max_s : float;
  leave_mean_s : float;
  wasted_mean_bytes : float;
  mld_bytes_per_s : float;  (** Query/Report signalling cost *)
}

val timer_sweep :
  ?base_seed:int ->
  ?trials:int ->
  ?unsolicited:bool ->
  ?tquery_values:float list ->
  ?jobs:int ->
  unit ->
  sweep_row list
(** For each TQuery value (default [125; 60; 30; 10] s), [trials]
    R3 handoffs stratified across the query cycle: join/leave delays
    and MLD signalling cost.  Trial [i] runs with seed [base_seed + i]
    (default base 1000).  [unsolicited] (default off) turns on the
    paper's recommended unsolicited Reports. *)

(** {1 Section 4.3.1: mobile sender overheads} *)

type overhead_row = {
  moves : int;
  asserts : int;
  flood_bytes_l5 : int;  (** re-flood traffic hitting the always-empty Link 5 *)
  sg_states : int;  (** (S,G) entries held across routers at the end *)
  total_data_bytes : int;  (** network-wide data traffic for the same offered load *)
}

val sender_overhead :
  ?spec:Mmcast.Scenario.spec -> ?move_counts:int list -> ?jobs:int -> unit -> overhead_row list
(** Sweep the sender's mobility rate (number of handoffs in a fixed
    300 s run) and measure re-flood and assert overheads. *)

(** {1 Fault recovery}

    Time until multicast delivery reaches R3 again after the transit
    link L3 heals ({!Mmcast.Recovery}). *)

type recovery_row = {
  rec_approach : Mmcast.Approach.t;
  loss_rate : float;  (** ambient per-delivery loss on L3 *)
  recovery : Mmcast.Recovery.report;  (** R3, anchored on the flap's repair *)
}

val fault_recovery :
  ?spec:Mmcast.Scenario.spec ->
  ?loss_rates:float list ->
  ?approaches:Mmcast.Approach.t list ->
  ?jobs:int ->
  unit ->
  recovery_row list
(** For every (loss rate, approach) pair: R3 roams L4→L6 at 50 s, L3
    flaps down at 80 s and up at 100 s under a whole-run [Loss] window
    at that rate (control traffic too, so the RFC retransmission timers
    pace recovery).  Defaults: loss rates [0; 0.05; 0.15], all four
    approaches. *)

val flap_recovery :
  ?spec:Mmcast.Scenario.spec ->
  ?flap_counts:int list ->
  ?jobs:int ->
  unit ->
  (int * Mmcast.Recovery.report) list
(** Sweep the number of 10 s flaps of L3 spread over a 340 s run
    (default 1, 2, 4): R3's recovery across all repair marks, per flap
    count. *)

(** {1 Every run} *)

val descriptors : unit -> (Desc.t * Mmcast.Scenario.spec) list
(** Every run the sections above make at their defaults (both MLD
    modes where bench prints both), with the spec it runs under, its
    approach included. *)
