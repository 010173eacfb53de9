(** Procedural, seed-deterministic scenario generation.

    Everything is drawn from {!Engine.Rng} streams rooted at the seed in
    a fixed order, so a (model, size, seed) triple names exactly one
    descriptor — byte-identical across runs and across [?jobs]
    settings. *)

type model = [ `Waxman | `Pref ]

val model_name : model -> string
(** ["waxman"] / ["pref"]. *)

val model_of_name : string -> model option

(** {1 Router graphs}

    Pure, seed-deterministic, connected edge lists over router indices
    [0..routers-1]. *)

val waxman_edges :
  ?alpha:float -> ?beta:float -> seed:int -> routers:int -> unit -> (int * int) list
(** Waxman random graph: routers at uniform positions in the unit
    square, an edge between [u] and [v] with probability
    [alpha * exp (-d(u,v) / (beta * sqrt 2))].  [alpha] (default 0.4)
    scales overall edge density, [beta] (default 0.4) the reach of long
    edges.  Any disconnected component is tied to the main component
    through its nearest predecessor, so the result is always connected.
    Edges are returned sorted with [fst < snd], no duplicates.
    @raise Invalid_argument if [routers < 1], [alpha] outside [0,1] or
    [beta <= 0]. *)

val pref_attach_edges : ?m:int -> seed:int -> routers:int -> unit -> (int * int) list
(** Barabási–Albert preferential attachment: router [i] joins [min m i]
    distinct earlier routers chosen proportionally to degree + 1
    ([m] defaults to 2; [m = 1] gives a random tree).  Connected by
    construction; hub-heavy degree distributions stress the Assert
    election and the forwarding fan-out.
    @raise Invalid_argument if [routers < 1] or [m < 1]. *)

val scenario :
  ?model:model ->
  ?hosts:int ->
  ?groups:int ->
  ?mobiles:int ->
  ?churn:int ->
  ?faults:int ->
  ?alpha:float ->
  ?beta:float ->
  ?m:int ->
  routers:int ->
  seed:int ->
  unit ->
  Desc.t
(** A connected multi-LAN router graph from the chosen generator
    (default [`Waxman]), one stub LAN per router, [hosts] hosts
    (default [max 4 (routers / 5)]) on random stubs.  Host ["H0"] (plus
    one host per extra group) sends CBR traffic; every other host joins
    a group early ([6..14] s), [churn] leave/rejoin toggles and
    [mobiles] handover excursions land in [15..60] s, and [faults]
    impairments (backbone loss windows, flaps, crashes of routers that
    serve no host) land in [25..55] s with every repair by 70 s.  The
    duration leaves a settled tail longer than the monitor's
    convergence bound after the last disruption, so a correct protocol
    stack must finish with zero violations. *)

val broken : ?routers:int -> seed:int -> unit -> Desc.t
(** The seeded broken variant: grafts disabled ([d_disable_graft]), no
    initial receivers — so PIM-DM prunes everywhere — then one late
    join that can only be served by a Graft.  Padded with churn and
    fault noise the shrinker must strip: the minimal reproduction is a
    single join event and an empty fault schedule. *)

val clean : ?routers:int -> seed:int -> unit -> Desc.t
(** {!broken}'s graft-enabled twin: the identical topology, churn,
    traffic, and fault schedule, with grafts working.  The schedule
    explorer uses it as a should-pass target — it exercises the exact
    prune/graft/assert/handover interplay the broken variant breaks, so
    surviving an exploration budget on it is evidence the protocols
    tolerate every explored interleaving, not just the canonical one. *)

val soak : seed:int -> Desc.t
(** The chaos soak on the paper's Figure 1 ({!Paper.figure1}):
    R1–R3 join at 0 s, S streams 5 datagrams/s for 240 s, wire-exact
    delivery is on ([d_wire_check]), and a seed-drawn schedule of
    {e recoverable} impairments — 3–5 loss, duplicate, reorder or
    corrupt windows, link flaps and router crash-restarts in
    [30, 140] s — runs while R3 roams once or twice and S in about
    half the runs.  Router D, the roaming hosts' home agent, is never
    crashed.  Every disruption is repaired with a settled tail longer
    than the monitor's convergence bound, so a correct protocol stack
    finishes with zero violations. *)
