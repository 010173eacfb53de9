(** Unicast routing.

    Shortest-path (hop count) routes computed over the router graph,
    giving every node a route to every link prefix — the behaviour of an
    intra-domain IGP.  Routes target {e links}, never hosts: a mobile
    host's home address keeps routing to its home link wherever the host
    is, which is exactly the property Mobile IPv6 exists to work
    around.

    Only routers forward, so paths traverse router nodes; a host
    reaches off-link destinations through a router on its link.

    {b Tables.}  A node's table is a breadth-first search over the
    attachment graph, stored as one int array indexed by link id whose
    entries pack three 21-bit fields: hop distance, previous link and
    the router joining the two, each plus one so that 0 means none
    (an entry of 0 is an unreachable link).  Ids above 2^21-2 are
    refused with [Invalid_argument].  A query walks the previous-link
    fields back from the destination, so it costs the path length, not
    a map lookup per hop.  The graph itself — each node's links and
    each link's routers, both ascending — is flattened into arrays once
    per topology version; the search visits neighbours in that order,
    which fixes every equal-cost tie-break.  Each router is expanded
    once per search, from the first of its links the search dequeues:
    that expansion already discovers all of its links, so expanding it
    again from a later link would discover nothing.  On the 100-router
    Waxman cell this cut the search from about 33k inner steps a table
    to under 2k, with the same tables.  The search's queue and
    expanded-router marks are kept between builds, so a build
    allocates only its own table.

    {b Caching.}  Tables and the flattened graph are built lazily and
    dropped whenever {!Topology.version} moves, host moves included.
    Keying the tables on router attachments alone, so that host moves
    kept transit tables, was measured on the 100-router Waxman cell
    with these packed tables: host moves cause about one build in ten
    (11 of 111 a run), and the kept tables raised the benchmark's
    retained heap by 12.7% (5.47 to 6.17 MB) without a measurable
    speed-up, so the one invalidation rule stays (a table rooted at a
    host would still depend on that host's attachment). *)

open Ipv6

type t

(** Result of a forwarding decision at a node. *)
type decision =
  | Deliver_on_link of Ids.Link_id.t
      (** Destination's link is directly attached: deliver locally. *)
  | Forward of { out_link : Ids.Link_id.t; next_hop : Ids.Node_id.t }
      (** Send out [out_link] to the given router. *)
  | Unreachable

val create : Topology.t -> t

val decide : t -> at:Ids.Node_id.t -> dst:Addr.t -> decision

val distance_to_link : t -> from:Ids.Node_id.t -> Ids.Link_id.t -> int option
(** Number of links traversed to reach the link (0 when attached). *)

val path_to_link : t -> from:Ids.Node_id.t -> Ids.Link_id.t -> Ids.Link_id.t list option
(** The link-level path, starting with the first out-link and ending
    with the destination link; [Some []] when already attached. *)

val rpf : t -> at:Ids.Node_id.t -> source:Addr.t ->
  (Ids.Link_id.t * Ids.Node_id.t option * int) option
(** PIM-DM reverse-path check: the interface this node uses to reach
    [source], the upstream router on it ([None] when the source's link
    is directly attached) and the hop metric, the {!distance_to_link}
    of the source's link (0 when attached). *)
