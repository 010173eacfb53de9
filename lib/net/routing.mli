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
    attachment graph, stored as three int arrays indexed by link id:
    hop distance, previous link and the router joining the two (-1 for
    none).  A query walks the previous-link array back from the
    destination, so it costs the path length, not a map lookup per
    hop.  The graph itself — each node's links and each link's routers,
    both ascending — is flattened into arrays once per topology
    version; the search visits neighbours in that order, which fixes
    every equal-cost tie-break.

    {b Caching.}  Tables and the flattened graph are built lazily and
    dropped whenever {!Topology.version} moves, host moves included.
    Keying a second cache on router attachments alone, so that host
    moves kept transit tables, was measured on the 100-router Waxman
    cell: it would save about one build in ten, not enough to justify
    a second invalidation rule (a table rooted at a host would still
    depend on that host's attachment). *)

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
  (Ids.Link_id.t * Ids.Node_id.t option) option
(** PIM-DM reverse-path check: the interface this node uses to reach
    [source] and the upstream router on it ([None] when the source's
    link is directly attached). *)
