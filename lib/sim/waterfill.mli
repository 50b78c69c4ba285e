(** Max-min fair rate allocation (progressive water-filling), the kernel of
    the fluid tier ({!Fluid}).

    Input: link capacities and flow paths, a path being the indices of the
    links a flow crosses. Output: each flow's rate, each link's summed
    rate, and which links were a bottleneck. The algorithm repeatedly takes
    the tightest link (least remaining capacity per unfrozen flow crossing
    it), freezes every unfrozen flow crossing a link at that share, and
    subtracts the share along those flows' paths, until every flow is
    frozen.

    A min-heap of links keyed by [remaining /. unfrozen] orders the levels:
    each level pops every live key equal to the minimum, freezes the flows
    crossing those links, and re-keys only the links those flows touch
    (older keys go stale and are skipped on pop).
    A pass costs O((F·P + L) log L) for F flows of path length P over L
    loaded links.

    Results are bitwise those of the level-by-level rescan: levels come in
    the order of the global minimum key, and within a level every frozen
    flow subtracts the same share [s] from each link it crosses
    ([Float.max 0. (rem -. s)]), so the order the level's flows freeze in
    cannot change any float. Per-link sums add rates in flow index order.
    A rounding step can re-key a link at or below the level just taken;
    the heap pops it again at the next level, so keys need not grow.

    Capacities must be finite and non-negative (zero models a link that is
    down). A flow with an empty path, or whose links have no finite share,
    gets rate 0. *)

(** A reusable workspace: buffers grow to the largest instance solved and
    are reused, so a steady series of passes does not allocate. *)
type t

val create : unit -> t

(** [solve t ~cap ~n_links ~paths ~n_flows] allocates rates to flows
    [0 .. n_flows - 1] of [paths] over links [0 .. n_links - 1] of [cap].
    Entries of [cap] for links no flow crosses are never read. *)
val solve :
  t ->
  cap:Float.Array.t ->
  n_links:int ->
  paths:int array array ->
  n_flows:int ->
  unit

(** Per-flow rates of the last {!solve}, by flow index. The array is the
    workspace's own: read it before the next [solve]. *)
val rates : t -> Float.Array.t

(** Per-link summed rates of the last {!solve}, by link index, added in
    flow index order. Zero for links no flow crosses. *)
val loads : t -> Float.Array.t

(** [bottleneck t l]: link [l] froze at least one flow in the last
    {!solve}. *)
val bottleneck : t -> int -> bool
