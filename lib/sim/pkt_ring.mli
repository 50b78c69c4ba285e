(** Growable FIFO ring of packets with removal at both ends: the one
    packet buffer of the data path (a link's in-flight packets, the FIFO
    qdisc, each band of {!Prio_queue}).

    Pushing and popping allocate nothing once the ring has grown to its
    high-water mark. Dead slots hold an inert sentinel packet, so a ring
    never keeps a popped packet reachable. Every packet pushed here is
    owned by the ring until popped: the caller hands it on, frees it, or
    traces it, never both keeps and pushes it. *)

type t

(** An empty ring; the backing array is allocated on the first push. *)
val create : unit -> t

val length : t -> int
val is_empty : t -> bool

(** [push t pkt] appends [pkt] at the back, doubling the backing array
    when full. *)
val push : t -> Packet.t -> unit

(** [pop t] removes and returns the front (oldest) packet. Raises
    [Invalid_argument] if the ring is empty. *)
val pop : t -> Packet.t

(** [pop_back t] removes and returns the back (most recently pushed)
    packet. Raises [Invalid_argument] if the ring is empty. *)
val pop_back : t -> Packet.t

(** Backing slots currently holding a packet rather than the sentinel.
    Equal to {!length} unless the ring leaks; exposed for tests. *)
val retained : t -> int
