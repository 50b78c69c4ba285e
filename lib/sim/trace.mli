(** Structured tracing: a process-global event bus with typed events and
    pluggable sinks.

    Overhead contract: when no sink is attached the bus is disabled and every
    instrumentation site reduces to one read of a mutable bool ([on ()]) —
    no event value is constructed, nothing is allocated. Guard every call
    site as

    {[ if Trace.on () then Trace.emit (Trace.Drop { ... }) ]}

    The bus is process-global on purpose: forked parallel workers each
    inherit their own copy, so a worker's trace is exactly the trace the
    same job produces when run serially (byte-identical, given the engine
    determinism contract). *)

(** Event kinds, used for filtering and CLI parsing. *)
module Kind : sig
  type t =
    | Enqueue
    | Dequeue
    | Drop
    | Mark
    | Tx
    | Rx
    | Stray
    | Flow_start
    | Flow_finish
    | Flow_timeout
    | Cwnd
    | Rate
    | Queue_assign
    | Arb
    | Arb_alloc
    | Delegate
    | Ctrl
    | Alpha
    | Link_state
    | Blackhole

  val count : int
  val index : t -> int
  val name : t -> string
  val of_name : string -> t option
  val all : t list
end

(** Attachment point of a queue discipline: the directed link draining it.
    Fields are [-1] until [Net.connect] wires the discipline to a node pair. *)
type loc = { mutable from_node : int; mutable to_node : int }

val unattached_loc : unit -> loc

type event =
  | Enqueue of { pkt : Packet.t; link : int * int; qpkts : int }
  | Dequeue of { pkt : Packet.t; link : int * int; qpkts : int }
  | Drop of { pkt : Packet.t; link : int * int; qpkts : int }
  | Mark of { pkt : Packet.t; link : int * int; qpkts : int }
  | Tx of { pkt : Packet.t; link : int * int }
  | Rx of { pkt : Packet.t; node : int }
  | Stray of { pkt : Packet.t; node : int }
  | Flow_start of {
      flow : int;
      src : int;
      dst : int;
      size_pkts : int;
      deadline : float option;
    }
  | Flow_finish of { flow : int; fct : float }
  | Flow_timeout of { flow : int; backoff : int }
  | Cwnd of { flow : int; cwnd : float; ssthresh : float }
  | Rate of { flow : int; rate_bps : float }
  | Queue_assign of { flow : int; queue : int; rref_bps : float }
  | Arb of { link : int * int; delegate : int; flows : int; top_flows : int }
  | Arb_alloc of {
      link : int * int;
      delegate : int;
      flow : int;
      queue : int;
      rref_bps : float;
    }
  | Delegate of { parent : int * int; tor : int; share_bps : float }
  | Ctrl of { flow : int; msgs : int }
  | Alpha of { flow : int; alpha : float }
  | Link_state of { link : int * int; up : bool }
  | Blackhole of { pkt : Packet.t; link : int * int }

val kind_of : event -> Kind.t

val flow_of : event -> int
(** Flow id the event concerns, or [-1] for flowless events ([Arb],
    [Delegate], [Link_state]). Flowless events never pass a flow filter. *)

val link_of : event -> (int * int) option

val json_float : float -> string
(** The JSON rendering of a float shared by every JSON writer: [%.17g],
    which round-trips doubles, so reruns serialize to identical bytes;
    nan and ±inf, which JSON lacks, become [null]. *)

val to_json : time:float -> event -> string
(** One JSON object (no trailing newline): [{"t":<float>,"kind":"<name>",...}].
    Floats are rendered by {!json_float}. *)

val to_text : time:float -> event -> string
(** ns-2-style one-liner: packet events lead with the classic op character
    ([+] enqueue, [-] dequeue, [d] drop, [m] mark, [t] tx, [r] receive,
    [?] stray, [b] blackhole); other events lead with the kind name. *)

(** {1 Sinks} *)

type sink = { emit : float -> event -> unit; close : unit -> unit }

val jsonl_sink : out_channel -> sink
(** Writes [to_json] lines. [close] flushes but does not close the channel. *)

val text_sink : out_channel -> sink

type ring

val ring_sink : capacity:int -> ring * sink
(** Bounded in-memory sink keeping the most recent [capacity] events. *)

val ring_contents : ring -> (float * event) list
(** Retained events, oldest first. *)

val ring_length : ring -> int
(** Number of retained events ([<= capacity]). *)

val ring_seen : ring -> int
(** Total events ever delivered to the sink, including evicted ones. *)

val ring_dropped : ring -> int
(** Events evicted to make room: [max 0 (seen - capacity)]. *)

(** {1 The global bus} *)

val on : unit -> bool
(** Fast guard: true iff at least one sink is attached. *)

val emit : event -> unit
(** Deliver to all sinks if enabled and the event passes the filters.
    Call sites must still guard on [on ()] so the event value is only
    constructed when tracing is live. *)

val attach : sink -> unit
(** Attach a sink and enable the bus. *)

val reset : unit -> unit
(** Close all sinks, detach them, disable the bus, clear all filters and
    the emitted counter. *)

val set_clock : (unit -> float) -> unit
(** Timestamp source; [Net.create] and [Runner.run] point it at their
    engine's [Engine.now]. *)

val set_kind_filter : Kind.t list option -> unit
(** [Some kinds] passes only those kinds; [None] passes all (default). *)

val set_flow_filter : int list option -> unit
(** [Some flows] passes only events whose [flow_of] is listed; flowless
    events are excluded. [None] passes all (default). *)

val set_link_filter : (int * int) list option -> unit
(** [Some links] passes only events whose [link_of] is listed; linkless
    events are excluded. [None] passes all (default). *)

val emitted : unit -> int
(** Events that passed the filters and reached sinks since the last
    [reset]. *)
