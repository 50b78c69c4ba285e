(** The explicit-rate host shared by the arbitration transports (PDQ, D3;
    the paper's Table 1 "arbitration" strategy).

    Switches on the path hold per-flow state and compute an explicit rate;
    the sender refreshes its request every RTT and paces at the rate the
    returning header carries. This module is the host side, identical for
    every such protocol: the sender and its configuration (large fixed
    window, pacing at the granted rate), the NIC rate read from the first
    hop, the per-RTT refresh timer, the delayed application of each grant
    (with a {!Trace.Rate} event), and the release of switch state one
    one-way delay after completion. A protocol supplies only a {!policy}:
    its switch-side request function and a few constants. *)

type 'path t

(** A protocol's switch side. ['path] is the per-flow handle on the
    switches of the flow's path (e.g. the list of routers it crosses). *)
type 'path policy

(** [policy ~tick_label ~apply_label ~unpause_rtts ~request ~release] —
    build once per protocol, not per flow.

    - [tick_label], [apply_label]: {!Engine.profile} site labels of the
      per-RTT refresh and of the grant application.
    - [unpause_rtts]: RTTs until a grant that lifts a zero rate takes
      effect (every other grant takes effect after half an RTT).
    - [request h]: called every RTT while the flow is live; updates every
      switch on [path h], counts their control messages with
      {!count_ctrl}, and returns the allocated rate in bps.
    - [release path ~flow]: drops [flow]'s state at every switch. *)
val policy :
  tick_label:string ->
  apply_label:string ->
  unpause_rtts:float ->
  request:('path t -> float) ->
  release:('path -> flow:int -> unit) ->
  'path policy

(** [create net ~flow ~rtt policy ~path ~on_complete] — [rtt] is the base
    RTT: the refresh period, and the seed of the sender's RTT estimator. *)
val create :
  Net.t ->
  flow:Flow.t ->
  rtt:float ->
  'path policy ->
  path:'path ->
  on_complete:(Sender_base.t -> fct:float -> unit) ->
  'path t

(** Start the sender and the per-RTT refresh loop. *)
val start : 'path t -> unit

(** {2 For request functions} *)

val sender : 'path t -> Sender_base.t
val path : 'path t -> 'path
val rtt : 'path t -> float

(** Line rate of the flow's first hop: the cap on any grant. *)
val nic_bps : 'path t -> float

(** Bits per full segment. *)
val mss_bits : 'path t -> float

(** Count the two control messages one switch handles per refresh (the
    request header and the response) in the net's {!Counters.t}. *)
val count_ctrl : 'path t -> unit
