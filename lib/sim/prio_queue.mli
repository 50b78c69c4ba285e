(** Strict-priority multi-band queue (commodity-switch PRIO/CBQ model).

    [bands] FIFO bands share one buffer pool of [limit_pkts] packets; band 0
    has the highest priority and is always drained first. Each band applies
    DCTCP-style CE marking when its own instantaneous occupancy reaches
    [mark_threshold].

    Overflow policy models dynamic shared-buffer management: when the pool is
    full, an arriving packet pushes out a queued packet from the
    lowest-priority non-empty band strictly below its own band; if no such
    band exists the arrival is dropped. *)

val create :
  Counters.t ->
  bands:int ->
  limit_pkts:int ->
  mark_threshold:int ->
  Queue_disc.t
