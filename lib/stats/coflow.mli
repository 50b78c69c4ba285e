(** Coflow (task-group) completion aggregates with all-workers-finish
    semantics: a coflow completes when its last member flow does, so the
    coflow completion time (CCT) is max(start + fct) over the members minus
    the group's first start. A group is censored when any member is; a
    group with a deadline meets it when it completed within the deadline.

    Bounded memory: a Welford accumulator for moments/extremes and a
    t-digest for CCT quantiles. Closure-free (Marshal/fork-safe) like
    {!Attrib}; [merge] is deterministic in operand order. {!finish}
    folds groups in sorted task-id order, so t-digest insertion order — and
    therefore every quantile — is byte-stable across runs and processes. *)

type t

(** Task groups (incast queries, coflow jobs) under construction while
    their member records stream in, keyed by the records' task id. *)
type groups

val groups : unit -> groups

(** [track gs r] adds record [r] (completed or censored) to its task's
    group; records without a task id are ignored. *)
val track : groups -> Fct.record -> unit

(** [finish gs] folds every group into a fresh aggregate, in sorted task-id
    order: CCT = last member finish − first member start (clamped at 0),
    censored when any member is, deadline = min over member deadlines.
    Censored groups count, but stay out of the CCT moments and quantiles.
    [None] when no record carried a task id. *)
val finish : groups -> t option

val coflows : t -> int
(** total groups observed (completed + censored) *)

val completed : t -> int
val censored : t -> int

val flows : t -> int
(** member flows across all observed groups *)

val cct_mean : t -> float
val cct_quantile : t -> float -> float
val deadline_met : t -> int
val deadline_total : t -> int

val deadline_met_frac : t -> float
(** [nan] when no group carried a deadline *)

val merge : t -> t -> t

(** Fixed key order, [%.17g] floats (nan/inf → [null]); collapses to
    [{"coflows":0}] when nothing was observed. *)
val to_json : t -> string
