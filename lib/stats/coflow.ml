(* Aggregation of coflow (task-group) completions into all-workers-finish
   metrics: the coflow completion time (CCT) is max(start + fct) over the
   members minus the group's first start, a group is censored when any
   member is, and the group deadline is met when every member finished and
   the CCT is within the (shared) deadline.

   Moments and extremes come from a Welford accumulator, quantiles from a
   t-digest over per-group CCTs. Like Attrib, the structure is closure-free
   so it survives Marshal across the fork-parallel runner, and [merge] is
   deterministic in operand order ([finish] folds groups in sorted task-id
   order, so t-digest insertion order is byte-stable too). *)

type t = {
  cct : Welford.t;  (* over completed (non-censored) groups *)
  digest : Tdigest.t;
  mutable flows : int;  (* member flows across all observed groups *)
  mutable censored : int;  (* groups with at least one censored member *)
  mutable deadline_met : int;
  mutable deadline_total : int;  (* groups that carried a deadline *)
}

let create () =
  {
    cct = Welford.create ();
    digest = Tdigest.create ();
    flows = 0;
    censored = 0;
    deadline_met = 0;
    deadline_total = 0;
  }

let observe t ~cct ~width ~censored ~deadline =
  t.flows <- t.flows + width;
  if censored then t.censored <- t.censored + 1
  else begin
    Welford.add t.cct cct;
    Tdigest.add t.digest cct
  end;
  match deadline with
  | None -> ()
  | Some d ->
      t.deadline_total <- t.deadline_total + 1;
      if (not censored) && cct <= d then t.deadline_met <- t.deadline_met + 1

let completed t = Welford.count t.cct
let coflows t = completed t + t.censored
let censored t = t.censored
let flows t = t.flows
let cct_mean t = Welford.mean t.cct
let cct_quantile t q = Tdigest.quantile t.digest q
let deadline_met t = t.deadline_met
let deadline_total t = t.deadline_total

let deadline_met_frac t =
  if t.deadline_total = 0 then nan
  else float_of_int t.deadline_met /. float_of_int t.deadline_total

let merge a b =
  {
    cct = Welford.merge a.cct b.cct;
    digest = Tdigest.merge a.digest b.digest;
    flows = a.flows + b.flows;
    censored = a.censored + b.censored;
    deadline_met = a.deadline_met + b.deadline_met;
    deadline_total = a.deadline_total + b.deadline_total;
  }

(* JSON with fixed key order and %.17g floats (nan -> null), matching the
   conventions of Result_codec so the coflow object slots into codec v8. *)

let json_float x =
  if Float.is_nan x || x = Float.infinity || x = Float.neg_infinity then "null"
  else Printf.sprintf "%.17g" x

let to_json t =
  let n = coflows t in
  if n = 0 then {|{"coflows":0}|}
  else
    Printf.sprintf
      {|{"coflows":%d,"completed":%d,"censored":%d,"flows":%d,"cct_mean":%s,"cct_min":%s,"cct_max":%s,"cct_p50":%s,"cct_p90":%s,"cct_p99":%s,"deadline_met":%d,"deadline_total":%d,"deadline_met_frac":%s}|}
      n (completed t) t.censored t.flows
      (json_float (Welford.mean t.cct))
      (json_float (Welford.min t.cct))
      (json_float (Welford.max t.cct))
      (json_float (Tdigest.quantile t.digest 0.5))
      (json_float (Tdigest.quantile t.digest 0.9))
      (json_float (Tdigest.quantile t.digest 0.99))
      t.deadline_met t.deadline_total
      (json_float (deadline_met_frac t))

(* One task group while its member records stream in. *)
type group = {
  first_start : float;
  last_end : float;
  members : int;
  any_censored : bool;
  group_deadline : float option;  (* min over member deadlines *)
}

type groups = (int, group) Hashtbl.t

let groups () : groups = Hashtbl.create 64

let track (gs : groups) (r : Fct.record) =
  Option.iter
    (fun tid ->
      let finish = r.Fct.start_time +. r.Fct.fct in
      Hashtbl.replace gs tid
        (match Hashtbl.find_opt gs tid with
        | None ->
            {
              first_start = r.Fct.start_time;
              last_end = finish;
              members = 1;
              any_censored = r.Fct.censored;
              group_deadline = r.Fct.deadline;
            }
        | Some g ->
            {
              first_start = Float.min g.first_start r.Fct.start_time;
              last_end = Float.max g.last_end finish;
              members = g.members + 1;
              any_censored = g.any_censored || r.Fct.censored;
              group_deadline =
                (match (g.group_deadline, r.Fct.deadline) with
                | Some d0, Some d -> Some (Float.min d0 d)
                | d, None | None, d -> d);
            }))
    r.Fct.task

let finish (gs : groups) =
  if Hashtbl.length gs = 0 then None
  else begin
    let agg = create () in
    Det_tbl.iter
      (fun _tid g ->
        observe agg
          ~cct:(Float.max 0. (g.last_end -. g.first_start))
          ~width:g.members ~censored:g.any_censored ~deadline:g.group_deadline)
      gs;
    Some agg
  end
