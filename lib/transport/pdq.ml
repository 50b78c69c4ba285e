let es_rtts = 1.

module Arbiter = struct
  type entry = {
    flow : int;
    mutable remaining_pkts : int;
    mutable nic_bps : float;  (* line rate: cap on any grant *)
    mutable usable_bps : float;
        (* what the flow can actually use given its other links (suppressed
           demand): capacity reserved for a flow never exceeds this *)
    deadline : float option;
  }

  type t = { capacity_bps : float; entries : (int, entry) Hashtbl.t }

  let create ~capacity_bps = { capacity_bps; entries = Hashtbl.create 32 }

  let update t ~flow ~remaining_pkts ~nic_bps ~usable_bps ~deadline =
    match Hashtbl.find_opt t.entries flow with
    | Some e ->
        e.remaining_pkts <- remaining_pkts;
        e.nic_bps <- nic_bps;
        e.usable_bps <- usable_bps
    | None ->
        Hashtbl.replace t.entries flow
          { flow; remaining_pkts; nic_bps; usable_bps; deadline }

  let remove t ~flow = Hashtbl.remove t.entries flow
  let flows t = Hashtbl.length t.entries

  (* Switch crash / link outage: flow state at this switch is lost; hosts
     repopulate it through their per-RTT refresh headers. *)
  let clear t = Hashtbl.reset t.entries

  (* Criticality order: earliest deadline first, then shortest remaining,
     then flow id for determinism (PDQ's EDF+SJF tie-breaking). *)
  let compare_entries a b =
    match (a.deadline, b.deadline) with
    | Some da, Some db when da <> db -> compare da db
    | Some _, None -> -1
    | None, Some _ -> 1
    | _ ->
        let c = compare a.remaining_pkts b.remaining_pkts in
        if c <> 0 then c else compare a.flow b.flow

  (* The rate this link would grant [flow]: walk flows in criticality
     order; each higher-priority flow consumes only what it can use
     (suppressed demand), and a flow about to finish cedes its slot to the
     next in line (Early Start). *)
  let allocation t ~flow ~rtt ~mss_bits =
    let sorted =
      Det_tbl.fold (fun _ e acc -> e :: acc) t.entries []
      |> List.sort compare_entries
    in
    let rec walk avail = function
      | [] -> 0.
      | e :: rest ->
          let grant = Float.min e.nic_bps avail in
          if e.flow = flow then grant
          else
            let consumed = Float.min grant e.usable_bps in
            let finish_time =
              if consumed > 0. then
                float_of_int e.remaining_pkts *. mss_bits /. consumed
              else infinity
            in
            let consumed = if finish_time < es_rtts *. rtt then 0. else consumed in
            walk (Float.max 0. (avail -. consumed)) rest
    in
    walk t.capacity_bps sorted
end

type path = {
  arbiters : Arbiter.t array;
  last_grants : float array;
      (* most recent grant per path link; infinity before the first *)
}

(* What this flow could use on link [j], namely the minimum of the other
   links' last grants (its bottleneck elsewhere) and its line rate. *)
let usable_elsewhere ~nic_bps p j =
  let m = ref nic_bps in
  Array.iteri (fun k g -> if k <> j then m := Float.min !m g) p.last_grants;
  !m

let request h =
  let p = Rate_host.path h in
  let s = Rate_host.sender h in
  let flow = (Sender_base.flow s).Flow.id in
  let deadline = Flow.absolute_deadline (Sender_base.flow s) in
  let remaining = Sender_base.remaining_pkts s in
  let nic_bps = Rate_host.nic_bps h in
  Array.iteri
    (fun j a ->
      Arbiter.update a ~flow ~remaining_pkts:remaining ~nic_bps
        ~usable_bps:(usable_elsewhere ~nic_bps p j) ~deadline;
      Rate_host.count_ctrl h)
    p.arbiters;
  let rtt = Rate_host.rtt h and mss_bits = Rate_host.mss_bits h in
  Array.iteri
    (fun j a -> p.last_grants.(j) <- Arbiter.allocation a ~flow ~rtt ~mss_bits)
    p.arbiters;
  Array.fold_left Float.min nic_bps p.last_grants

(* Unpausing costs a full extra RTT on top of the one-way return (explicit
   pause/unpause signalling). *)
let policy =
  Rate_host.policy ~tick_label:"pdq-tick" ~apply_label:"pdq-apply"
    ~unpause_rtts:1.5 ~request
    ~release:(fun p ~flow ->
      Array.iter (fun a -> Arbiter.remove a ~flow) p.arbiters)

let create net ~flow ~arbiters ~rtt ~on_complete =
  let arbiters = Array.of_list arbiters in
  let path =
    { arbiters; last_grants = Array.make (Array.length arbiters) infinity }
  in
  Rate_host.create net ~flow ~rtt policy ~path ~on_complete
