module Router = struct
  type entry = { flow : int; mutable request_bps : float; arrival : int }

  type t = {
    capacity_bps : float;
    entries : (int, entry) Hashtbl.t;
    mutable next_arrival : int;
  }

  let create ~capacity_bps =
    { capacity_bps; entries = Hashtbl.create 32; next_arrival = 0 }

  let update t ~flow ~request_bps =
    match Hashtbl.find_opt t.entries flow with
    | Some e -> e.request_bps <- Float.max 0. request_bps
    | None ->
        Hashtbl.replace t.entries flow
          { flow; request_bps = Float.max 0. request_bps; arrival = t.next_arrival };
        t.next_arrival <- t.next_arrival + 1

  let remove t ~flow = Hashtbl.remove t.entries flow
  let flows t = Hashtbl.length t.entries

  (* Router crash / link outage: reservations at this router are lost and
     rebuilt from the hosts' per-RTT rate requests. [next_arrival] keeps
     counting so re-registered flows queue behind surviving FCFS order. *)
  let clear t = Hashtbl.reset t.entries

  let allocation t ~flow =
    let n = Hashtbl.length t.entries in
    if n = 0 then 0.
    else begin
      let sorted =
        Det_tbl.fold (fun _ e acc -> e :: acc) t.entries []
        |> List.sort (fun a b -> compare a.arrival b.arrival)
      in
      (* FCFS greedy satisfaction of reservations. *)
      let avail = ref t.capacity_bps in
      let granted = Hashtbl.create n in
      List.iter
        (fun e ->
          let g = Float.min e.request_bps !avail in
          Hashtbl.replace granted e.flow g;
          avail := !avail -. g)
        sorted;
      let fair = Float.max 0. !avail /. float_of_int n in
      match Hashtbl.find_opt granted flow with
      | Some g -> g +. fair
      | None -> 0.
    end
end

(* The rate that finishes the flow exactly at its deadline. *)
let desired_rate h =
  let s = Rate_host.sender h in
  match Flow.absolute_deadline (Sender_base.flow s) with
  | None -> 0.
  | Some abs_deadline ->
      let left = abs_deadline -. Engine.now (Sender_base.engine s) in
      let remaining_bits =
        float_of_int (Sender_base.remaining_pkts s) *. Rate_host.mss_bits h
      in
      let nic_bps = Rate_host.nic_bps h in
      if left <= 0. then nic_bps else Float.min nic_bps (remaining_bits /. left)

let request h =
  let flow = (Sender_base.flow (Rate_host.sender h)).Flow.id in
  let request_bps = desired_rate h in
  let routers = Rate_host.path h in
  List.iter
    (fun r ->
      Router.update r ~flow ~request_bps;
      Rate_host.count_ctrl h)
    routers;
  List.fold_left
    (fun acc r -> Float.min acc (Router.allocation r ~flow))
    (Rate_host.nic_bps h) routers

(* Grants return in the header one one-way delay later, unpausing included. *)
let policy =
  Rate_host.policy ~tick_label:"d3-tick" ~apply_label:"d3-apply"
    ~unpause_rtts:0.5 ~request
    ~release:(fun routers ~flow ->
      List.iter (fun r -> Router.remove r ~flow) routers)

let create net ~flow ~routers ~rtt ~on_complete =
  Rate_host.create net ~flow ~rtt policy ~path:routers ~on_complete
