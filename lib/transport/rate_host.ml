type 'path policy = {
  tick_label : string option;
  apply_label : string option;
  unpause_rtts : float;
  request : 'path t -> float;
  release : 'path -> flow:int -> unit;
}

and 'path t = {
  sender : Sender_base.t;
  policy : 'path policy;
  path : 'path;
  rtt : float;
  nic_bps : float;
  rate : float ref;  (* currently applied rate *)
  stopped : bool ref;
  mutable tick_timer : Engine.timer option;  (* per-RTT refresh loop *)
}

(* The labels are wrapped once per protocol, so scheduling with them
   allocates nothing per flow or per round. *)
let policy ~tick_label ~apply_label ~unpause_rtts ~request ~release =
  {
    tick_label = Some tick_label;
    apply_label = Some apply_label;
    unpause_rtts;
    request;
    release;
  }

let sender h = h.sender
let path h = h.path
let rtt h = h.rtt
let nic_bps h = h.nic_bps

let mss_bits h = float_of_int (8 * (Sender_base.conf h.sender).Sender_base.mss)

(* One request header processed per switch, one response. *)
let count_ctrl h =
  let c = Net.counters (Sender_base.net h.sender) in
  c.Counters.ctrl_msgs <- c.Counters.ctrl_msgs + 2

let live h = (not !(h.stopped)) && not (Sender_base.completed h.sender)

let refresh h =
  let alloc = h.policy.request h in
  (* A rate change rides back in the returning header: one one-way delay.
     Unpausing may cost more (PDQ's explicit pause/unpause signalling, the
     1-2 RTT flow-switching overhead of §2.1). *)
  let delay =
    if !(h.rate) = 0. && alloc > 0. then h.policy.unpause_rtts *. h.rtt
    else h.rtt /. 2.
  in
  Engine.schedule ?label:h.policy.apply_label
    (Sender_base.engine h.sender)
    ~delay
    (fun () ->
      if live h then begin
        h.rate := alloc;
        if Trace.on () then
          Trace.emit
            (Trace.Rate
               { flow = (Sender_base.flow h.sender).Flow.id; rate_bps = alloc });
        Sender_base.try_send h.sender
      end)

(* The per-RTT refresh loop rides one reschedulable engine timer per flow
   instead of allocating a closure every round. *)
let rec tick h =
  if live h then begin
    refresh h;
    let tm =
      match h.tick_timer with
      | Some tm -> tm
      | None ->
          let tm =
            Engine.timer ?label:h.policy.tick_label
              (Sender_base.engine h.sender)
              (fun () -> tick h)
          in
          h.tick_timer <- Some tm;
          tm
    in
    Engine.timer_schedule (Sender_base.engine h.sender) tm ~delay:h.rtt
  end

let create net ~flow ~rtt policy ~path ~on_complete =
  let stopped = ref false in
  let rate = ref 0. in
  let nic_bps =
    match Net.route net ~flow:flow.Flow.id ~src:flow.Flow.src ~dst:flow.Flow.dst () with
    | a :: b :: _ -> (
        match Net.link_from net a b with
        | Some l -> Link.rate_bps l
        | None -> 1e9)
    | _ -> 1e9
  in
  let conf =
    {
      Sender_base.default_conf with
      Sender_base.init_cwnd = 1000.;
      max_cwnd = 1000.;
      min_rto = 0.010;
      init_rtt = rtt;
      ecn_capable = false;
    }
  in
  let hooks =
    {
      Sender_base.default_hooks with
      Sender_base.pacing_rate = (fun _ -> Some !rate);
    }
  in
  let engine = Net.engine net in
  let on_complete sender ~fct =
    stopped := true;
    (* The termination header reaches the switches one way later. *)
    Engine.schedule engine ~delay:(rtt /. 2.) (fun () ->
        policy.release path ~flow:flow.Flow.id);
    on_complete sender ~fct
  in
  let sender = Sender_base.create net ~flow ~conf ~hooks ~on_complete () in
  { sender; policy; path; rtt; nic_bps; rate; stopped; tick_timer = None }

let start h =
  Sender_base.start h.sender;
  tick h
