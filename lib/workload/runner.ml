type protocol = Dctcp | D2tcp | L2dct | Pfabric | Pdq | D3 | Pase of Config.t

let name = function
  | Dctcp -> "DCTCP"
  | D2tcp -> "D2TCP"
  | L2dct -> "L2DCT"
  | Pfabric -> "pFabric"
  | Pdq -> "PDQ"
  | D3 -> "D3"
  | Pase cfg ->
      if not cfg.Config.use_ref_rate then "PASE-DCTCP"
      else if cfg.Config.local_only then "PASE-local"
      else if cfg.Config.scheduling = Config.Task_aware then "PASE-task"
      else "PASE"

let pase = Pase Config.default

type hybrid = { enabled : bool; fluid_threshold : int }

let default_fluid_threshold = 32768

type hybrid_stats = {
  hybrid_on : bool;
  threshold_bytes : int;
  fluid_flows : int;  (* classifier sent to the fluid tier *)
  fluid_demotions : int;  (* total demotions to packet level *)
  fault_demotions : int;  (* demotions forced by path faults *)
  fluid_recomputes : int;  (* rate-allocation passes *)
  fluid_bytes : float;  (* bytes advanced analytically *)
  short_p99 : float;  (* p99 FCT of flows the classifier left packet-level *)
}

type result = {
  scenario : string;
  protocol : string;
  load : float;
  fct : Fct.t;
  afct : float;
  p99 : float;
  p999 : float;
  app_throughput : float;
  loss_rate : float;
  ctrl_msgs : int;
  ctrl_msg_rate : float;
  duration : float;
  events : int;
  completed : int;
  censored : int;
  stray_pkts : int;
  (* Fault plane: all zero / nan for fault-free runs. *)
  faults_injected : int;
  blackholed_pkts : int;
  ctrl_lost_msgs : int;
  link_downtime_s : float;
  recovery_s : float;  (* nan when no crash recovered *)
  afct_baseline : float;  (* fault-free AFCT of the same scenario; nan if n/a *)
  afct_inflation : float;  (* afct /. afct_baseline; nan if n/a *)
  attrib : Attrib.t option;
      (* per-flow delay attribution aggregate; None unless run ~attrib *)
  hybrid : hybrid_stats option;
      (* hybrid fidelity accounting; None unless run ~hybrid *)
  coflow : Coflow.t option;
      (* coflow (task-group) CCT aggregate; None when no spec carries a
         task id *)
  peak_heap : int;
  sched_profile : (string * int) list;
  (* GC deltas over the run, profiling runs only (zero otherwise). Like
     wall_s they depend on process state: never byte-compare them. *)
  gc_minor_words : float;
  gc_promoted_words : float;
  gc_major_collections : int;
}

let mss = 1460

(* Bits on the wire per full-sized data packet. *)
let pkt_bits = float_of_int (8 * (mss + Packet.header_bytes))

(* ECN marking threshold K, scaled with link speed as in the DCTCP
   guidelines (65 packets at 10 Gbps, 20 at 1 Gbps). *)
let mark_threshold_for rate_bps = if rate_bps >= 5e9 then 65 else 20

(* A protocol's arbitration side for one run: the control state its
   switches hold (PASE's hierarchy, PDQ arbiters, D3 routers), created once
   per run, and the hooks the runner drives. [start_flow] attaches the
   protocol's sender to a flow; [init_cwnd] seeds the window of a flow
   demoted from the fluid tier. The fault hooks mirror {!Fault.create}'s;
   [extra] feeds the fabric sampler. *)
type plane = {
  start_flow :
    flow:Flow.t ->
    task:int option ->
    init_rtt:float ->
    init_cwnd:float option ->
    on_complete:(Sender_base.t -> fct:float -> unit) ->
    unit;
  on_crash : int -> unit;
  on_restart : int -> unit;
  on_ctrl_loss : float option -> unit;
  on_link_down : int -> int -> unit;
  extra : unit -> (string * float) list;
  stop : unit -> unit;
  recovery_s : unit -> float;  (* nan when no crash recovered *)
}

(* One row per protocol: everything the runner needs to know about it. *)
type row = {
  qdisc : Counters.t -> rtt:float -> rate_bps:float -> Queue_disc.t;
  standing : (float -> float) option;
      (* Fluid standing-queue delay at a bottleneck of the given rate;
         [None] for protocols that stay packet-level under hybrid. *)
  plane : Engine.t -> Counters.t -> Scenario.plan -> plane;
}

let inert start_flow =
  {
    start_flow;
    on_crash = ignore;
    on_restart = ignore;
    on_ctrl_loss = ignore;
    on_link_down = (fun _ _ -> ());
    extra = (fun () -> []);
    stop = ignore;
    recovery_s = (fun () -> nan);
  }

(* No switch state: the endpoint is the whole protocol. *)
let endpoint_only start _ _ plan = inert (start plan.Scenario.topo.Topology.net)

(* Per-link switch state (PDQ arbiters, D3 routers), one value per directed
   link, created on first use along a flow's route. A crashed node loses the
   state of its outgoing links; a down link loses both directions'. *)
let path_plane ~make ~clear start _ _ plan =
  let net = plan.Scenario.topo.Topology.net in
  let tbl = Hashtbl.create 32 in
  let rec along acc = function
    | a :: (b :: _ as rest) ->
        let r =
          match Hashtbl.find_opt tbl (a, b) with
          | Some r -> r
          | None ->
              let link = Option.get (Net.link_from net a b) in
              let r = make ~capacity_bps:(Link.rate_bps link) in
              Hashtbl.replace tbl (a, b) r;
              r
        in
        along (r :: acc) rest
    | _ -> List.rev acc
  in
  let route (flow : Flow.t) =
    along []
      (Net.route net ~flow:flow.Flow.id ~src:flow.Flow.src ~dst:flow.Flow.dst ())
  in
  {
    (inert (start net route)) with
    on_crash =
      (fun node -> Det_tbl.iter (fun (a, _) r -> if a = node then clear r) tbl);
    on_link_down =
      (fun a b ->
        List.iter
          (fun key -> Option.iter clear (Hashtbl.find_opt tbl key))
          [ (a, b); (b, a) ]);
  }

(* DCTCP and its deadline-/size-aware variants: RED/ECN queues, and a
   fluid tier that holds ~K of standing backlog at its bottleneck, which
   packet-tier traffic waits behind in the full engine. 3/4 K: the sawtooth
   oscillates below the threshold, so the time-average backlog sits under K
   (calibrated on the fat-tree accuracy harness; see DESIGN.md §15). *)
let ecn_row (conf : ?init_rtt:float -> unit -> Sender_base.conf)
    (create :
      Net.t -> flow:Flow.t -> ?conf:Sender_base.conf -> on_complete:_ -> unit ->
      Sender_base.t) =
  {
    qdisc =
      (fun counters ~rtt:_ ~rate_bps ->
        Queue_disc.red_ecn counters ~limit_pkts:225
          ~mark_threshold:(mark_threshold_for rate_bps));
    standing =
      Some
        (fun rate_bps ->
          0.75 *. float_of_int (mark_threshold_for rate_bps) *. pkt_bits
          /. rate_bps);
    plane =
      endpoint_only (fun net ~flow ~task:_ ~init_rtt ~init_cwnd ~on_complete ->
          let conf = conf ~init_rtt () in
          let conf =
            Option.fold init_cwnd ~none:conf ~some:(fun w ->
                { conf with Sender_base.init_cwnd = w })
          in
          Sender_base.start (create net ~flow ~conf ~on_complete ()));
  }

(* Hybrid fidelity: ECN-based transports converge to a fair share on long
   flows, which is exactly what the max-min fluid model computes; PASE's
   rate assignment is approximated by the same fair share while a flow is
   fluid (arbitration re-engages at demotion). pFabric/PDQ/D3 schedule
   packets by remaining size or explicit per-flow rates — collapsing them to
   a fair share would change the very mechanism under study, so they stay
   packet-level ([standing = None]). *)
let row = function
  | Dctcp -> ecn_row Dctcp.conf Dctcp.create
  | D2tcp -> ecn_row D2tcp.conf D2tcp.create
  | L2dct -> ecn_row L2dct.conf L2dct.create
  | Pfabric ->
      {
        (* Table 3 verbatim: 76-packet ports (= 2 x the BDP the paper sizes
           against), flows start at a 38-segment window (line rate for over
           an RTT on every topology evaluated). *)
        qdisc =
          (fun counters ~rtt:_ ~rate_bps:_ ->
            Pfabric_queue.create counters ~limit_pkts:76);
        standing = None;
        plane =
          endpoint_only
            (fun net ~flow ~task:_ ~init_rtt ~init_cwnd:_ ~on_complete ->
              Sender_base.start
                (Pfabric_host.create net ~flow
                   ~conf:(Pfabric_host.conf ~init_rtt ~init_cwnd:38. ())
                   ~on_complete ()));
      }
  | Pdq ->
      {
        (* PDQ argues for (and depends on) near-empty queues: it provisions
           only a little over one BDP of (1 Gbps edge) buffering. Rate-update
           staleness under heavy churn then surfaces as drops + RTOs, the
           flow-switching cost Fig 2 measures. *)
        qdisc =
          (fun counters ~rtt ~rate_bps ->
            let scale = if rate_bps >= 5e9 then 10. else 1. in
            let limit =
              max 12 (int_of_float (1.6 *. scale *. (1e9 *. rtt /. pkt_bits)))
            in
            Queue_disc.droptail counters ~limit_pkts:limit);
        standing = None;
        plane =
          path_plane ~make:Pdq.Arbiter.create ~clear:Pdq.Arbiter.clear
            (fun net route ~flow ~task:_ ~init_rtt ~init_cwnd:_ ~on_complete ->
              let arbiters = route flow in
              Rate_host.start
                (Pdq.create net ~flow ~arbiters ~rtt:init_rtt ~on_complete));
      }
  | D3 ->
      {
        qdisc =
          (fun counters ~rtt:_ ~rate_bps:_ ->
            Queue_disc.droptail counters ~limit_pkts:225);
        standing = None;
        plane =
          path_plane ~make:D3.Router.create ~clear:D3.Router.clear
            (fun net route ~flow ~task:_ ~init_rtt ~init_cwnd:_ ~on_complete ->
              let routers = route flow in
              Rate_host.start
                (D3.create net ~flow ~routers ~rtt:init_rtt ~on_complete));
      }
  | Pase cfg ->
      {
        qdisc =
          (fun counters ~rtt:_ ~rate_bps ->
            Prio_queue.create counters ~bands:cfg.Config.num_queues
              ~limit_pkts:cfg.Config.queue_limit_pkts
              ~mark_threshold:(mark_threshold_for rate_bps));
        (* Arbitration paces senders to allocated rates and keeps queues
           near-empty: no standing-queue term. *)
        standing = Some (fun _ -> 0.);
        plane =
          (fun engine counters plan ->
            let topo = plan.Scenario.topo in
            (* Arbitration runs once per RTT (sec 3.1); track the
               topology's. *)
            let h =
              Hierarchy.create engine counters
                {
                  cfg with
                  Config.arb_period =
                    Float.min cfg.Config.arb_period plan.Scenario.rtt;
                }
                topo
                ~base_rate_bps:(pkt_bits /. plan.Scenario.rtt)
            in
            Hierarchy.start h;
            {
              start_flow =
                (fun ~flow ~task ~init_rtt ~init_cwnd:_ ~on_complete ->
                  (* Task-aware scheduling: all flows of a task share one
                     criterion, tasks served in arrival order (task ids are
                     assigned in arrival order by the scenario). *)
                  let criterion_override =
                    match (cfg.Config.scheduling, task) with
                    | Config.Task_aware, Some task ->
                        Some (fun () -> float_of_int task)
                    | (Config.Task_aware | Config.Srpt | Config.Edf), _ -> None
                  in
                  Pase_host.start
                    (Pase_host.create topo.Topology.net h ~flow ~cfg
                       ~rtt:init_rtt ~nic_bps:topo.Topology.edge_rate_bps
                       ?criterion_override ~on_complete ()));
              on_crash = Hierarchy.fail_node h;
              on_restart = Hierarchy.recover_node h;
              on_ctrl_loss = Hierarchy.set_ctrl_loss_override h;
              on_link_down = (fun _ _ -> ());
              extra =
                (fun () ->
                  [
                    ("arb.rounds", float_of_int (Hierarchy.rounds h));
                    ("arb.count", float_of_int (Hierarchy.arbitrator_count h));
                  ]);
              stop = (fun () -> Hierarchy.stop h);
              recovery_s =
                (fun () -> Option.value (Hierarchy.recovery_s h) ~default:nan);
            });
      }

let fluid_capable p = Option.is_some (row p).standing

let rec run ?(profile = false) ?horizon ?(stats = `Exact) ?on_record
    ?(attrib = false) ?on_attrib ?series ?hybrid protocol scenario =
  (match hybrid with
  | Some h when h.fluid_threshold <= 0 ->
      invalid_arg "Runner.run: fluid threshold must be positive"
  | _ -> ());
  (* Fault-free baseline for AFCT inflation, run first so the faulted run's
     process-global state (packet ids, trace clock) is the fresh one.
     Skipped under tracing: the baseline's events would pollute the sinks.
     The baseline inherits [stats] and [hybrid] (same memory and fidelity
     profile) but never spills records, never samples and never attributes:
     only the measured run's flows belong in the stream (and Delay is
     process-global, like Trace). *)
  let afct_baseline =
    if scenario.Scenario.faults = [] || Trace.on () then nan
    else
      (run ?horizon ~stats ?hybrid protocol (Scenario.with_faults scenario []))
        .afct
  in
  let row = row protocol in
  let attrib_agg = if attrib then Some (Attrib.create ()) else None in
  if attrib then Delay.enable ();
  Packet.reset_ids ();
  let engine = Engine.create () in
  Engine.set_profiling engine profile;
  let counters = Counters.create () in
  let plan =
    Scenario.build scenario engine counters
      ~qdisc:(row.qdisc counters ~rtt:(Scenario.nominal_rtt scenario))
  in
  let topo = plan.Scenario.topo in
  let net = topo.Topology.net in
  (* Hybrid fidelity: the classifier's half of the decision, and the fluid
     tier, which exists only when hybrid is enabled for a fluid-capable
     protocol. Without it every coupling hook below is a match on [None]
     and the packet path is untouched. *)
  let fluid =
    match (hybrid, row.standing) with
    | Some h, Some standing_of -> Some (h, standing_of)
    | (Some _ | None), _ -> None
  in
  let fluid_tier =
    match fluid with
    | Some (h, standing_of) when h.enabled ->
        Some
          (Fluid.create engine net
             ~demote_bytes:(float_of_int h.fluid_threshold)
             ~standing_of
             (* One pass per topology RTT: congestion control cannot
                re-converge faster anyway, and it decouples allocation
                cost from the flow churn rate at scale. *)
             ~min_interval:(Scenario.nominal_rtt scenario) ())
    | Some _ | None -> None
  in
  let fct =
    match stats with
    | `Exact -> Fct.create ()
    | `Streaming -> Fct.create_streaming ~seed:scenario.Scenario.seed ()
  in
  let coflow_groups = Coflow.groups () in
  (* Every record goes through here: aggregate, then spill to the caller's
     sink (the CLI's JSONL stream) if one is attached. *)
  let record r =
    Fct.add_record fct r;
    Coflow.track coflow_groups r;
    Option.iter (fun f -> f r) on_record
  in
  let plane = row.plane engine counters plan in
  (* A no-op for the (usual) empty schedule. *)
  let faults =
    Fault.create topo ~on_crash:plane.on_crash ~on_restart:plane.on_restart
      ~on_ctrl_loss:plane.on_ctrl_loss
      ~on_link:(fun a b ~up ->
        (* A down link demotes every fluid flow crossing it: loss and
           recovery behaviour need the packet engine. *)
        Option.iter (fun fl -> Fluid.on_link_change fl a b ~up) fluid_tier;
        if not up then plane.on_link_down a b)
      scenario.Scenario.faults
  in
  let total_measured =
    List.length
      (List.filter (fun s -> not s.Scenario.long_lived) plan.Scenario.specs)
  in
  let completed = ref 0 in
  (* Flows still open at the horizon: spec, launch-time size, zero-load
     FCT. *)
  let open_flows : (int, Scenario.flow_spec * int * float) Hashtbl.t =
    Hashtbl.create 256
  in
  let next_id = ref 0 in
  (* Fidelity tag: the classifier decision, recorded even when hybrid is
     configured but disabled, so a packet-only comparison run cuts the
     identical short-flow subset (see Fct.packet_tier_percentile). *)
  let classify (spec : Scenario.flow_spec) =
    match fluid with
    | Some (h, _) ->
        Scenario.fluid_eligible ~threshold_bytes:h.fluid_threshold spec
    | None -> false
  in
  (* Completed and censored records alike carry the launch-time size and
     the zero-load FCT. *)
  let record_flow id (spec : Scenario.flow_spec) size_pkts ideal ~start_time
      ~fct ~censored =
    record
      {
        Fct.flow = id;
        size_pkts;
        start_time;
        fct;
        deadline = spec.Scenario.deadline;
        censored;
        ideal = Some ideal;
        task = spec.Scenario.task;
        fluid = classify spec;
      }
  in
  let launch (spec : Scenario.flow_spec) =
    let id = !next_id in
    incr next_id;
    let size_pkts =
      if spec.Scenario.long_lived then Flow.long_lived_size
      else Flow.size_pkts_of_bytes ~mss spec.Scenario.size_bytes
    in
    let launched_at = Engine.now engine in
    let init_rtt =
      Topology.base_rtt topo ~src:spec.Scenario.src ~dst:spec.Scenario.dst
        ~data_bytes:(mss + Packet.header_bytes)
    in
    (* Zero-load FCT: base RTT plus serialization of the remaining train at
       the edge rate (slowdown denominator). *)
    let ideal =
      init_rtt
      +. float_of_int ((size_pkts - 1) * 8 * (mss + Packet.header_bytes))
         /. topo.Topology.edge_rate_bps
    in
    if not spec.Scenario.long_lived then
      Hashtbl.replace open_flows id (spec, size_pkts, ideal);
    (* Start — or restart, after fluid demotion — the packet-level life of
       the flow. For a never-fluid flow the arguments are the full size and
       original deadline and this is exactly the pre-hybrid launch path. *)
    let start_packet ~remaining_pkts ~deadline ~init_cwnd () =
      let flow =
        Flow.make ~id ~src:spec.Scenario.src ~dst:spec.Scenario.dst
          ~size_pkts:remaining_pkts ~start_time:(Engine.now engine) ?deadline ()
      in
      let recv = Receiver.create net ~flow ~ack_tos:0 ~ack_prio:0. () in
      let on_complete _sender ~fct:_ =
        Receiver.stop recv;
        Option.iter (fun fl -> Fluid.unregister_packet fl ~id) fluid_tier;
        if not spec.Scenario.long_lived then begin
          Hashtbl.remove open_flows id;
          (* Full span, covering any fluid phase of a demoted flow. For a
             never-fluid flow this is bit-identical to the sender's reported
             fct: same subtraction, same operands. *)
          record_flow id spec size_pkts ideal ~start_time:launched_at
            ~fct:(Engine.now engine -. launched_at) ~censored:false;
          Option.iter
            (fun agg ->
              Option.iter
                (fun r ->
                  Attrib.add agg ~size_pkts r;
                  Option.iter (fun f -> f ~size_pkts r) on_attrib)
                (Delay.take ~flow:id))
            attrib_agg;
          incr completed;
          if !completed = total_measured then Engine.stop engine
        end
      in
      Option.iter
        (fun fl ->
          Fluid.register_packet fl ~id ~src:spec.Scenario.src
            ~dst:spec.Scenario.dst)
        fluid_tier;
      plane.start_flow ~flow ~task:spec.Scenario.task ~init_rtt ~init_cwnd
        ~on_complete
    in
    match fluid_tier with
    | Some fl when classify spec ->
        (* Fluid phase first; [on_demote] fires exactly once (synchronously
           when the size is already at the boundary) and hands the packet
           tail over with the settled remaining bytes and last fluid rate. *)
        let bytes =
          if spec.Scenario.long_lived then infinity
          else float_of_int spec.Scenario.size_bytes
        in
        Fluid.admit fl ~id ~src:spec.Scenario.src ~dst:spec.Scenario.dst ~bytes
          ~on_demote:(fun ~remaining_bytes ~rate_bps ->
            let now = Engine.now engine in
            let remaining_pkts =
              (* A fault can demote a long-lived flow with infinite
                 remaining bytes: it continues long-lived at packet level. *)
              if remaining_bytes >= 1e15 then Flow.long_lived_size
              else
                Flow.size_pkts_of_bytes ~mss
                  (max 1 (int_of_float (ceil remaining_bytes)))
            in
            let deadline =
              Option.map
                (fun d -> Float.max 1e-6 (d -. (now -. launched_at)))
                spec.Scenario.deadline
            in
            (* Seed the demoted window near the fluid rate so the packet
               tail resumes at speed instead of slow-starting. *)
            let init_cwnd =
              if rate_bps <= 0. then None
              else Some (Float.max 2. (rate_bps *. init_rtt /. pkt_bits))
            in
            start_packet ~remaining_pkts ~deadline ~init_cwnd ())
    | Some _ | None ->
        start_packet ~remaining_pkts:size_pkts ~deadline:spec.Scenario.deadline
          ~init_cwnd:None ()
  in
  List.iter
    (fun spec ->
      Engine.schedule_at ~label:"flow-launch" engine ~time:spec.Scenario.start
        (fun () -> launch spec))
    plan.Scenario.specs;
  let last_arrival =
    List.fold_left (fun acc s -> Float.max acc s.Scenario.start) 0.
      plan.Scenario.specs
  in
  let horizon =
    match horizon with Some h -> h | None -> last_arrival +. 5.0
  in
  Fault.arm faults;
  (* Fabric sampler: observes the finalized topology's links at a fixed
     sim-time cadence, plus arbitration-plane counters. Pure observation —
     results are unchanged whether or not it runs. *)
  let sampler =
    Option.map
      (fun (store, interval) ->
        let links =
          List.map
            (fun (a, b, l) -> (Printf.sprintf "%d-%d" a b, l))
            (Net.links net)
        in
        let extra () =
          plane.extra ()
          @ [
              ("ctrl.msgs", float_of_int counters.Counters.ctrl_msgs);
              ("ctrl.lost", float_of_int counters.Counters.ctrl_lost);
            ]
        in
        Sampler.start engine ~store ~interval ~links ~extra ())
      series
  in
  Engine.run ~until:horizon engine;
  Option.iter Sampler.stop sampler;
  plane.stop ();
  Fault.finish faults;
  let end_time = Engine.now engine in
  (* Flows still open at the horizon are censored. Sorted traversal: the
     record order below is the record order in the published result. *)
  Det_tbl.iter
    (fun id ((spec : Scenario.flow_spec), size_pkts, ideal) ->
      record_flow id spec size_pkts ideal ~start_time:spec.Scenario.start
        ~fct:(Float.max 0. (end_time -. spec.Scenario.start))
        ~censored:true)
    open_flows;
  let prof = Engine.profile engine in
  let afct = Fct.afct fct in
  if attrib then Delay.disable ();
  let hybrid_stats =
    Option.map
      (fun h ->
        let fs =
          match fluid_tier with
          | Some fl ->
              (* Settle censored fluid flows to the end time so the
                 analytic byte count covers the whole run. *)
              Fluid.flush fl;
              Fluid.stats fl
          | None ->
              {
                Fluid.admitted = 0;
                demotions = 0;
                fault_demotions = 0;
                recomputes = 0;
                bytes_advanced = 0.;
                live = 0;
              }
        in
        {
          hybrid_on = Option.is_some fluid_tier;
          threshold_bytes = h.fluid_threshold;
          fluid_flows = fs.Fluid.admitted;
          fluid_demotions = fs.Fluid.demotions;
          fault_demotions = fs.Fluid.fault_demotions;
          fluid_recomputes = fs.Fluid.recomputes;
          fluid_bytes = fs.Fluid.bytes_advanced;
          short_p99 = Fct.packet_tier_percentile fct 99.;
        })
      hybrid
  in
  {
    scenario = scenario.Scenario.name;
    protocol = name protocol;
    load = scenario.Scenario.load;
    fct;
    afct;
    p99 = Fct.percentile fct 99.;
    p999 = Fct.percentile fct 99.9;
    app_throughput = Fct.deadline_met_fraction fct;
    loss_rate = Counters.loss_rate counters;
    ctrl_msgs = counters.Counters.ctrl_msgs;
    ctrl_msg_rate =
      (if end_time > 0. then float_of_int counters.Counters.ctrl_msgs /. end_time
       else 0.);
    duration = end_time;
    events = Engine.events_processed engine;
    completed = !completed;
    censored = Fct.censored_count fct;
    stray_pkts = counters.Counters.stray_pkts;
    faults_injected = Fault.count scenario.Scenario.faults;
    blackholed_pkts = counters.Counters.blackholed_pkts;
    ctrl_lost_msgs = counters.Counters.ctrl_lost;
    link_downtime_s = (Fault.stats faults).Fault.downtime_s;
    recovery_s = plane.recovery_s ();
    afct_baseline;
    afct_inflation = afct /. afct_baseline;
    attrib = attrib_agg;
    hybrid = hybrid_stats;
    (* All-workers-finish group completion times; see {!Coflow.finish}. *)
    coflow = Coflow.finish coflow_groups;
    peak_heap = prof.Engine.peak_heap;
    sched_profile = prof.Engine.sites;
    gc_minor_words = prof.Engine.minor_words;
    gc_promoted_words = prof.Engine.promoted_words;
    gc_major_collections = prof.Engine.major_collections;
  }
