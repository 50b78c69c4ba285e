(* The simulator benchmark. Runs one named reference workload through the
   library's public API (Scenario, Runner, Parallel, Result_codec, Fct,
   Fluid, Trace), checks the simulated outputs, and prints one JSON line:

     {"correct":..,"attempted":..,"failed":..,"metrics":{..},"digests":[..]}

   [--trace 0] measures the end-to-end metrics on untraced runs;
   [--trace 1] measures the per-layer metrics from a separate traced run.
   simbench/run.py builds this program, adds the peak resident memory and
   the reference-digest check, and prints the final result line. The
   metric definitions are in README.md beside this file. *)

(* Wall clock, for spans and the per-layer times. *)
let now = Unix.gettimeofday

(* Processor time (user + system) of this process and of every child it has
   waited for: the sweep's forked workers are reaped by Parallel.run_jobs.
   The end-to-end times use it, so that time the host gives to other
   tenants, which the wall clock counts, drops out. *)
let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime +. t.Unix.tms_cutime
  +. t.Unix.tms_cstime

(* ---- spans -------------------------------------------------------------- *)

(* Every call the benchmark makes into the library runs inside a span. Spans
   stay in memory; a traced run writes them out when it ends. A span's
   parent is the span that was open when it started. *)
type span = { id : int; parent : int; name : string; t0 : float; t1 : float }

let spans = ref []
let open_spans = ref []
let next_span = ref 0

let fresh_id () =
  let id = !next_span in
  incr next_span;
  id

let current_parent () = match !open_spans with p :: _ -> p | [] -> -1

(* [timed name f] runs [f] in a span; returns its value and the span's
   duration in seconds. *)
let timed name f =
  let id = fresh_id () in
  let parent = current_parent () in
  open_spans := id :: !open_spans;
  let t0 = now () in
  let close () =
    let t1 = now () in
    open_spans := List.tl !open_spans;
    spans := { id; parent; name; t0; t1 } :: !spans;
    t1 -. t0
  in
  match f () with
  | v -> (v, close ())
  | exception e ->
      ignore (close ());
      raise e

(* A span that ran in a forked worker, known here by its duration only. *)
let add_remote_span name ~dur =
  let t1 = now () in
  spans :=
    { id = fresh_id (); parent = current_parent (); name; t0 = t1 -. dur; t1 }
    :: !spans

let write_spans path =
  let origin =
    List.fold_left (fun acc s -> Float.min acc s.t0) infinity !spans
  in
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        {|{"id":%d,"parent":%d,"name":"%s","start_s":%.9f,"end_s":%.9f}|} s.id
        s.parent s.name (s.t0 -. origin) (s.t1 -. origin);
      output_char oc '\n')
    (List.rev !spans);
  close_out oc

(* ---- workloads ---------------------------------------------------------- *)

type workload = {
  name : string;
  jobs : seed:int -> Parallel.job list;
  stats : [ `Exact | `Streaming ];
  hybrid : Runner.hybrid option;
  swept : bool;
      (* run through Parallel.run_jobs into a fresh cache, then re-run warm *)
  setup_batch : int;  (* builds of the whole job list per set-up sample *)
}

(* Every protocol of Fig 9a but pFabric. pFabric runs on left-right leave
   stray packets on about one sweep seed in six (late ACKs that reach the
   sender after it has completed and unregistered), so a sweep that held
   it would fail its stray check on most sets of benchmark runs. The
   defect stands in the program; selftest.py reproduces it and fails once it
   is gone, so that pFabric is put back here (see README.md). *)
let protocols = Runner.[ Dctcp; D2tcp; L2dct; Pdq; D3; pase ]
let sweep_loads = [ 0.3; 0.6; 0.9 ]
let sweep_flows = 200

(* Fixed, not the core count: the sweep's figures then mean the same thing
   on every host. *)
let workers = 2

let workloads =
  [
    {
      name = "dctcp_k10_hybrid";
      jobs =
        (fun ~seed ->
          [
            ( Runner.Dctcp,
              Scenario.fat_tree_uniform ~k:10 ~num_flows:5000 ~seed ~load:0.6 ()
            );
          ]);
      stats = `Streaming;
      hybrid =
        Some
          {
            Runner.enabled = true;
            fluid_threshold = Runner.default_fluid_threshold;
          };
      swept = false;
      setup_batch = 15;
    };
    {
      name = "left_right_sweep";
      (* Each job draws its own traffic, so that a run averages over 18
         independent schedules rather than 3 and its work varies less from
         seed to seed. *)
      jobs =
        (fun ~seed ->
          List.concat_map
            (fun load -> List.map (fun p -> (p, load)) protocols)
            sweep_loads
          |> List.mapi (fun i (p, load) ->
                 ( p,
                   Scenario.left_right ~num_flows:sweep_flows
                     ~seed:((1000 * seed) + i) ~load () )));
      stats = `Exact;
      hybrid = None;
      swept = true;
      setup_batch = 5;
    };
  ]

(* ---- set-up ------------------------------------------------------------- *)

(* Runner's ECN marking threshold: 65 packets at 10 Gbps, 20 at 1 Gbps. *)
let mark_threshold_for rate_bps = if rate_bps >= 5e9 then 65 else 20

(* The queues Runner.run builds for each protocol (Runner keeps its own
   copy private), so that set-up times the Scenario.build a run performs. *)
let qdisc_for protocol counters ~rtt =
  let bdp_pkts rate_bps =
    rate_bps *. rtt /. float_of_int (8 * (1460 + Packet.header_bytes))
  in
  match protocol with
  | Runner.Dctcp | D2tcp | L2dct ->
      fun ~rate_bps ->
        Queue_disc.red_ecn counters ~limit_pkts:225
          ~mark_threshold:(mark_threshold_for rate_bps)
  | Pfabric -> fun ~rate_bps:_ -> Pfabric_queue.create counters ~limit_pkts:76
  | Pdq ->
      fun ~rate_bps ->
        let scale = if rate_bps >= 5e9 then 10. else 1. in
        let limit = max 12 (int_of_float (1.6 *. scale *. bdp_pkts 1e9)) in
        Queue_disc.droptail counters ~limit_pkts:limit
  | D3 -> fun ~rate_bps:_ -> Queue_disc.droptail counters ~limit_pkts:225
  | Pase cfg ->
      fun ~rate_bps ->
        Prio_queue.create counters ~bands:cfg.Config.num_queues
          ~limit_pkts:cfg.Config.queue_limit_pkts
          ~mark_threshold:(mark_threshold_for rate_bps)

let build ((protocol, scenario) : Parallel.job) =
  let engine = Engine.create () in
  let counters = Counters.create () in
  let plan, _ =
    timed "Scenario.build" (fun () ->
        Scenario.build scenario engine counters
          ~qdisc:
            (qdisc_for protocol counters ~rtt:(Scenario.nominal_rtt scenario)))
  in
  (engine, plan)

let median = function
  | [] -> 0.
  | l ->
      let a = Array.of_list l in
      Array.sort Float.compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* One set-up sample: processor time to build every scenario of the
   workload once, averaged over a fixed batch of [w.setup_batch] builds of
   the whole job list, since one build of a small scenario takes
   milliseconds. A run takes one sample after each rep, so that its samples
   span the run as its reps do and one burst of host load moves one sample,
   not all. No collection is forced first: a Gc.full_major after a rep grew
   the process's peak resident memory by half. *)
let setup_sample w jobs =
  let c0 = cpu () in
  let (), _ =
    timed "setup" (fun () ->
        for _ = 1 to w.setup_batch do
          List.iter (fun job -> ignore (build job)) jobs
        done)
  in
  (cpu () -. c0) /. float_of_int w.setup_batch

(* ---- host speed --------------------------------------------------------- *)

(* Processor time on a shared host follows the speed the host gives the
   benchmark, which drifts by a third and more within minutes. So each
   end-to-end run also times a fixed kernel after every rep and scales its
   times to the host speed at which the kernel takes [kernel_ref_s] (about
   its time on a 2-vCPU Xeon VM when the host was least loaded). The
   kernel is benchmark code that calls no library module, so no change to
   the program moves its cost, and its loop allocates nothing, so the
   program's heap does not either. It mimics the simulator's inner loop: take the
   earliest event of a binary heap, update its flow's state, and replace it
   with the flow's next event. *)
let kernel_ref_s = 0.15
let kernel_steps = 1_200_000
let kernel_heap = 8192
let k_time = Array.make kernel_heap 0.
let k_flow = Array.make kernel_heap 0
let k_state = Array.make 4096 0.

let swap i j =
  let t = k_time.(i) and f = k_flow.(i) in
  k_time.(i) <- k_time.(j);
  k_flow.(i) <- k_flow.(j);
  k_time.(j) <- t;
  k_flow.(j) <- f

let rec sift_up i =
  let parent = (i - 1) / 2 in
  if i > 0 && k_time.(parent) > k_time.(i) then begin
    swap i parent;
    sift_up parent
  end

let rec sift_down i =
  let l = (2 * i) + 1 in
  if l < kernel_heap then begin
    let c =
      if l + 1 < kernel_heap && k_time.(l + 1) < k_time.(l) then l + 1 else l
    in
    if k_time.(c) < k_time.(i) then begin
      swap i c;
      sift_down c
    end
  end

(* Processor time of one pass of the kernel. *)
let kernel () =
  let c0 = cpu () in
  let seed = ref 12345 in
  let next () =
    seed := ((!seed * 1103515245) + 12345) land 0x3fffffff;
    !seed
  in
  for i = 0 to kernel_heap - 1 do
    k_time.(i) <- float_of_int (next ()) *. 1e-9;
    k_flow.(i) <- next ();
    sift_up i
  done;
  Array.fill k_state 0 (Array.length k_state) 0.;
  for _ = 1 to kernel_steps do
    let f = k_flow.(0) land 4095 in
    k_state.(f) <- k_state.(f) +. k_time.(0);
    k_time.(0) <- k_time.(0) +. (float_of_int (next () land 1023) *. 1e-6);
    k_flow.(0) <- next ();
    sift_down 0
  done;
  cpu () -. c0

(* ---- correctness -------------------------------------------------------- *)

let attempted = ref 0
let failed = ref 0

(* Counts one simulation run; it failed if any check reported an error. *)
let account what errors =
  incr attempted;
  if errors <> [] then begin
    incr failed;
    List.iter
      (fun e -> Printf.eprintf "[simbench] FAIL %s: %s\n%!" what e)
      errors
  end

let check_result (scenario : Scenario.t) (r : Runner.result) =
  let n = scenario.Scenario.num_flows in
  let errs = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  if r.Runner.completed + r.Runner.censored <> n then
    fail "completed %d + censored %d <> %d measured flows" r.Runner.completed
      r.Runner.censored n;
  if Fct.count r.Runner.fct <> n then
    fail "%d FCT records for %d measured flows" (Fct.count r.Runner.fct) n;
  if r.Runner.stray_pkts <> 0 then fail "%d stray packets" r.Runner.stray_pkts;
  (match r.Runner.hybrid with
  | Some h when h.Runner.hybrid_on ->
      (* Fluid flows still live at the end are the long-lived background
         flows plus any censored flow that never reached its boundary. *)
      let not_background =
        h.Runner.fluid_flows - scenario.Scenario.background_flows
      in
      let d = h.Runner.fluid_demotions in
      if d > not_background || d < not_background - r.Runner.censored then
        fail "%d demotions of %d fluid flows (%d background, %d censored)" d
          h.Runner.fluid_flows scenario.Scenario.background_flows
          r.Runner.censored
  | Some _ | None -> ());
  List.rev !errs

(* Digest of the result's JSON export with every per-flow record. The
   profile fields are dropped: site counts exist only in profiled runs and
   GC deltas depend on process state. *)
let digest (r : Runner.result) =
  let r =
    {
      r with
      Runner.sched_profile = [];
      gc_minor_words = 0.;
      gc_promoted_words = 0.;
      gc_major_collections = 0;
    }
  in
  Digest.to_hex (Digest.string (Result_codec.to_json ~records:true r))

let job_label i ((protocol, scenario) : Parallel.job) =
  Printf.sprintf "job %d (%s, %s, load %g)" i (Runner.name protocol)
    scenario.Scenario.name scenario.Scenario.load

(* Checks a rep's results and that each is the first rep's result again. *)
let account_results ~first jobs results ~extra =
  let digests = List.map digest results in
  (match !first with None -> first := Some digests | Some _ -> ());
  let reference = Option.get !first in
  List.iteri
    (fun i (((_, scenario) as job), r) ->
      let repeat =
        if List.nth digests i <> List.nth reference i then
          [ "result differs from the first rep's" ]
        else []
      in
      account (job_label i job)
        (check_result scenario r @ repeat @ extra i))
    (List.combine jobs results)

(* ---- running ------------------------------------------------------------ *)

(* Runs to Runner's default horizon, as pase_sim does: a flow that never
   finishes keeps the fabric simulating until then, and that cost shows. *)
let run_job ?(profile = false) w ((protocol, scenario) : Parallel.job) =
  Runner.run ~profile ~stats:w.stats ?hybrid:w.hybrid protocol scenario

let work_dir = Filename.concat ".bench_build" "simbench"

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

type sweep = {
  cold : Runner.result list;
  cold_cpu : float;  (* processor time of the cold pass, workers included *)
  cold_s : float;  (* makespan of the cold pass *)
  busy_s : float;  (* summed worker walls of the cold pass *)
  warm_s : float;  (* the warm pass, served from the cache *)
  warm_errors : int -> string list;
}

(* The sweep: every job through the fork pool into a fresh cache, then the
   same grid again from that cache. *)
let sweep w jobs =
  mkdir_p work_dir;
  let dir =
    Filename.concat work_dir
      (Printf.sprintf "cache-%d-%d" (Unix.getpid ()) (fresh_id ()))
  in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir)
    (fun () ->
      let pass on_result =
        Parallel.run_jobs ~jobs:workers ~cache_dir:(Some dir) ~stats:w.stats
          ?hybrid:w.hybrid ~on_result jobs
      in
      let busy = ref 0. in
      let c0 = cpu () in
      let cold, cold_s =
        timed "Parallel.run_jobs cold" (fun () ->
            pass (fun i ~cached ~wall _ ->
                if not cached then begin
                  busy := !busy +. wall;
                  add_remote_span (Printf.sprintf "Parallel job %d" i) ~dur:wall
                end))
      in
      let cold_cpu = cpu () -. c0 in
      let missed = Array.make (List.length jobs) false in
      let warm, warm_s =
        timed "Parallel.run_jobs warm" (fun () ->
            pass (fun i ~cached ~wall:_ _ ->
                if not cached then missed.(i) <- true))
      in
      let same =
        Array.of_list
          (List.map2
             (fun c w -> Result_codec.encode c = Result_codec.encode w)
             cold warm)
      in
      let warm_errors i =
        (if missed.(i) then [ "warm pass missed the cache" ] else [])
        @ if same.(i) then [] else [ "warm result encodes differently" ]
      in
      { cold; cold_cpu; cold_s; busy_s = !busy; warm_s; warm_errors })

(* ---- end-to-end --------------------------------------------------------- *)

type sample = { cpu_s : float; events : int; flows : int }

let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l
let sumf f l = List.fold_left (fun acc x -> acc +. f x) 0. l
let flows_of (r : Runner.result) = r.Runner.completed + r.Runner.censored

(* Runs every job in process, unprofiled; returns the results and the
   minor-heap words allocated per executed event. *)
let in_process w jobs =
  let words0 = Gc.minor_words () in
  let results, _ =
    timed "Runner.run" (fun () -> List.map (fun job -> run_job w job) jobs)
  in
  let words = Gc.minor_words () -. words0 in
  (results, words /. float_of_int (sum (fun r -> r.Runner.events) results))

(* Reps of the untraced workload until [seconds] have passed (at least two,
   so every run also checks that it repeats), each followed by a pass of the
   host-speed kernel and a set-up sample. A sweep rep is its cold pass; its
   allocation is counted on one in-process pass before the reps, since a
   forked worker's allocation is not visible here. Times are scaled to the
   reference host speed by the kernel's median. *)
let end_to_end w jobs ~seconds =
  let first = ref None in
  let setups = ref [] in
  let kernels = ref [] in
  let words = ref [] in
  (if w.swept then
     match in_process w jobs with
     | results, wpe ->
         account_results ~first jobs results ~extra:(fun _ -> []);
         words := [ wpe ]
     | exception e -> account "in-process pass" [ Printexc.to_string e ]);
  let rep () =
    if w.swept then begin
      let s = sweep w jobs in
      account_results ~first jobs s.cold ~extra:s.warm_errors;
      {
        cpu_s = s.cold_cpu;
        events = sum (fun r -> r.Runner.events) s.cold;
        flows = sum flows_of s.cold;
      }
    end
    else begin
      let c0 = cpu () in
      let results, wpe = in_process w jobs in
      let cpu_s = cpu () -. c0 in
      account_results ~first jobs results ~extra:(fun _ -> []);
      words := wpe :: !words;
      {
        cpu_s;
        events = sum (fun r -> r.Runner.events) results;
        flows = sum flows_of results;
      }
    end
  in
  let samples = ref [] in
  let reps = ref 0 in
  let start = now () in
  while !reps < 2 || now () -. start < seconds do
    incr reps;
    (match rep () with
    | s ->
        Printf.eprintf "[simbench] rep %d: %.3f s cpu, %d events\n%!" !reps
          s.cpu_s s.events;
        samples := s :: !samples
    | exception e -> account "rep" [ Printexc.to_string e ]);
    kernels := kernel () :: !kernels;
    setups := setup_sample w jobs :: !setups
  done;
  let scale = kernel_ref_s /. median !kernels in
  Printf.eprintf "[simbench] host-speed kernel: median %.4f s, scale %.4f\n%!"
    (median !kernels) scale;
  let med f = median (List.map f !samples) in
  let metrics =
    [
      ("setup_s", "s", scale *. median !setups);
      ("cpu_s", "s", scale *. med (fun s -> s.cpu_s));
      ( "events_per_s",
        "1/s",
        med (fun s -> float_of_int s.events /. s.cpu_s) /. scale );
      ( "flows_per_s",
        "1/s",
        med (fun s -> float_of_int s.flows /. s.cpu_s) /. scale );
      ("minor_words_per_event", "words", median !words);
    ]
  in
  (metrics, Option.value !first ~default:[])

(* ---- per layer ---------------------------------------------------------- *)

(* Layer buckets for host time between trace events: 0 link, 1 transport,
   2 hierarchy. *)
let buckets = 3

let bucket_of (k : Trace.Kind.t) =
  Trace.Kind.(
    match k with
    | Enqueue | Dequeue | Drop | Mark | Tx | Rx | Stray | Blackhole | Link_state
      ->
        0
    | Flow_start | Flow_finish | Flow_timeout | Cwnd | Rate | Alpha -> 1
    | Queue_assign | Arb | Arb_alloc | Delegate | Ctrl -> 2)

(* The benchmark's own trace sink: counts events per kind, and charges the
   host time since the previous event to the later event's bucket. That
   interval also holds engine dispatch and any untraced work that ran
   before the event, so the bucket times are upper-bound attributions, not
   self times (see README.md). *)
type probe = { counts : int array; host : float array; mutable last : float }

let probe_sink p =
  {
    Trace.emit =
      (fun _ ev ->
        let k = Trace.kind_of ev in
        let i = Trace.Kind.index k in
        p.counts.(i) <- p.counts.(i) + 1;
        let t = now () in
        if not (Float.is_nan p.last) then begin
          let b = bucket_of k in
          p.host.(b) <- p.host.(b) +. (t -. p.last)
        end;
        p.last <- t);
    close = ignore;
  }

let traced_run w job =
  let p =
    {
      counts = Array.make Trace.Kind.count 0;
      host = Array.make buckets 0.;
      last = nan;
    }
  in
  Trace.attach (probe_sink p);
  let r, wall =
    Fun.protect ~finally:Trace.reset (fun () ->
        timed "Runner.run traced" (fun () ->
            run_job ~profile:true w job))
  in
  (r, wall, p)

(* DCTCP's standing-queue latency at a bottleneck, as Runner gives the
   fluid tier: three quarters of the marking threshold K. *)
let dctcp_standing rate_bps =
  0.75
  *. float_of_int (mark_threshold_for rate_bps)
  *. float_of_int (8 * (1460 + Packet.header_bytes))
  /. rate_bps

(* Replays the workload's flow specs into a fluid tier on the built
   network, with no packet simulation: eligible flows are admitted as
   fluid; short flows, and demoted flows' tails, hold their path as
   packet-level flows for their zero-load transfer time. Returns the tier's
   counts and the host time of the event loop, run to Runner's default
   horizon. *)
let fluid_replay ((_, scenario) as job) ~threshold =
  let engine, plan = build job in
  let horizon =
    5.
    +. List.fold_left
         (fun acc s -> Float.max acc s.Scenario.start)
         0. plan.Scenario.specs
  in
  let topo = plan.Scenario.topo in
  let rtt = Scenario.nominal_rtt scenario in
  let fluid =
    Fluid.create engine topo.Topology.net ~demote_bytes:(float_of_int threshold)
      ~standing_of:dctcp_standing ~min_interval:rtt ()
  in
  let packet_phase ~id ~src ~dst bytes =
    Fluid.register_packet fluid ~id ~src ~dst;
    Engine.schedule engine
      ~delay:(rtt +. (8. *. bytes /. topo.Topology.edge_rate_bps))
      (fun () -> Fluid.unregister_packet fluid ~id)
  in
  List.iteri
    (fun id (spec : Scenario.flow_spec) ->
      let src = spec.Scenario.src and dst = spec.Scenario.dst in
      Engine.schedule_at engine ~time:spec.Scenario.start (fun () ->
          if Scenario.fluid_eligible ~threshold_bytes:threshold spec then
            Fluid.admit fluid ~id ~src ~dst
              ~bytes:
                (if spec.Scenario.long_lived then infinity
                 else float_of_int spec.Scenario.size_bytes)
              ~on_demote:(fun ~remaining_bytes ~rate_bps:_ ->
                packet_phase ~id ~src ~dst remaining_bytes)
          else
            packet_phase ~id ~src ~dst (float_of_int spec.Scenario.size_bytes)))
    plan.Scenario.specs;
  let (), host_s =
    timed "Fluid replay" (fun () ->
        Engine.run ~until:horizon engine;
        Fluid.flush fluid)
  in
  (Fluid.stats fluid, host_s)

(* One traced rep. Counts must repeat exactly from rep to rep; times are
   reported as medians over reps. *)
type layer_rep = {
  counts : int array;  (* trace events per kind *)
  sites : (string * int) list;
  events : int;
  peak_heap : int;
  ctrl_msgs : int;
  fluid : int * int * int;  (* flows, demotions, recomputes *)
  records : int;
  censored : int;
  bytes : int;
  replay_recomputes : int;
  host : float array;  (* per bucket *)
  untraced_s : float;
  traced_s : float;
  encode_s : float;
  decode_s : float;
  summary_s : float;
  replay_s : float;
  parallel : sweep option;
}

let counts_of l =
  ( l.counts,
    l.sites,
    l.events,
    l.peak_heap,
    l.ctrl_msgs,
    l.fluid,
    l.records,
    l.censored,
    l.bytes,
    l.replay_recomputes )

let add_sites acc sites =
  List.fold_left
    (fun acc (label, n) ->
      let prev = Option.value (List.assoc_opt label acc) ~default:0 in
      (label, prev + n) :: List.remove_assoc label acc)
    acc sites
  |> List.sort compare

let layer_rep w jobs ~first_digests ~first_counts =
  (* Untraced, then traced, in process: the traced run's simulated outputs
     must equal the untraced run's. *)
  let runs =
    List.map
      (fun job ->
        let r0, untraced_s =
          timed "Runner.run" (fun () -> run_job w job)
        in
        let r1, traced_s, p = traced_run w job in
        (job, r0, untraced_s, r1, traced_s, p))
      jobs
  in
  let traced = List.map (fun (_, _, _, r1, _, _) -> r1) runs in
  let codec =
    List.map
      (fun r ->
        let blob, enc =
          timed "Result_codec.encode" (fun () -> Result_codec.encode r)
        in
        let back, dec =
          timed "Result_codec.decode" (fun () -> Result_codec.decode blob)
        in
        let ok =
          match back with
          | Ok r' -> Result_codec.encode r' = blob
          | Error _ -> false
        in
        (String.length blob, enc, dec, ok))
      traced
  in
  let summary_s =
    sumf
      (fun r ->
        snd
          (timed "Fct queries" (fun () ->
               let fct = r.Runner.fct in
               ignore (Fct.afct fct);
               List.iter
                 (fun p -> ignore (Fct.percentile fct p))
                 [ 50.; 99.; 99.9 ];
               ignore (Fct.cdf ~points:100 fct))))
      traced
  in
  let parallel = if w.swept then Some (sweep w jobs) else None in
  let replay =
    match w.hybrid with
    | Some h ->
        Some
          (fluid_replay (List.hd jobs) ~threshold:h.Runner.fluid_threshold)
    | None -> None
  in
  let hyb f =
    sum (fun r -> match r.Runner.hybrid with Some h -> f h | None -> 0) traced
  in
  let rep =
    {
      counts =
        List.fold_left
          (fun acc (_, _, _, _, _, (p : probe)) ->
            Array.map2 ( + ) acc p.counts)
          (Array.make Trace.Kind.count 0) runs;
      sites =
        List.fold_left
          (fun acc r -> add_sites acc r.Runner.sched_profile)
          [] traced;
      events = sum (fun r -> r.Runner.events) traced;
      peak_heap =
        List.fold_left (fun acc r -> max acc r.Runner.peak_heap) 0 traced;
      ctrl_msgs = sum (fun r -> r.Runner.ctrl_msgs) traced;
      fluid =
        ( hyb (fun h -> h.Runner.fluid_flows),
          hyb (fun h -> h.Runner.fluid_demotions),
          hyb (fun h -> h.Runner.fluid_recomputes) );
      records = sum (fun r -> List.length (Fct.records r.Runner.fct)) traced;
      censored = sum (fun r -> r.Runner.censored) traced;
      bytes = sum (fun (b, _, _, _) -> b) codec;
      replay_recomputes =
        (match replay with Some (st, _) -> st.Fluid.recomputes | None -> 0);
      host =
        List.fold_left
          (fun acc (_, _, _, _, _, (p : probe)) -> Array.map2 ( +. ) acc p.host)
          (Array.make buckets 0.)
          runs;
      untraced_s = sumf (fun (_, _, t, _, _, _) -> t) runs;
      traced_s = sumf (fun (_, _, _, _, t, _) -> t) runs;
      encode_s = sumf (fun (_, e, _, _) -> e) codec;
      decode_s = sumf (fun (_, _, d, _) -> d) codec;
      summary_s;
      replay_s = (match replay with Some (_, s) -> s | None -> 0.);
      parallel;
    }
  in
  (match !first_counts with
  | None -> first_counts := Some (counts_of rep)
  | Some _ -> ());
  let rep_errors =
    (if Option.get !first_counts <> counts_of rep then
       [ "per-layer counts differ from the first rep's" ]
     else [])
    @ (if List.for_all (fun (_, _, _, ok) -> ok) codec then []
       else [ "a decoded result re-encodes differently" ])
    @
    match replay with
    | Some (st, _)
      when st.Fluid.demotions <> st.Fluid.admitted - st.Fluid.live ->
        [ "fluid replay: demotions <> admitted - live" ]
    | Some _ | None -> []
  in
  (* The untraced runs are checked like end-to-end reps; each traced run
     must reproduce its untraced twin, and carries the rep-level checks. *)
  account_results ~first:first_digests jobs
    (List.map (fun (_, r0, _, _, _, _) -> r0) runs)
    ~extra:(fun _ -> []);
  List.iteri
    (fun i ((_, scenario) as job, r0, _, r1, _, _) ->
      let neutral =
        if digest r0 <> digest r1 then [ "traced result differs from untraced" ]
        else []
      in
      account
        (job_label i job ^ " traced")
        (check_result scenario r1 @ neutral @ if i = 0 then rep_errors else []))
    runs;
  (match parallel with
  | Some s ->
      account_results ~first:first_digests jobs s.cold ~extra:s.warm_errors
  | None -> ());
  rep

let site_labels =
  [
    "link-tx"; "link-prop"; "arb-round"; "arb-apply"; "fluid-recompute";
    "fluid-boundary"; "rto"; "pace"; "flow-launch";
  ]

let per_layer w jobs ~seconds =
  let build_s = ref [] in
  let first_digests = ref None and first_counts = ref None in
  let reps = ref [] and attempts = ref 0 in
  let start = now () in
  while !attempts < 2 || now () -. start < seconds do
    incr attempts;
    (match layer_rep w jobs ~first_digests ~first_counts with
    | rep -> reps := rep :: !reps
    | exception e -> account "traced rep" [ Printexc.to_string e ]);
    build_s := setup_sample w jobs :: !build_s
  done;
  let reps = List.rev !reps in
  if reps = [] then failwith "no traced rep completed";
  let med f = median (List.map f reps) in
  let first = List.hd reps in
  let count name = float_of_int first.counts.(Trace.Kind.index name) in
  let site label =
    float_of_int (Option.value (List.assoc_opt label first.sites) ~default:0)
  in
  let bucket b = med (fun r -> r.host.(b)) in
  let per num den = if den = 0. then 0. else num /. den in
  let par f = med (fun r -> match r.parallel with Some s -> f s | None -> 0.) in
  let flows, demotions, recomputes = first.fluid in
  let rounds = site "arb-round" in
  let replay_s = med (fun r -> r.replay_s) in
  let c = float_of_int in
  let metrics =
    [ ("scenario.build_s", "s", median !build_s);
      ("engine.events", "count", c first.events);
      ("engine.peak_heap", "count", c first.peak_heap) ]
    @ List.map (fun l -> ("engine.site." ^ l, "count", site l)) site_labels
    @ [
        ("link.enqueue", "count", count Trace.Kind.Enqueue);
        ("link.drop", "count", count Trace.Kind.Drop);
        ("link.mark", "count", count Trace.Kind.Mark);
        ("link.tx", "count", count Trace.Kind.Tx);
        ("link.host_s", "s", bucket 0);
        ("transport.cwnd", "count", count Trace.Kind.Cwnd);
        ("transport.rate", "count", count Trace.Kind.Rate);
        ("transport.timeouts", "count", count Trace.Kind.Flow_timeout);
        ("transport.host_s", "s", bucket 1);
        ("hierarchy.rounds", "count", rounds);
        ("hierarchy.arb", "count", count Trace.Kind.Arb);
        ("hierarchy.arb_alloc", "count", count Trace.Kind.Arb_alloc);
        ("hierarchy.ctrl_msgs", "count", c first.ctrl_msgs);
        ("hierarchy.host_s", "s", bucket 2);
        ("hierarchy.ms_per_round", "ms", per (1000. *. bucket 2) rounds);
        ("fluid.flows", "count", c flows);
        ("fluid.demotions", "count", c demotions);
        ("fluid.recomputes", "count", c recomputes);
        ("fluid.host_s", "s", replay_s);
        ( "fluid.ms_per_recompute",
          "ms",
          per (1000. *. replay_s) (c first.replay_recomputes) );
        ("fct.records", "count", c first.records);
        ("fct.censored", "count", c first.censored);
        ("fct.summary_s", "s", med (fun r -> r.summary_s));
        ("result_codec.encode_s", "s", med (fun r -> r.encode_s));
        ("result_codec.decode_s", "s", med (fun r -> r.decode_s));
        ("result_codec.bytes", "B", c first.bytes);
        ("parallel.worker_busy_s", "s", par (fun s -> s.busy_s));
        ( "parallel.efficiency",
          "ratio",
          par (fun s -> per s.busy_s (float_of_int workers *. s.cold_s)) );
        ( "parallel.overhead_s",
          "s",
          par (fun s -> s.cold_s -. (s.busy_s /. float_of_int workers)) );
        ("parallel.cache_hit_s", "s", par (fun s -> s.warm_s));
        ( "trace.overhead_pct",
          "%",
          med (fun r -> 100. *. ((r.traced_s /. r.untraced_s) -. 1.)) );
      ]
  in
  (metrics, Option.value !first_digests ~default:[])

(* ---- main --------------------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref 1 in
  let seconds = ref nan and trace = ref 0 in
  let usage =
    "simbench --workload NAME --seconds S [--seed N] [--trace 0|1]\n\
     workloads: "
    ^ String.concat ", " (List.map (fun w -> w.name) workloads)
  in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed (default 1)");
      ( "--seconds",
        Arg.Set_float seconds,
        "S measure for S seconds (required)" );
      ( "--trace",
        Arg.Set_int trace,
        "0|1 end-to-end (0) or per-layer (1) metrics" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let w =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w when not (Float.is_nan !seconds) -> w
    | Some _ | None ->
        prerr_endline usage;
        exit 2
  in
  let jobs = w.jobs ~seed:!seed in
  let metrics, digests =
    if !trace = 0 then end_to_end w jobs ~seconds:!seconds
    else per_layer w jobs ~seconds:!seconds
  in
  if !trace <> 0 then begin
    mkdir_p work_dir;
    write_spans
      (Filename.concat work_dir
         (Printf.sprintf "spans-%s-seed%d.jsonl" w.name !seed))
  end;
  Printf.printf
    {|{"correct":%b,"attempted":%d,"failed":%d,"metrics":{%s},"digests":[%s]}|}
    (!failed = 0 && !attempted > 0)
    !attempted !failed
    (String.concat ","
       (List.map
          (fun (name, unit, v) ->
            Printf.sprintf {|"%s":{"value":%.17g,"unit":"%s"}|} name v unit)
          metrics))
    (String.concat "," (List.map (Printf.sprintf {|"%s"|}) digests));
  print_newline ()
