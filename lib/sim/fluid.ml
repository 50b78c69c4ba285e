(* Max-min fair fluid tier. See the .mli for the model; here the load-bearing
   details are determinism and allocation-free passes. Flows live in a map
   ordered by id and links in an array in creation order, so every float sum
   and every callback runs in a fixed order without sorting. Per-link
   water-filling scratch lives in the {!Waterfill} workspace, reused each
   pass. *)

module Flows = Map.Make (Int)

type entry = {
  key : int * int;  (* directed (from, to) *)
  link : Link.t;
  idx : int;  (* position in [t.entries] *)
  mutable n_fluid : int;
  mutable n_pkt : int;
  mutable pushed : bool;  (* the link holds a nonzero fluid push *)
}

type fflow = {
  id : int;
  hops : int array;  (* path, as indices into [t.entries] *)
  mutable remaining : float;  (* bytes; [infinity] = long-lived *)
  mutable rate : float;  (* bps, last allocation *)
  mutable last : float;  (* sim time [remaining] was settled at *)
  mutable live : bool;  (* still in the tier (false once demoted) *)
  on_demote : remaining_bytes:float -> rate_bps:float -> unit;
}

type stats = {
  admitted : int;
  demotions : int;
  fault_demotions : int;
  recomputes : int;
  bytes_advanced : float;
  live : int;
}

type t = {
  engine : Engine.t;
  net : Net.t;
  demote_bytes : float;
  standing_of : float -> float;
      (* link rate (bps) -> standing-queue latency (s) a fluid flow's
         congestion control maintains at a bottleneck of that rate *)
  min_interval : float;
      (* floor between water-filling passes: churn (admissions, demotions,
         packet-flow registration) marks the tier dirty and the recompute
         fires no sooner than [last_alloc + min_interval]. Real congestion
         control re-converges over RTTs, so an RTT-scale floor trades no
         modelled fidelity and keeps allocation cost independent of the
         churn rate. 0 = recompute at every control event. *)
  mutable flows : fflow Flows.t;
  by_key : (int * int, entry) Hashtbl.t;  (* lookup only, never traversed *)
  mutable entries : entry array;
      (* creation order; an entry's index is its link index in the
         water-filling kernel. Slots >= [n_entries] are filler. *)
  mutable n_entries : int;
  pkt_paths : (int, entry array) Hashtbl.t;  (* lookup only *)
  ws : Waterfill.t;
  mutable cap : Float.Array.t;  (* per entry: fluid capacity slice, bps *)
  mutable paths : int array array;  (* live flows' hops, id order *)
  boundaries : fflow Eheap.t;
      (* per-flow demotion times under the current allocation; rebuilt at
         each water-filling pass (rates change every boundary), drained by
         the boundary timer. Seq keys are flow ids: the pop order is the
         unique (time, id) order, independent of insertion order. Entries
         for flows demoted out-of-band (faults) are dropped lazily on pop. *)
  mutable dirty : bool;
  mutable last_alloc : float;  (* sim time of the last water-filling pass *)
  mutable recompute_tm : Engine.timer option;
  mutable boundary_tm : Engine.timer option;
  mutable admitted : int;
  mutable demotions : int;
  mutable fault_demotions : int;
  mutable recomputes : int;
  mutable bytes_advanced : float;
}

(* Demote when remaining <= boundary + slack: the boundary timer inverts
   remaining = rate * dt / 8, so settling at its firing time can land a few
   ulps to either side of the boundary. Half a byte absorbs that without
   ever being observable at packet granularity. *)
let due t f = f.remaining <= t.demote_bytes +. 0.5

let settle_flow t f now =
  if f.rate > 0. && now > f.last then begin
    let adv = f.rate *. (now -. f.last) /. 8. in
    t.bytes_advanced <- t.bytes_advanced +. adv;
    if f.remaining < infinity then
      f.remaining <- Float.max 0. (f.remaining -. adv)
  end;
  f.last <- now

let settle_all t now = Flows.iter (fun _ f -> settle_flow t f now) t.flows

let mark_dirty t =
  if not t.dirty then begin
    t.dirty <- true;
    match t.recompute_tm with
    | Some tm ->
        let now = Engine.now t.engine in
        Engine.timer_schedule_at t.engine tm
          ~time:(Float.max now (t.last_alloc +. t.min_interval))
    | None -> ()
  end

let demote t f ~fault =
  t.flows <- Flows.remove f.id t.flows;
  f.live <- false;
  Array.iter
    (fun h ->
      let e = t.entries.(h) in
      e.n_fluid <- e.n_fluid - 1)
    f.hops;
  t.demotions <- t.demotions + 1;
  if fault then t.fault_demotions <- t.fault_demotions + 1;
  f.on_demote ~remaining_bytes:f.remaining ~rate_bps:f.rate

(* Demotes, in id order, every flow of the map as it stands at the call
   that satisfies [pred]. Demotion callbacks may re-enter the tier (the
   demoted flow registers as a packet flow); the map being persistent, they
   cannot disturb the traversal. *)
let demote_where t ~fault pred =
  Flows.iter (fun _ f -> if pred f then demote t f ~fault) t.flows

(* One water-filling pass over the live flows (the kernel is
   {!Waterfill.solve}): each loaded link offers its fluid/packet slice of
   capacity, zero while down. The per-link totals (summed in flow-id
   order) are pushed to the links; links that lost their fluid load are
   reset. *)
let allocate t =
  let n_flows = Flows.cardinal t.flows in
  if Array.length t.paths < n_flows then
    t.paths <- Array.make (max 64 (2 * n_flows)) [||];
  let i = ref 0 in
  Flows.iter
    (fun _ f ->
      t.paths.(!i) <- f.hops;
      incr i)
    t.flows;
  let n_links = t.n_entries in
  if Float.Array.length t.cap < n_links then
    t.cap <- Float.Array.make (max 64 (2 * n_links)) 0.;
  for l = 0 to n_links - 1 do
    let e = t.entries.(l) in
    if e.n_fluid > 0 then
      Float.Array.set t.cap l
        (if Link.is_up e.link then
           Link.rate_bps e.link
           *. (float_of_int e.n_fluid /. float_of_int (e.n_fluid + e.n_pkt))
         else 0.)
  done;
  Waterfill.solve t.ws ~cap:t.cap ~n_links ~paths:t.paths ~n_flows;
  let rates = Waterfill.rates t.ws in
  i := 0;
  Flows.iter
    (fun _ f ->
      f.rate <- Float.Array.get rates !i;
      incr i)
    t.flows;
  let loads = Waterfill.loads t.ws in
  for l = 0 to n_links - 1 do
    let e = t.entries.(l) in
    let bps = Float.Array.get loads l in
    if bps > 0. then begin
      Link.set_fluid_bps e.link bps;
      (* Only links that actually constrained (froze) a flow hold a
         standing queue; transit links a flow merely crosses stay clean. *)
      Link.set_standing_s e.link
        (if Waterfill.bottleneck t.ws l then
           t.standing_of (Link.rate_bps e.link)
         else 0.);
      e.pushed <- true
    end
    else if e.pushed then begin
      Link.set_fluid_bps e.link 0.;
      Link.set_standing_s e.link 0.;
      e.pushed <- false
    end
  done

let boundary_time t f =
  f.last +. ((f.remaining -. t.demote_bytes) *. 8. /. f.rate)

(* Rebuild the boundary schedule from scratch: rates just changed, so every
   previously computed demotion time is void. O(live), once per pass. *)
let rebuild_boundaries t =
  Eheap.clear t.boundaries;
  Flows.iter
    (fun _ f ->
      if f.rate > 0. && f.remaining < infinity then
        Eheap.add t.boundaries ~time:(boundary_time t f) ~seq:f.id f)
    t.flows

let arm_boundary t now =
  match t.boundary_tm with
  | None -> ()
  | Some tm -> (
      match Eheap.peek_time t.boundaries with
      | Some next ->
          Engine.timer_schedule_at t.engine tm ~time:(Float.max now next)
      | None -> Engine.timer_cancel t.engine tm)

(* The allocation handler: settle, demote whatever is due, then reallocate
   and rebuild the boundary schedule. Demotion side effects (the demoted
   flow re-registers as a packet flow) may re-mark dirty; the extra pass —
   rate-limited by [min_interval] — is idempotent. *)
let do_recompute t =
  t.dirty <- false;
  t.recomputes <- t.recomputes + 1;
  let now = Engine.now t.engine in
  settle_all t now;
  demote_where t ~fault:false (due t);
  allocate t;
  t.last_alloc <- now;
  rebuild_boundaries t;
  arm_boundary t now

(* The boundary handler: demotions must land on time (the demoted flow's
   packet tail starts here), but the water-filling pass they trigger may
   lag by [min_interval] — the freed share stays allocated to the departed
   flow until then, exactly as a real sender's competitors only claim freed
   bandwidth over the next RTTs. Draining the heap keeps the per-demotion
   cost at O(path + log live) instead of O(live x links). *)
let on_boundary t =
  let now = Engine.now t.engine in
  let demoted = ref false in
  let rec drain () =
    match Eheap.peek_time t.boundaries with
    | Some tm when tm <= now ->
        let f = Eheap.pop_min t.boundaries in
        if f.live then begin
          settle_flow t f now;
          if due t f then begin
            demote t f ~fault:false;
            demoted := true
          end
          else
            (* Settled a few ulps short of the boundary: try again at the
               recomputed crossing (strictly later — remaining is more
               than half a byte above the boundary, and the rate is
               unchanged). *)
            Eheap.add t.boundaries ~time:(boundary_time t f) ~seq:f.id f
        end;
        drain ()
    | _ -> ()
  in
  drain ();
  if !demoted then mark_dirty t;
  arm_boundary t now

let create engine net ~demote_bytes ?(standing_of = fun _ -> 0.)
    ?(min_interval = 0.) () =
  if demote_bytes < 0. then invalid_arg "Fluid.create: negative boundary";
  if min_interval < 0. then invalid_arg "Fluid.create: negative interval";
  let dummy_fflow =
    {
      id = -1;
      hops = [||];
      remaining = 0.;
      rate = 0.;
      last = 0.;
      live = false;
      on_demote = (fun ~remaining_bytes:_ ~rate_bps:_ -> ());
    }
  in
  let t =
    {
      engine;
      net;
      demote_bytes;
      standing_of;
      min_interval;
      flows = Flows.empty;
      by_key = Hashtbl.create 512;
      entries = [||];
      n_entries = 0;
      pkt_paths = Hashtbl.create 512;
      ws = Waterfill.create ();
      cap = Float.Array.create 0;
      paths = [||];
      boundaries = Eheap.create ~dummy:dummy_fflow ();
      dirty = false;
      last_alloc = neg_infinity;
      recompute_tm = None;
      boundary_tm = None;
      admitted = 0;
      demotions = 0;
      fault_demotions = 0;
      recomputes = 0;
      bytes_advanced = 0.;
    }
  in
  t.recompute_tm <-
    Some (Engine.timer ~label:"fluid-recompute" engine (fun () -> do_recompute t));
  t.boundary_tm <-
    Some (Engine.timer ~label:"fluid-boundary" engine (fun () -> on_boundary t));
  t

let entry_of t a b =
  let key = (a, b) in
  match Hashtbl.find_opt t.by_key key with
  | Some e -> e
  | None ->
      let link =
        match Net.link_from t.net a b with
        | Some l -> l
        | None -> invalid_arg "Fluid: path hop without a link"
      in
      let n = t.n_entries in
      let e = { key; link; idx = n; n_fluid = 0; n_pkt = 0; pushed = false } in
      Hashtbl.replace t.by_key key e;
      if n = Array.length t.entries then begin
        let grown = Array.make (max 64 (2 * n)) e in
        Array.blit t.entries 0 grown 0 n;
        t.entries <- grown
      end;
      t.entries.(n) <- e;
      t.n_entries <- n + 1;
      e

let entries_of_route t ~id ~src ~dst =
  let nodes = Net.route t.net ~flow:id ~src ~dst () in
  let rec hops = function
    | a :: (b :: _ as rest) -> entry_of t a b :: hops rest
    | _ -> []
  in
  Array.of_list (hops nodes)

(* Admission slack: one full-size frame above the boundary. Heavy-tailed
   empirical CDFs (web-search, hadoop) put a dense band of flows barely
   above any byte threshold; a fluid phase shorter than one packet's worth
   of bytes advances nothing measurable yet still costs an allocation pass
   and a boundary-timer churn per flow, so such flows demote instantly. *)
let admit_slack_bytes = 1500.

let admit t ~id ~src ~dst ~bytes ~on_demote =
  if not (bytes > 0.) then invalid_arg "Fluid.admit: bytes must be positive";
  t.admitted <- t.admitted + 1;
  if bytes <= t.demote_bytes +. admit_slack_bytes then begin
    (* At (or within a frame of) the boundary: goes straight to the packet
       tier, with the same observable behaviour as never having been
       classified fluid. *)
    t.demotions <- t.demotions + 1;
    on_demote ~remaining_bytes:bytes ~rate_bps:0.
  end
  else begin
    let path = entries_of_route t ~id ~src ~dst in
    Array.iter (fun e -> e.n_fluid <- e.n_fluid + 1) path;
    let f =
      {
        id;
        hops = Array.map (fun e -> e.idx) path;
        remaining = bytes;
        rate = 0.;
        last = Engine.now t.engine;
        live = true;
        on_demote;
      }
    in
    t.flows <- Flows.add id f t.flows;
    mark_dirty t
  end

let register_packet t ~id ~src ~dst =
  let path = entries_of_route t ~id ~src ~dst in
  Hashtbl.replace t.pkt_paths id path;
  let shared = ref false in
  Array.iter
    (fun e ->
      e.n_pkt <- e.n_pkt + 1;
      if e.n_fluid > 0 then shared := true)
    path;
  if !shared then mark_dirty t

let unregister_packet t ~id =
  match Hashtbl.find_opt t.pkt_paths id with
  | None -> ()
  | Some path ->
      Hashtbl.remove t.pkt_paths id;
      let shared = ref false in
      Array.iter
        (fun e ->
          e.n_pkt <- e.n_pkt - 1;
          if e.n_fluid > 0 then shared := true)
        path;
      if !shared then mark_dirty t

let on_link_change t a b ~up =
  if not up then
    demote_where t ~fault:true (fun f ->
        Array.exists
          (fun h ->
            let ea, eb = t.entries.(h).key in
            (ea = a && eb = b) || (ea = b && eb = a))
          f.hops);
  mark_dirty t

let flush t = settle_all t (Engine.now t.engine)

let stats t =
  {
    admitted = t.admitted;
    demotions = t.demotions;
    fault_demotions = t.fault_demotions;
    recomputes = t.recomputes;
    bytes_advanced = t.bytes_advanced;
    live = Flows.cardinal t.flows;
  }
