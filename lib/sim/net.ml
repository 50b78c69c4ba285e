type node_kind = Host | Switch

(* Flow-id keyed handler table: ids are dense small ints, so the identity
   hash spreads them and no polymorphic hashing or tuple key is involved. *)
module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = x land max_int
end)

type t = {
  engine : Engine.t;
  counters : Counters.t;
  mutable kinds : node_kind array;
  mutable n : int;
  adjacency : (int, (int * Link.t) list ref) Hashtbl.t;
      (* node -> outgoing (neighbour, link) *)
  directed : (int * int, Link.t) Hashtbl.t;
      (* set-up lookups only ([link_from], [links], [finalize]) *)
  mutable handlers : (Packet.t -> unit) Itbl.t array;  (* node -> flow -> f *)
  mutable next_links : Link.t array array array;
      (* next_links.(node).(dst) = equal-cost links toward dst, [||] if
         unreachable; a node's destinations with equal sets share one array *)
  mutable finalized : bool;
}

let create engine counters =
  Trace.set_clock (fun () -> Engine.now engine);
  Delay.set_clock (fun () -> Engine.now engine);
  {
    engine;
    counters;
    kinds = Array.make 16 Host;
    n = 0;
    adjacency = Hashtbl.create 64;
    directed = Hashtbl.create 64;
    handlers = Array.make 16 (Itbl.create 1);
    next_links = [||];
    finalized = false;
  }

let engine t = t.engine
let counters t = t.counters

let add_node t kind =
  if t.finalized then invalid_arg "Net: cannot add nodes after finalize";
  if t.n = Array.length t.kinds then begin
    let grow a fill =
      let b = Array.make (2 * t.n) fill in
      Array.blit a 0 b 0 t.n;
      b
    in
    t.kinds <- grow t.kinds Host;
    t.handlers <- grow t.handlers t.handlers.(0)
  end;
  t.kinds.(t.n) <- kind;
  t.handlers.(t.n) <- Itbl.create 16;
  let id = t.n in
  t.n <- t.n + 1;
  Hashtbl.replace t.adjacency id (ref []);
  id

let add_host t = add_node t Host
let add_switch t = add_node t Switch
let node_kind t i = t.kinds.(i)
let node_count t = t.n

(* Per-flow ECMP: among equal-cost next hops, a flow always picks the same
   one (SplitMix64 finalizer of the flow id as the hash). *)
let flow_hash flow =
  let z = Int64.of_int (flow + 0x9E3779B9) in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.to_int (Int64.logxor z (Int64.shift_right_logical z 31)) land max_int

(* Position of [flow]'s link among the [n] equal-cost links out of [node]. *)
let ecmp_index ~flow node n =
  if n = 1 then 0
  else
    (* Salt with the switch id: per-hop hashes must be independent or
       multi-stage fabrics use only a correlated subset of their paths. *)
    flow_hash ((flow * 0x3779) lxor (node * 0x9e41)) mod n

let next_links t node dst = t.next_links.(node).(dst)

let next_link t ~flow node dst =
  let links = t.next_links.(node).(dst) in
  let n = Array.length links in
  if n = 0 then None else Some links.(ecmp_index ~flow node n)

let stray t pkt node =
  t.counters.Counters.stray_pkts <- t.counters.Counters.stray_pkts + 1;
  if Trace.on () then Trace.emit (Trace.Stray { pkt; node })

(* Forward declaration cycle: delivery needs routing which needs links. We
   route inside [deliver] by consulting the table built at [finalize]. A
   hop allocates nothing: one array index picks the link and the handler
   lookup is keyed by the bare flow id. *)
let rec deliver t pkt node =
  if node = pkt.Packet.dst then begin
    t.counters.Counters.delivered_pkts <- t.counters.Counters.delivered_pkts + 1;
    if Trace.on () then Trace.emit (Trace.Rx { pkt; node });
    (match Itbl.find t.handlers.(node) pkt.Packet.flow with
    | f -> f pkt
    | exception Not_found -> stray t pkt node);
    (* The packet is done: handlers read it synchronously and never retain
       it (see Packet.free). Recycling is off under tracing because sinks
       may keep references past delivery. *)
    if not (Trace.on ()) then Packet.free pkt
  end
  else forward t pkt node

and forward t pkt node =
  let links = t.next_links.(node).(pkt.Packet.dst) in
  let n = Array.length links in
  if n = 0 then begin
    stray t pkt node;
    if not (Trace.on ()) then Packet.free pkt
  end
  else Link.send links.(ecmp_index ~flow:pkt.Packet.flow node n) pkt

let connect t a b ~rate_bps ~delay_s ~qdisc =
  if t.finalized then invalid_arg "Net: cannot connect after finalize";
  let mk from to_ =
    let disc = qdisc () in
    disc.Queue_disc.loc.Trace.from_node <- from;
    disc.Queue_disc.loc.Trace.to_node <- to_;
    let link =
      Link.create t.engine ~qdisc:disc ~rate_bps ~delay_s ~counters:t.counters
        ~deliver:(fun pkt -> deliver t pkt to_)
        ()
    in
    Hashtbl.replace t.directed (from, to_) link;
    let adj = Hashtbl.find t.adjacency from in
    adj := (to_, link) :: !adj
  in
  mk a b;
  mk b a

(* The node a link leads to: [connect] names both ends in its qdisc's trace
   location. *)
let to_node l = (Link.qdisc l).Queue_disc.loc.Trace.to_node

(* The array in [interned] holding exactly the [c] links [links.(idx.(0))
   .. links.(idx.(c - 1))] in order, or [[||]] if none does (a next-hop set
   is never empty). *)
let rec find_interned links idx c = function
  | [] -> [||]
  | a :: rest ->
      let j = ref 0 in
      if Array.length a = c then
        while !j < c && a.(!j) == links.(idx.(!j)) do
          incr j
        done;
      if !j = c then a else find_interned links idx c rest

let finalize t =
  if t.finalized then invalid_arg "Net.finalize: already finalized";
  t.finalized <- true;
  let n = t.n in
  (* Neighbours sorted by id for determinism, each with the link to it. *)
  let nbr_ids =
    Array.init n (fun i ->
        let adj = !(Hashtbl.find t.adjacency i) in
        Array.of_list (List.sort Int.compare (List.map fst adj)))
  in
  let nbr_links =
    Array.init n (fun i ->
        Array.map (fun u -> Hashtbl.find t.directed (i, u)) nbr_ids.(i))
  in
  let max_deg = Array.fold_left (fun m a -> max m (Array.length a)) 0 nbr_ids in
  t.next_links <- Array.init n (fun _ -> Array.make n [||]);
  let interned = Array.make n [] in
  let dist = Array.make n max_int in
  let queue = Array.make n 0 in
  let idx = Array.make max_deg 0 in
  (* BFS from each destination over the (symmetric) adjacency; record, for
     every node, ALL neighbours on shortest paths toward dst (equal-cost
     multipath), in neighbour-id order. A node's equal sets are interned:
     in a fat-tree every remote destination of an edge switch shares its
     one uplink array. *)
  for dst = 0 to n - 1 do
    Array.fill dist 0 n max_int;
    dist.(dst) <- 0;
    queue.(0) <- dst;
    let head = ref 0 and tail = ref 1 in
    while !head < !tail do
      let u = queue.(!head) in
      incr head;
      let ids = nbr_ids.(u) in
      for j = 0 to Array.length ids - 1 do
        let v = ids.(j) in
        if dist.(v) = max_int then begin
          dist.(v) <- dist.(u) + 1;
          queue.(!tail) <- v;
          incr tail
        end
      done
    done;
    for v = 0 to n - 1 do
      if v <> dst && dist.(v) < max_int then begin
        let ids = nbr_ids.(v) and links = nbr_links.(v) in
        let c = ref 0 in
        for j = 0 to Array.length ids - 1 do
          if dist.(ids.(j)) = dist.(v) - 1 then begin
            idx.(!c) <- j;
            incr c
          end
        done;
        let c = !c in
        let a = find_interned links idx c interned.(v) in
        t.next_links.(v).(dst) <-
          (if Array.length a > 0 then a
           else begin
             let a = Array.init c (fun j -> links.(idx.(j))) in
             interned.(v) <- a :: interned.(v);
             a
           end)
      end
    done
  done

let send t pkt =
  let src = pkt.Packet.src in
  if src = pkt.Packet.dst then deliver t pkt src else forward t pkt src

let register_flow t ~host ~flow f = Itbl.replace t.handlers.(host) flow f
let unregister_flow t ~host ~flow = Itbl.remove t.handlers.(host) flow

let route t ?(flow = 0) ~src ~dst () =
  let rec go node acc =
    if node = dst then List.rev (node :: acc)
    else
      match next_link t ~flow node dst with
      | None -> invalid_arg "Net.route: no path"
      | Some l -> go (to_node l) (node :: acc)
  in
  go src []

let path_count t ~src ~dst =
  (* Number of distinct shortest paths (product of fanouts is an upper
     bound; count exactly by DP over the DAG). *)
  let memo = Hashtbl.create 16 in
  let rec count node =
    if node = dst then 1
    else
      match Hashtbl.find_opt memo node with
      | Some c -> c
      | None ->
          let c =
            Array.fold_left
              (fun acc l -> acc + count (to_node l))
              0
              t.next_links.(node).(dst)
          in
          Hashtbl.replace memo node c;
          c
  in
  count src

let link_from t a b = Hashtbl.find_opt t.directed (a, b)

let links t =
  List.map (fun ((a, b), l) -> (a, b, l)) (Det_tbl.to_list t.directed)
