(* The fluid tier: the water-filling kernel against the reference rescan
   (bitwise), and hand-checkable allocations through the public [Fluid]
   API on small networks. *)

(* ---- kernel vs reference ------------------------------------------------ *)

type instance = { cap : float array; paths : int array array }

let print_instance { cap; paths } =
  let arr f a =
    "[" ^ String.concat "; " (Array.to_list (Array.map f a)) ^ "]"
  in
  Printf.sprintf "cap=%s paths=%s" (arr (Printf.sprintf "%h") cap)
    (arr (arr string_of_int) paths)

(* Link rates from a small set, so equal shares (exact ties) are common,
   or arbitrary, so subtraction rounds; zero is a link that is down. Each
   link's fluid slice is [rate * n_fluid / (n_fluid + n_pkt)], as the
   fluid tier computes it. Paths are simple (no repeated link), possibly
   empty; in "shared" instances every flow crosses link 0. *)
let gen_instance =
  let open QCheck.Gen in
  let* n_links = int_range 1 10 in
  let* n_flows = int_range 0 40 in
  let* shared = bool in
  let path =
    let* len = int_range 0 4 in
    let+ ls = list_repeat len (int_bound (n_links - 1)) in
    Array.of_list
      (List.sort_uniq Int.compare (if shared then 0 :: ls else ls))
  in
  let* paths = array_repeat n_flows path in
  let rate =
    frequency
      [
        (1, return 0.);
        (6, oneofl [ 1e9; 1e10; 1e10; 4e10; 2.5e9 ]);
        (2, float_range 1e6 1e11);
      ]
  in
  let* rates = array_repeat n_links rate in
  let+ n_pkt = array_repeat n_links (int_range 0 3) in
  let n_fluid = Array.make n_links 0 in
  Array.iter (Array.iter (fun l -> n_fluid.(l) <- n_fluid.(l) + 1)) paths;
  let cap =
    Array.mapi
      (fun l r ->
        let nf = n_fluid.(l) in
        if nf = 0 then r
        else r *. (float_of_int nf /. float_of_int (nf + n_pkt.(l))))
      rates
  in
  { cap; paths }

let bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

(* [Waterfill.solve] on [ws] (default: a fresh workspace), read back in the
   reference's shape. *)
let kernel ?(ws = Waterfill.create ()) { cap; paths } : Waterfill_ref.result =
  let n_links = Array.length cap and n_flows = Array.length paths in
  Waterfill.solve ws
    ~cap:(Float.Array.init n_links (Array.get cap))
    ~n_links ~paths ~n_flows;
  {
    rates = Array.init n_flows (Float.Array.get (Waterfill.rates ws));
    loads = Array.init n_links (Float.Array.get (Waterfill.loads ws));
    bottlenecks = Array.init n_links (Waterfill.bottleneck ws);
  }

let same (a : Waterfill_ref.result) (b : Waterfill_ref.result) =
  bits_equal a.rates b.rates && bits_equal a.loads b.loads
  && a.bottlenecks = b.bottlenecks

let prop_kernel_matches_reference =
  QCheck.Test.make ~count:1000
    ~name:"heap water-filling is bitwise the reference rescan"
    (QCheck.make ~print:print_instance gen_instance)
    (fun inst ->
      same (kernel inst)
        (Waterfill_ref.max_min ~cap:inst.cap ~paths:inst.paths))

(* One workspace reused across instances of varying size must give what a
   fresh one gives: buffers carry nothing from one pass to the next. *)
let prop_workspace_reuse =
  QCheck.Test.make ~count:100 ~name:"reused workspace matches a fresh one"
    (QCheck.make
       ~print:(fun l -> String.concat "\n" (List.map print_instance l))
       QCheck.Gen.(list_size (int_range 1 5) gen_instance))
    (fun instances ->
      let ws = Waterfill.create () in
      List.for_all (fun inst -> same (kernel ~ws inst) (kernel inst)) instances)

(* ---- Fluid on small networks ------------------------------------------- *)

let c_bps = 1e9
let demote_bytes = 10_000.
let flow_bytes = 1_000_000.

(* [links] are (a, b, rate) over nodes [0 .. n_nodes - 1]; every node is a
   host, and routing runs over all of them. *)
let make_net ~n_nodes links =
  let engine = Engine.create () in
  let ctr = Counters.create () in
  let net = Net.create engine ctr in
  for _ = 1 to n_nodes do
    ignore (Net.add_host net)
  done;
  List.iter
    (fun (a, b, rate_bps) ->
      Net.connect net a b ~rate_bps ~delay_s:1e-6 ~qdisc:(fun () ->
          Queue_disc.droptail ctr ~limit_pkts:100))
    links;
  Net.finalize net;
  (engine, net)

type demotion = { id : int; at : float; remaining : float; rate : float }

(* Admits [flows] (id, src, dst) of [flow_bytes] each, recording every
   demotion in [log]. *)
let admit_all engine fluid log flows =
  List.iter
    (fun (id, src, dst) ->
      Fluid.admit fluid ~id ~src ~dst ~bytes:flow_bytes
        ~on_demote:(fun ~remaining_bytes ~rate_bps ->
          log :=
            {
              id;
              at = Engine.now engine;
              remaining = remaining_bytes;
              rate = rate_bps;
            }
            :: !log))
    flows

let demoted log = List.sort (fun a b -> Int.compare a.id b.id) !log

(* Parking lot: nodes 0 - 1 - 2 in a line at C, with a fat spur node per
   end (3 on 0, 4 on 2) so the long flow 3 -> 4 crosses both C links,
   each shared with one short flow (3 -> 1 and 1 -> 4). Every link is a
   two-way tie at C/2, so all three flows freeze at C/2 in one level. *)
let parking_lot () =
  make_net ~n_nodes:5
    [ (0, 1, c_bps); (1, 2, c_bps); (3, 0, 10. *. c_bps); (2, 4, 10. *. c_bps) ]

let parking_flows = [ (0, 3, 4); (1, 3, 1); (2, 1, 4) ]

let test_parking_lot () =
  let engine, net = parking_lot () in
  let fluid = Fluid.create engine net ~demote_bytes () in
  let log = ref [] in
  admit_all engine fluid log parking_flows;
  Engine.run engine;
  let half = c_bps /. 2. in
  Alcotest.(check (list int)) "all demoted" [ 0; 1; 2 ]
    (List.map (fun d -> d.id) (demoted log));
  List.iter
    (fun d ->
      Alcotest.(check (float 0.)) (Printf.sprintf "flow %d rate C/2" d.id) half
        d.rate)
    (demoted log)

(* One link shared with packet flows: the fluid tier gets
   n_fluid / (n_fluid + n_pkt) of it, split equally. *)
let test_capacity_slice () =
  let engine, net = make_net ~n_nodes:2 [ (0, 1, c_bps) ] in
  let fluid = Fluid.create engine net ~demote_bytes () in
  Fluid.register_packet fluid ~id:100 ~src:0 ~dst:1;
  let log = ref [] in
  admit_all engine fluid log [ (1, 0, 1); (2, 0, 1) ];
  let share = c_bps *. (2. /. 3.) /. 2. in
  let link =
    match Net.link_from net 0 1 with Some l -> l | None -> assert false
  in
  Engine.run ~until:1e-3 engine;
  Alcotest.(check (float 1e-3)) "link carries the fluid slice"
    (c_bps *. (2. /. 3.)) (Link.fluid_bps link);
  Engine.run engine;
  List.iter
    (fun d ->
      Alcotest.(check (float 0.))
        (Printf.sprintf "flow %d rate C·(2/3)/2" d.id) share d.rate)
    (demoted log);
  Alcotest.(check (float 0.)) "slice released after demotion" 0.
    (Link.fluid_bps link)

(* A link going down demotes exactly the flows crossing it, in either
   direction, as fault demotions; the others stay fluid. *)
let test_link_down_demotes () =
  let engine, net = parking_lot () in
  let fluid = Fluid.create engine net ~demote_bytes () in
  let log = ref [] in
  admit_all engine fluid log parking_flows;
  Engine.run ~until:1e-3 engine;
  (* reported against the reverse direction: either one hits *)
  Fluid.on_link_change fluid 1 0 ~up:false;
  Alcotest.(check (list int)) "long and first short flow demoted" [ 0; 1 ]
    (List.map (fun d -> d.id) (demoted log));
  List.iter
    (fun d ->
      Alcotest.(check (float 0.)) "last allocated rate" (c_bps /. 2.) d.rate)
    (demoted log);
  let st = Fluid.stats fluid in
  Alcotest.(check int) "fault demotions" 2 st.Fluid.fault_demotions;
  Alcotest.(check int) "demotions" 2 st.Fluid.demotions;
  Alcotest.(check int) "still fluid" 1 st.Fluid.live

(* A lone flow runs at its path's capacity and demotes exactly when its
   remaining bytes reach the boundary: admitted at [t0], at
   [t0 + (remaining - demote_bytes) * 8 / rate]. *)
let test_boundary_time () =
  let engine, net = parking_lot () in
  let fluid = Fluid.create engine net ~demote_bytes () in
  let t0 = 2e-3 in
  let log = ref [] in
  Engine.schedule_at engine ~time:t0 (fun () ->
      admit_all engine fluid log [ (7, 3, 4) ]);
  Engine.run engine;
  match !log with
  | [ d ] ->
      Alcotest.(check (float 0.)) "rate = bottleneck capacity" c_bps d.rate;
      Alcotest.(check (float 0.)) "lands on the boundary time"
        (t0 +. ((flow_bytes -. demote_bytes) *. 8. /. c_bps))
        d.at;
      Alcotest.(check bool) "remaining at the boundary" true
        (Float.abs (d.remaining -. demote_bytes) <= 0.5);
      Alcotest.(check int) "no fault" 0
        (Fluid.stats fluid).Fluid.fault_demotions
  | l -> Alcotest.failf "expected one demotion, got %d" (List.length l)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_kernel_matches_reference;
    QCheck_alcotest.to_alcotest prop_workspace_reuse;
    Alcotest.test_case "parking lot: every flow gets C/2" `Quick
      test_parking_lot;
    Alcotest.test_case "fluid/packet capacity slice" `Quick test_capacity_slice;
    Alcotest.test_case "link down demotes crossing flows" `Quick
      test_link_down_demotes;
    Alcotest.test_case "boundary demotion time" `Quick test_boundary_time;
  ]
