(* Forwarding against the reference router (route_ref.ml): on every
   topology the scenarios build, the link Net picks for a (node, dst, flow)
   is the reference's, routes and path counts are unchanged, and equal
   next-hop sets share one array. *)

let build name =
  let e = Engine.create () in
  let c = Counters.create () in
  let qdisc ~rate_bps:_ = Queue_disc.droptail c ~limit_pkts:100 in
  match name with
  | "testbed" ->
      Topology.single_rack e c ~hosts:10 ~rate_bps:1e9 ~link_delay_s:62.5e-6
        ~qdisc
  | "left-right" ->
      Topology.three_tier e c ~hosts_per_tor:40 ~tors:4 ~aggs:2
        ~edge_rate_bps:1e9 ~fabric_rate_bps:10e9 ~link_delay_s:25e-6 ~qdisc
  | "fat-tree-k4" ->
      Topology.fat_tree e c ~k:4 ~rate_bps:1e9 ~link_delay_s:25e-6 ~qdisc
  | "fat-tree-k6" ->
      Topology.fat_tree e c ~k:6 ~rate_bps:1e9 ~link_delay_s:25e-6 ~qdisc
  | _ -> invalid_arg name

let topologies = [ "testbed"; "left-right"; "fat-tree-k4"; "fat-tree-k6" ]

(* Every (node, dst) pair, for each flow id in [flows]. *)
let check_links name flows =
  let net = (build name).Topology.net in
  let oracle = Route_ref.create net in
  let n = Net.node_count net in
  List.iter
    (fun flow ->
      for node = 0 to n - 1 do
        for dst = 0 to n - 1 do
          let same =
            match
              (Net.next_link net ~flow node dst, Route_ref.next_link oracle ~flow node dst)
            with
            | None, None -> true
            | Some a, Some b -> a == b
            | _ -> false
          in
          if not same then
            Alcotest.failf "%s: flow %d at node %d toward %d leaves on another link"
              name flow node dst
        done
      done)
    flows

let test_links_every_pair () =
  List.iter (fun name -> check_links name [ 0; 1; 7; 1_000_003 ]) topologies

let qcheck_links =
  QCheck.Test.make ~name:"forward picks the reference link (sampled flows)"
    ~count:40
    QCheck.(pair (int_bound 3) (int_bound 1_000_000))
    (fun (i, flow) ->
      check_links (List.nth topologies i) [ flow ];
      true)

let test_routes_and_counts () =
  List.iter
    (fun name ->
      let topo = build name in
      let net = topo.Topology.net in
      let oracle = Route_ref.create net in
      let hosts = topo.Topology.hosts in
      Array.iter
        (fun src ->
          Array.iter
            (fun dst ->
              Alcotest.(check int)
                (Printf.sprintf "%s: path count %d -> %d" name src dst)
                (Route_ref.path_count oracle ~src ~dst)
                (Net.path_count net ~src ~dst);
              List.iter
                (fun flow ->
                  Alcotest.(check (list int))
                    (Printf.sprintf "%s: route of flow %d" name flow)
                    (Route_ref.route oracle ~flow ~src ~dst)
                    (Net.route net ~flow ~src ~dst ()))
                [ 0; 5; 99 ])
            hosts)
        hosts)
    topologies

(* In a fat-tree the next-hop sets toward hosts are a node's single links
   plus, on edge and aggregation switches, the set of all its uplinks:
   interning keeps at most degree + 1 arrays per node for host traffic, not
   one per destination. Switch destinations (routes only control messages
   never take) add at most two more sets: an aggregation switch reaches a
   sibling aggregation switch through all its downlinks, and another core
   group through every link it has. *)
let test_interned_arrays () =
  let topo = build "fat-tree-k6" in
  let net = topo.Topology.net in
  let n = Net.node_count net in
  let degree = Array.make n 0 in
  List.iter (fun (a, _, _) -> degree.(a) <- degree.(a) + 1) (Net.links net);
  let distinct node dsts =
    Array.fold_left
      (fun acc dst ->
        let a = Net.next_links net node dst in
        if Array.length a = 0 || List.exists (fun b -> b == a) acc then acc
        else a :: acc)
      [] dsts
    |> List.length
  in
  for node = 0 to n - 1 do
    let to_hosts = distinct node topo.Topology.hosts in
    let to_all = distinct node (Array.init n Fun.id) in
    if to_hosts > degree.(node) + 1 || to_all > degree.(node) + 3 then
      Alcotest.failf "node %d (degree %d): %d arrays toward hosts, %d in all"
        node degree.(node) to_hosts to_all
  done

let suite =
  [
    Alcotest.test_case "forward picks the reference link" `Quick
      test_links_every_pair;
    QCheck_alcotest.to_alcotest qcheck_links;
    Alcotest.test_case "routes and path counts unchanged" `Quick
      test_routes_and_counts;
    Alcotest.test_case "next-hop arrays interned" `Quick test_interned_arrays;
  ]
