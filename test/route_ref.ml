(* Reference forwarding: the routing Net ran before next-hop links were
   interned into per-node arrays. A BFS from every destination over the
   id-sorted neighbour lists gives each node its equal-cost next-hop node
   ids; the per-flow ECMP hash picks one, and the directed link is then
   looked up by its (node, next hop) pair. Kept only as the oracle
   {!Net.next_link}, {!Net.route} and {!Net.path_count} must match. *)

type t = { net : Net.t; next_hops : int array array array }

let create net =
  let n = Net.node_count net in
  let adj = Array.make n [] in
  List.iter (fun (a, b, _) -> adj.(a) <- b :: adj.(a)) (Net.links net);
  let neighbours = Array.map (List.sort Int.compare) adj in
  let next_hops = Array.init n (fun _ -> Array.make n [||]) in
  for dst = 0 to n - 1 do
    let dist = Array.make n max_int in
    dist.(dst) <- 0;
    let q = Queue.create () in
    Queue.push dst q;
    while not (Queue.is_empty q) do
      let u = Queue.pop q in
      List.iter
        (fun v ->
          if dist.(v) = max_int then begin
            dist.(v) <- dist.(u) + 1;
            Queue.push v q
          end)
        neighbours.(u)
    done;
    for v = 0 to n - 1 do
      if v <> dst && dist.(v) < max_int then
        next_hops.(v).(dst) <-
          Array.of_list
            (List.filter (fun u -> dist.(u) = dist.(v) - 1) neighbours.(v))
    done
  done;
  { net; next_hops }

(* SplitMix64 finalizer of the flow id, salted per hop. *)
let flow_hash flow =
  let z = Int64.of_int (flow + 0x9E3779B9) in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.to_int (Int64.logxor z (Int64.shift_right_logical z 31)) land max_int

let next_hop t ~flow node dst =
  let hops = t.next_hops.(node).(dst) in
  let n = Array.length hops in
  if n = 0 then None
  else if n = 1 then Some hops.(0)
  else Some hops.(flow_hash ((flow * 0x3779) lxor (node * 0x9e41)) mod n)

let next_link t ~flow node dst =
  Option.map
    (fun nh -> Option.get (Net.link_from t.net node nh))
    (next_hop t ~flow node dst)

let route t ~flow ~src ~dst =
  let rec go node acc =
    if node = dst then List.rev (node :: acc)
    else
      match next_hop t ~flow node dst with
      | None -> invalid_arg "Route_ref.route: no path"
      | Some nh -> go nh (node :: acc)
  in
  go src []

let rec path_count t ~src ~dst =
  if src = dst then 1
  else
    Array.fold_left
      (fun acc nh -> acc + path_count t ~src:nh ~dst)
      0 t.next_hops.(src).(dst)
