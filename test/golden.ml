(* Golden result matrix: one line per case — case name, engine events, AFCT
   at %.17g, and the MD5 of the case's full JSON result (per-flow records
   included). The runtest alias diffs this output against the committed
   golden.expected, so any change to a simulated result fails tier-1.

   The matrix is every protocol on each of the three reference topologies,
   plus every protocol on left-right under the hybrid engine, a fault
   schedule (link flaps, a ToR crash with restart, control-message loss),
   coflow jobs with deadlines, streaming statistics, hybrid and faults
   together, and the fabric sampler (whose samples are folded into the
   digest). PASE-task rides the coflow variant for its task-id criterion.

   An intended result change is regenerated with
     dune build @runtest --auto-promote    (or: dune promote)
   and every regeneration is noted in CHANGES.md (DESIGN.md §7). *)

let protocols = Runner.[ Dctcp; D2tcp; L2dct; Pfabric; Pdq; D3; pase ]

let topologies =
  [
    ("testbed", fun () -> Scenario.testbed ~num_flows:30 ~seed:3 ~load:0.5 ());
    ( "left-right",
      fun () -> Scenario.left_right ~num_flows:60 ~seed:3 ~load:0.6 () );
    ( "fat-tree-k4",
      fun () -> Scenario.fat_tree_uniform ~k:4 ~num_flows:60 ~seed:3 ~load:0.5 ()
    );
  ]

let left_right () = Scenario.left_right ~num_flows:60 ~seed:5 ~load:0.6 ()

let faults =
  match
    Fault.parse
      "flap:a=agg0,b=core0,at=0.002,down=0.001,up=0.002,count=2;crash:node=tor0,at=0.003,restart=0.006;ctrl:at=0.001,until=0.004,p=0.3"
  with
  | Ok evs -> evs
  | Error e -> failwith e

let hybrid = { Runner.enabled = true; fluid_threshold = 16384 }

let coflows () =
  Scenario.with_coflows (left_right ()) ~deadline_s:(Dist.uniform 0.004 0.02)
    ~width:(Dist.uniform 2. 5.) ()

let digest s = Digest.to_hex (Digest.string s)

let line name (r : Runner.result) ~extra =
  Printf.printf "%s events=%d afct=%.17g md5=%s\n" name r.Runner.events
    r.Runner.afct
    (digest (Result_codec.to_json ~records:true r ^ extra))

let case name run = line name (run ()) ~extra:""

let () =
  List.iter
    (fun (topo, scenario) ->
      List.iter
        (fun p ->
          case
            (Printf.sprintf "plain/%s/%s" topo (Runner.name p))
            (fun () -> Runner.run p (scenario ())))
        protocols)
    topologies;
  let variant label run =
    List.iter
      (fun p ->
        case (Printf.sprintf "%s/left-right/%s" label (Runner.name p)) (fun () ->
            run p))
      protocols
  in
  variant "hybrid" (fun p -> Runner.run ~hybrid p (left_right ()));
  variant "faults" (fun p ->
      Runner.run p (Scenario.with_faults (left_right ()) faults));
  variant "coflows" (fun p -> Runner.run p (coflows ()));
  variant "streaming" (fun p -> Runner.run ~stats:`Streaming p (left_right ()));
  variant "hybrid+faults" (fun p ->
      Runner.run ~hybrid p (Scenario.with_faults (left_right ()) faults));
  List.iter
    (fun p ->
      let store = Series.store ~capacity:1_000_000 () in
      let r = Runner.run ~series:(store, 2e-4) p (left_right ()) in
      line
        (Printf.sprintf "series/left-right/%s" (Runner.name p))
        r
        ~extra:
          (String.concat "\n" (List.map Series.sample_json (Series.samples store))))
    protocols;
  case "coflows/left-right/PASE-task" (fun () ->
      Runner.run
        (Runner.Pase { Config.default with Config.scheduling = Config.Task_aware })
        (coflows ()))
