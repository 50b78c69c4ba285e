(* Determinism suite: serial re-runs are bit-identical, the parallel runner
   reproduces serial results exactly, chunked [Engine.run ~until] matches a
   one-shot run event-for-event, the result codec round-trips, and the
   on-disk cache serves byte-identical results. *)

let encode = Result_codec.encode

(* A small protocol x load grid (8 configurations). *)
let small_grid () =
  let scenario ~load =
    Scenario.worker_aggregator ~hosts:6 ~num_flows:24 ~seed:7 ~load ()
  in
  List.concat_map
    (fun load ->
      List.map
        (fun p -> (p, scenario ~load))
        [ Runner.Dctcp; Runner.Pfabric; Runner.pase; Runner.L2dct ])
    [ 0.4; 0.7 ]

(* (a) Same seed => bit-identical results across two serial runs. *)
let test_serial_rerun_identical () =
  let sc () = Scenario.worker_aggregator ~hosts:6 ~num_flows:30 ~seed:3 ~load:0.6 () in
  let r1 = Runner.run Runner.pase (sc ()) in
  let r2 = Runner.run Runner.pase (sc ()) in
  Alcotest.(check bool) "encoded results identical" true (encode r1 = encode r2)

(* (b) Parallel fan-out reproduces the serial sweep exactly. *)
let test_parallel_matches_serial () =
  let grid = small_grid () in
  let serial = Parallel.run_jobs ~jobs:1 ~cache_dir:None grid in
  let parallel = Parallel.run_jobs ~jobs:4 ~cache_dir:None grid in
  Alcotest.(check int) "same number of results" (List.length serial)
    (List.length parallel);
  List.iteri
    (fun i (a, b) ->
      Alcotest.(check bool)
        (Printf.sprintf "result %d identical" i)
        true
        (encode a = encode b))
    (List.combine serial parallel)

(* (c) Chunked [run ~until] equals one-shot execution event-for-event. *)
let test_chunked_until_matches_one_shot () =
  let program e trace =
    (* Ties, nested scheduling across chunk boundaries, and an event exactly
       on a boundary. *)
    for i = 0 to 9 do
      Engine.schedule_at e ~time:(0.25 *. float_of_int i) (fun () ->
          trace := (Engine.now e, i) :: !trace;
          if i = 2 then
            Engine.schedule e ~delay:0.6 (fun () ->
                trace := (Engine.now e, 100 + i) :: !trace))
    done;
    for i = 0 to 3 do
      Engine.schedule_at e ~time:1.7 (fun () ->
          trace := (Engine.now e, 200 + i) :: !trace)
    done
  in
  let one_shot = ref [] in
  let e1 = Engine.create () in
  program e1 one_shot;
  Engine.run ~until:2.5 e1;
  let chunked = ref [] in
  let e2 = Engine.create () in
  program e2 chunked;
  List.iter (fun h -> Engine.run ~until:h e2) [ 0.5; 1.0; 1.5; 1.7; 2.0; 2.5 ];
  Alcotest.(check (list (pair (float 1e-12) int)))
    "same events in the same order" (List.rev !one_shot) (List.rev !chunked);
  Alcotest.(check (float 1e-12)) "same final clock" (Engine.now e1) (Engine.now e2);
  Alcotest.(check int) "same processed count" (Engine.events_processed e1)
    (Engine.events_processed e2)

(* Censored flows keep their task and ideal fields (runner regression). *)
let test_censored_records_complete () =
  let sc = Scenario.worker_aggregator ~hosts:6 ~num_flows:30 ~seed:5 ~load:0.9 () in
  (* A tiny horizon censors most of the workload. *)
  let r = Runner.run ~horizon:0.002 Runner.Dctcp sc in
  Alcotest.(check bool) "some flows censored" true (r.Runner.censored > 0);
  Alcotest.(check (float 1e-12)) "duration reports the horizon" 0.002
    r.Runner.duration;
  List.iter
    (fun (rec_ : Fct.record) ->
      if rec_.Fct.censored then begin
        Alcotest.(check bool) "censored record has ideal" true
          (Option.is_some rec_.Fct.ideal);
        Alcotest.(check bool) "censored record has task" true
          (Option.is_some rec_.Fct.task)
      end)
    (Fct.records r.Runner.fct)

(* Codec: round-trip and versioned rejection. *)
let test_codec_roundtrip () =
  let sc = Scenario.testbed ~num_flows:20 ~seed:2 ~load:0.5 () in
  let r = Runner.run Runner.Dctcp sc in
  (match Result_codec.decode (encode r) with
  | Ok r' -> Alcotest.(check bool) "round-trips" true (encode r = encode r')
  | Error e -> Alcotest.fail ("decode failed: " ^ e));
  (match Result_codec.decode "garbage" with
  | Ok _ -> Alcotest.fail "garbage accepted"
  | Error _ -> ());
  let blob = encode r in
  let forged = "PASE-RES9999" ^ String.sub blob 12 (String.length blob - 12) in
  (match Result_codec.decode forged with
  | Ok _ -> Alcotest.fail "future version accepted"
  | Error e ->
      Alcotest.(check bool) "reports version mismatch" true
        (String.length e > 0));
  let json = Result_codec.to_json r in
  Alcotest.(check bool) "json names the scenario" true
    (String.length json > 2 && json.[0] = '{')

(* The on-disk cache: a second invocation is served entirely from disk and
   is bit-identical to the first. *)
let test_cache_hits_everything () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "pase-test-cache-%d" (Unix.getpid ()))
  in
  let cleanup () =
    if Sys.file_exists dir then begin
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with _ -> ()
    end
  in
  cleanup ();
  Fun.protect ~finally:cleanup (fun () ->
      let grid = small_grid () in
      let first = Parallel.run_jobs ~jobs:2 ~cache_dir:(Some dir) grid in
      let hits = ref 0 in
      let second =
        Parallel.run_jobs ~jobs:2 ~cache_dir:(Some dir)
          ~on_result:(fun _ ~cached ~wall:_ _ -> if cached then incr hits)
          grid
      in
      Alcotest.(check int) "every configuration cached" (List.length grid) !hits;
      List.iteri
        (fun i (a, b) ->
          Alcotest.(check bool)
            (Printf.sprintf "cached result %d identical" i)
            true
            (encode a = encode b))
        (List.combine first second))

(* Duplicate configurations are simulated once and shared. *)
let test_duplicates_shared () =
  let sc = Scenario.testbed ~num_flows:15 ~seed:9 ~load:0.4 () in
  let job = (Runner.Dctcp, sc) in
  let runs = ref 0 in
  let results =
    Parallel.run_jobs ~jobs:1 ~cache_dir:None
      ~on_result:(fun _ ~cached ~wall:_ _ -> if not cached then incr runs)
      [ job; job; job ]
  in
  Alcotest.(check int) "three results" 3 (List.length results);
  Alcotest.(check int) "one simulation" 1 !runs;
  match results with
  | [ a; b; c ] ->
      Alcotest.(check bool) "identical" true
        (encode a = encode b && encode b = encode c)
  | _ -> assert false

(* The cache key identifies a distribution by its parameters, not by its
   display name and mean: each pair below shares both and must not share a
   key, at every site a distribution enters the scenario. *)
let test_job_key_separates_distributions () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "pase-test-cdf-%d" (Unix.getpid ()))
  in
  let cdf sub rows =
    let d = Filename.concat dir sub in
    if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
    if not (Sys.file_exists d) then Unix.mkdir d 0o755;
    let path = Filename.concat d "t.cdf" in
    Out_channel.with_open_text path (fun oc -> output_string oc rows);
    let r = Dist.of_cdf_file path in
    Sys.remove path;
    Unix.rmdir d;
    match r with Ok dist -> dist | Error e -> Alcotest.fail e
  in
  let a = cdf "a" "1000 0.5\n3000 1\n" in
  let b = cdf "b" "1500 1\n" in
  (try Unix.rmdir dir with Unix.Unix_error _ -> ());
  let base = Scenario.left_right ~num_flows:20 ~seed:1 ~load:0.5 () in
  let key sc = Parallel.job_key Runner.Dctcp sc in
  List.iter
    (fun (label, (d1 : Dist.t), (d2 : Dist.t)) ->
      Alcotest.(check string) (label ^ ": same name") d1.Dist.name d2.Dist.name;
      Alcotest.(check (float 0.)) (label ^ ": same mean") d1.Dist.mean
        d2.Dist.mean;
      let differ what f =
        Alcotest.(check bool)
          (Printf.sprintf "%s: %s keys differ" label what)
          true
          (key (f d1) <> key (f d2))
      in
      differ "size" (Scenario.with_sizes base);
      differ "deadline" (fun d -> { base with Scenario.deadline_s = Some d });
      differ "coflow width" (fun d -> Scenario.with_coflows base ~width:d ());
      differ "coflow deadline" (fun d ->
          Scenario.with_coflows base ~deadline_s:d ~width:(Dist.constant 2.) ());
      differ "incast fan-in" (fun d ->
          Scenario.worker_aggregator ~hosts:10 ~fanin:d ~num_flows:20 ~load:0.5
            ()))
    [
      ("cdf tables", a, b);
      ("choice", Dist.choice [ 1000.; 3000. ], Dist.choice [ 2000.; 2000. ]);
      ( "uniform",
        Dist.uniform 1e6 (2e6 +. 1.),
        Dist.uniform (1e6 +. 1.) 2e6 );
    ]

let suite =
  [
    Alcotest.test_case "job key separates distributions" `Quick
      test_job_key_separates_distributions;
    Alcotest.test_case "serial rerun identical" `Quick test_serial_rerun_identical;
    Alcotest.test_case "parallel matches serial" `Slow test_parallel_matches_serial;
    Alcotest.test_case "chunked until matches one-shot" `Quick
      test_chunked_until_matches_one_shot;
    Alcotest.test_case "censored records complete" `Quick
      test_censored_records_complete;
    Alcotest.test_case "codec roundtrip" `Quick test_codec_roundtrip;
    Alcotest.test_case "cache hits everything" `Slow test_cache_hits_everything;
    Alcotest.test_case "duplicates shared" `Quick test_duplicates_shared;
  ]
