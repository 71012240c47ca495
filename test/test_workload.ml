(* Workload generators and the benchmark driver: smoke tests that each mix
   runs under the simulator in every concurrency-control mode, preserves
   its invariants, and produces sane measurements; and the regression
   gate's comparison over the summaries the driver's results become. *)

open Ssi_workload
module E = Ssi_engine.Engine

let small_bench mode =
  {
    Driver.default_bench with
    Driver.mode;
    workers = 4;
    duration = 0.3;
    warmup = 0.05;
    cpu_cores = 2;
  }

let check_result name r =
  Alcotest.(check bool) (name ^ ": committed transactions") true (r.Driver.committed > 0);
  Alcotest.(check bool)
    (name ^ ": failure rate sane")
    true
    (r.Driver.failure_rate >= 0. && r.Driver.failure_rate <= 1.)

let test_sibench_all_modes () =
  List.iter
    (fun mode ->
      let r =
        Driver.run ~setup:(Sibench.setup ~rows:40)
          ~specs:(Sibench.specs ~rows:40 ~chunk:10 ())
          (small_bench mode)
      in
      check_result (Driver.mode_name mode) r)
    Driver.all_modes

let test_sibench_query_correct () =
  (* The query transaction finds the true minimum. *)
  let db = E.create () in
  Sibench.setup ~rows:100 db;
  let k, v = E.with_txn db (fun t -> Sibench.query_min ~rows:100 ~chunk:17 t) in
  let expected =
    E.with_txn db (fun t ->
        List.fold_left
          (fun acc row -> min acc (Ssi_storage.Value.as_int row.(1)))
          max_int
          (E.seq_scan t ~table:Sibench.table ()))
  in
  Alcotest.(check int) "minimum value" expected v;
  Alcotest.(check bool) "key in range" true (k >= 0 && k < 100)

let test_tpcc_all_modes () =
  List.iter
    (fun mode ->
      let r =
        Driver.run
          ~setup:(Tpcc.setup ~warehouses:2)
          ~specs:(Tpcc.specs ~warehouses:2 ~ro_fraction:0.3)
          (small_bench mode)
      in
      check_result (Driver.mode_name mode) r)
    Driver.all_modes

let test_tpcc_consistency () =
  (* After a run, every order has its order lines and district counters
     cover all orders. *)
  let db = E.create () in
  Tpcc.setup ~warehouses:1 db;
  let rng = Ssi_util.Rng.make 3 in
  for _ = 1 to 30 do
    E.retry db (fun t -> Tpcc.new_order rng ~warehouses:1 t);
    E.retry db (fun t -> Tpcc.payment rng ~warehouses:1 t);
    E.retry db (fun t -> Tpcc.delivery rng ~warehouses:1 t)
  done;
  E.with_txn db (fun t ->
      let orders = E.seq_scan t ~table:"orders" () in
      Alcotest.(check bool) "orders exist" true (List.length orders > 0);
      List.iter
        (fun orow ->
          let okey = Ssi_storage.Value.as_int orow.(0) in
          let nlines = Ssi_storage.Value.as_int orow.(3) in
          let lines =
            E.index_scan t ~table:"order_line" ~index:"order_line_pkey"
              ~lo:(Ssi_storage.Value.Int (okey * 20))
              ~hi:(Ssi_storage.Value.Int ((okey * 20) + 19))
          in
          Alcotest.(check int)
            (Printf.sprintf "order %d line count" okey)
            nlines (List.length lines))
        orders)

let test_rubis_all_modes () =
  List.iter
    (fun mode ->
      let r =
        Driver.run
          ~setup:(Rubis.setup ~users:50 ~items:60)
          ~specs:(Rubis.specs ~users:50 ~items:60)
          (small_bench mode)
      in
      check_result (Driver.mode_name mode) r)
    Driver.all_modes

let test_rubis_bid_monotone () =
  (* nb_bids matches the bids table after a sequence of bid placements. *)
  let db = E.create () in
  Rubis.setup ~users:20 ~items:10 db;
  let rng = Ssi_util.Rng.make 5 in
  for _ = 1 to 50 do
    E.retry db (fun t -> Rubis.place_bid rng ~users:20 ~items:10 t)
  done;
  E.with_txn db (fun t ->
      let items = E.seq_scan t ~table:"items" () in
      let total_bids =
        List.fold_left (fun acc row -> acc + Ssi_storage.Value.as_int row.(4)) 0 items
      in
      let bids = E.seq_scan t ~table:"bids" () in
      Alcotest.(check int) "bid count consistent" (List.length bids) total_bids)

let test_deterministic () =
  (* Same seed, same result — the whole stack is deterministic. *)
  let go () =
    Driver.run ~setup:(Sibench.setup ~rows:30)
      ~specs:(Sibench.specs ~rows:30 ~chunk:10 ())
      (small_bench Driver.SSI)
  in
  let a = go () and b = go () in
  Alcotest.(check int) "same commit count" a.Driver.committed b.Driver.committed;
  Alcotest.(check int) "same failures" a.Driver.failures b.Driver.failures

(* ---- Bench_compare: the regression gate over BENCH_<workload>.json ---- *)

module BC = Ssi_harness.Bench_compare

let row ?(p99 = 0.01) mode tps =
  { BC.mode; throughput_tps = tps; committed = 100; failure_rate = 0.; p99_s = p99 }

let compare_one ~baseline current =
  BC.compare_summaries ~tolerance:0.15
    ~baseline:{ BC.workload = "w"; modes = [ baseline ] }
    ~current:{ BC.workload = "w"; modes = [ current ] }
    ()

let verdicts comps = List.map (fun c -> BC.verdict_name c.BC.verdict) comps

let test_throughput_tolerance () =
  let verdict tps = verdicts (compare_one ~baseline:(row "SSI" 100.) (row "SSI" tps)) in
  Alcotest.(check (list string)) "-15.1% regressed" [ "REGRESSED" ] (verdict 84.9);
  Alcotest.(check (list string)) "-14.9% ok" [ "ok" ] (verdict 85.1);
  Alcotest.(check (list string)) "+14.9% ok" [ "ok" ] (verdict 114.9);
  Alcotest.(check (list string)) "+15.1% improved" [ "improved" ] (verdict 115.1);
  Alcotest.(check bool) "only the drop fails the gate" true
    (BC.any_regression (compare_one ~baseline:(row "SSI" 100.) (row "SSI" 84.9))
    && not (BC.any_regression (compare_one ~baseline:(row "SSI" 100.) (row "SSI" 115.1))))

let test_placeholder_baseline () =
  let comps = compare_one ~baseline:(row "SSI" 0.) (row "SSI" 50.) in
  Alcotest.(check (list string)) "0.0 reads as no baseline" [ "no baseline" ] (verdicts comps);
  Alcotest.(check bool) "delta is n/a" true (Float.is_nan (List.hd comps).BC.delta_pct);
  Alcotest.(check bool) "not a regression" false (BC.any_regression comps)

let test_p99_gate () =
  let p99_verdict p99 =
    let comps = compare_one ~baseline:(row "SSI" 100.) (row ~p99 "SSI" 100.) in
    (BC.verdict_name (List.hd comps).BC.p99_verdict, BC.any_regression comps)
  in
  Alcotest.(check (pair string bool)) "+26% p99 regresses" ("REGRESSED", true)
    (p99_verdict 0.0126);
  Alcotest.(check (pair string bool)) "+24% p99 ok" ("ok", false) (p99_verdict 0.0124);
  Alcotest.(check (pair string bool)) "-26% p99 improved" ("improved", false)
    (p99_verdict 0.0074)

let test_missing_row_fails () =
  let comps =
    BC.compare_summaries ~tolerance:0.15
      ~baseline:{ BC.workload = "rubis"; modes = [ row "SI" 100.; row "S2PL" 50. ] }
      ~current:{ BC.workload = "rubis"; modes = [ row "SI" 100. ] }
      ()
  in
  Alcotest.(check (list string)) "every baseline row reported" [ "SI"; "S2PL" ]
    (List.map (fun c -> c.BC.c_mode) comps);
  Alcotest.(check bool) "a vanished row fails the gate" true (BC.any_regression comps)

let test_bench_json_round_trip () =
  let result =
    Driver.run ~setup:(Sibench.setup ~rows:30)
      ~specs:(Sibench.specs ~rows:30 ~chunk:10 ())
      (small_bench Driver.SSI)
  in
  let point n =
    {
      Ssi_harness.Experiments.x_label = Printf.sprintf "shards-%d" n;
      x_value = float_of_int n;
      mode = Driver.SSI;
      result;
    }
  in
  let file = Filename.temp_file "bench" ".json" in
  let oc = open_out file in
  output_string oc
    (Ssi_harness.Experiments.bench_json ~workload:"sharded" ~duration:0.3 [ point 1; point 2 ]);
  close_out oc;
  let summary = BC.load_summary file in
  Sys.remove file;
  Alcotest.(check string) "workload" "sharded" summary.BC.workload;
  Alcotest.(check (list string)) "rows keyed by x_label" [ "shards-1"; "shards-2" ]
    (List.map (fun m -> m.BC.mode) summary.BC.modes);
  List.iter
    (fun m ->
      Alcotest.(check int) "committed" result.Driver.committed m.BC.committed;
      Alcotest.(check (float 1e-6)) "throughput" 1.
        (m.BC.throughput_tps /. result.Driver.throughput))
    summary.BC.modes

let () =
  Alcotest.run "workload"
    [
      ( "sibench",
        [
          Alcotest.test_case "all modes run" `Quick test_sibench_all_modes;
          Alcotest.test_case "query finds minimum" `Quick test_sibench_query_correct;
        ] );
      ( "tpcc",
        [
          Alcotest.test_case "all modes run" `Quick test_tpcc_all_modes;
          Alcotest.test_case "order lines consistent" `Quick test_tpcc_consistency;
        ] );
      ( "rubis",
        [
          Alcotest.test_case "all modes run" `Quick test_rubis_all_modes;
          Alcotest.test_case "bid counters consistent" `Quick test_rubis_bid_monotone;
        ] );
      ("driver", [ Alcotest.test_case "deterministic" `Quick test_deterministic ]);
      ( "bench_compare",
        [
          Alcotest.test_case "throughput tolerance" `Quick test_throughput_tolerance;
          Alcotest.test_case "placeholder baseline" `Quick test_placeholder_baseline;
          Alcotest.test_case "p99 gate" `Quick test_p99_gate;
          Alcotest.test_case "missing row fails" `Quick test_missing_row_fails;
          Alcotest.test_case "bench_json round trip" `Quick test_bench_json_round_trip;
        ] );
    ]
