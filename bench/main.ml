(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§8).

     dune exec bench/main.exe            -- every figure, json and micro
     dune exec bench/main.exe -- fig4    -- one entry of Experiments.all:
                                            fig4 fig5a fig5b fig6 defer abl walgroup
     dune exec bench/main.exe -- json    -- BENCH_<workload>.json summaries
     dune exec bench/main.exe -- micro   -- §8.1 CPU-overhead microbenchmarks
     dune exec bench/main.exe -- regress -- json, then compare against
                                            bench/baselines/ (CI gate)
     dune exec bench/main.exe -- fig4 quick  -- reduced sizes (any target)

   Absolute numbers are simulated (see DESIGN.md §5); the claims under test
   are the figures' shapes: who wins, by how much, and where the curves
   cross. *)

open Ssi_workload
open Ssi_harness
module E = Ssi_engine.Engine
module Certifier = Ssi_core.Certifier

let banner name = Printf.printf "\n===== %s =====\n%!" name

(* ---- Machine-readable output --------------------------------------------------- *)

(* One BENCH_<workload>.json per workload: throughput, latency percentiles
   and SSI metric deltas per isolation mode, for CI artifacts and plotting
   scripts.  The same measurements are also printed as a latency table. *)

(* The json workloads double as the regression-gate corpus: the baselines
   committed under bench/baselines/ were generated by [json quick], which
   [regress quick] reruns before comparing. *)
let run_json_workload ~certifier ~duration name ~setup ~specs modes =
  List.map
    (fun mode ->
      let bench =
        {
          Driver.default_bench with
          Driver.mode;
          certifier;
          duration;
          warmup = duration /. 5.;
          costs = Driver.in_memory_costs;
        }
      in
      let result = Driver.run ~setup ~specs bench in
      { Experiments.x_label = name; x_value = 0.; mode; result })
    modes

(* Read-fleet preset: SIBENCH with a 9:1 read-heavy mix where every query
   routes through a two-replica read fleet.  The replicas are streamed:
   each core subscribes to the primary's WAL over a simulated network with
   the default link latency, so routed reads land on genuinely lagging
   safe snapshots and the router's staleness/fallback machinery — not just
   its load balancing — is what the preset measures.  SSI only: the router
   always runs the primary serializable and serves replicas from their
   safe snapshots, so the isolation-mode and certifier dimensions of the
   other presets do not apply. *)
let run_readfleet_json ~duration name =
  let rows = 100 in
  let module R = Ssi_replication.Router in
  let module Rep = Ssi_replication.Replica in
  let module Stream = Ssi_replication.Stream in
  let module Net = Ssi_net.Net in
  let specs =
    List.map
      (fun s -> if s.Driver.read_only then { s with Driver.weight = 9.0 } else s)
      (Sibench.specs ~rows ())
  in
  let fleet db =
    let net = Net.create ~obs:(E.obs db) ~seed:7 () in
    let (_ : Stream.primary) = Stream.make_primary net ~node:"p" ~epoch:1 db in
    let router = R.create ~seed:7 ~primary:db () in
    List.iter
      (fun name ->
        let core = Rep.create ~obs:(E.obs db) ~name () in
        let sub = Stream.subscribe net ~node:name ~primary_node:"p" ~epoch:1 core in
        R.add_replica router (Stream.core sub))
      [ "r1"; "r2" ];
    router
  in
  let bench =
    {
      Driver.default_bench with
      Driver.mode = Driver.SSI;
      duration;
      warmup = duration /. 5.;
      costs = Driver.in_memory_costs;
      fleet = Some fleet;
    }
  in
  let result = Driver.run ~setup:(Sibench.setup ~rows) ~specs bench in
  [ { Experiments.x_label = name; x_value = 0.; mode = Driver.SSI; result } ]

(* Sharded preset: throughput of the cross-shard 2PC coordinator as the
   shard count grows.  Each point is one shard count; the summaries are
   keyed by x_label ("shards-N") so the regression gate compares each
   shard count against its own baseline. *)
let run_sharded_json ~duration () =
  List.map
    (fun shards ->
      let result = Sharded.bench ~shards ~seed:11 ~duration () in
      {
        Experiments.x_label = Printf.sprintf "shards-%d" shards;
        x_value = float_of_int shards;
        mode = Driver.SSI;
        result;
      })
    [ 1; 2; 4 ]

let json_workloads ~quick () =
  let duration = if quick then 0.5 else 2.0 in
  let warehouses = if quick then 4 else 10 in
  let users = if quick then 100 else 400 in
  let items = if quick then 120 else 450 in
  let base =
    [
      ("sibench", Sibench.setup ~rows:100, Sibench.specs ~rows:100 (), Driver.all_modes);
      ( "tpcc",
        Tpcc.setup ~warehouses,
        Tpcc.specs ~warehouses ~ro_fraction:0.4,
        [ Driver.SI; Driver.SSI; Driver.S2PL ] );
      ( "rubis",
        Rubis.setup ~users ~items,
        Rubis.specs ~users ~items,
        [ Driver.SI; Driver.SSI; Driver.S2PL ] );
    ]
  in
  (* The certifier dimension: the SSI files keep their historical names and
     (with the default certifier) their exact contents, so committed SSI
     baselines stay byte-identical.  The watermark certifiers write
     _ssn/_essn-suffixed files covering the SSI mode only: SI and S2PL
     never consult a certifier, and the read-only optimization that
     SSI_no_ro_opt turns off is SSI's alone. *)
  let entries =
    List.concat_map
      (fun (name, setup, specs, modes) ->
        List.map
          (fun (certifier, suffix) ->
            let stem = name ^ suffix in
            let modes =
              if certifier = Certifier.SSI then modes
              else [ Driver.SSI ]
            in
            (stem, fun () -> run_json_workload ~certifier ~duration stem ~setup ~specs modes))
          [ (Certifier.SSI, ""); (Certifier.SSN, "_ssn"); (Certifier.ESSN, "_essn") ])
      base
  in
  let entries =
    entries
    @ [
        ("readfleet", fun () -> run_readfleet_json ~duration "readfleet");
        ("sharded", fun () -> run_sharded_json ~duration ());
      ]
  in
  (duration, entries)

(* Runs the corpus, printing each workload's latency table, and returns
   the files written. *)
let write_json ~quick () =
  banner "Machine-readable summaries (BENCH_<workload>.json)";
  let duration, workloads = json_workloads ~quick () in
  List.map
    (fun (name, run) ->
      let ms = run () in
      print_string (Experiments.render_latency ~title:(name ^ ":") ms);
      let file = Printf.sprintf "BENCH_%s.json" name in
      let oc = open_out file in
      output_string oc (Experiments.bench_json ~workload:name ~duration ms);
      close_out oc;
      Printf.printf "wrote %s\n%!" file;
      file)
    workloads

(* ---- §8.1 microbenchmarks: real CPU cost of read tracking ------------------- *)

(* The real cost of one SIBENCH query or update transaction per isolation
   level on this machine — the real-OCaml counterpart of the paper's
   "tracking read dependencies has a CPU overhead of 10-20%" claim — in
   two measures: exact minor-heap words, the same on every run of one
   build, and process CPU time, which is noisy and so reported as a median
   and interquartile range over interleaved rounds. *)

let micro_rows = 500

(* The measured transactions, each on a fresh database of its own. *)
let micro_txns () =
  let rng = Ssi_util.Rng.make 99 in
  (* The query is NOT declared READ ONLY (except in the "safe" variant):
     an idle declared-read-only transaction is immediately granted a safe
     snapshot (§4.2) and would skip the read tracking this microbenchmark
     is measuring. *)
  let txn_of name isolation kind =
    let db = E.create () in
    Sibench.setup ~rows:micro_rows db;
    ( name,
      fun () ->
        match kind with
        | `Query ->
            E.with_txn ~isolation db (fun t ->
                ignore (Sibench.query_min ~rows:micro_rows ~chunk:100 t))
        | `Query_ro ->
            E.with_txn ~isolation ~read_only:true db (fun t ->
                ignore (Sibench.query_min ~rows:micro_rows ~chunk:100 t))
        | `Update ->
            E.with_txn ~isolation db (fun t -> Sibench.update_one rng ~rows:micro_rows t) )
  in
  [
    txn_of "query/SI" E.Repeatable_read `Query;
    txn_of "query/SSI" E.Serializable `Query;
    txn_of "query/SSI-safe" E.Serializable `Query_ro;
    txn_of "query/S2PL" E.Serializable_2pl `Query;
    txn_of "update/SI" E.Repeatable_read `Update;
    txn_of "update/SSI" E.Serializable `Update;
    txn_of "update/S2PL" E.Serializable_2pl `Update;
  ]

(* Exact minor-heap words per transaction: the mean of 200 runs after one
   warm-up, each transaction on its own fresh database, so the figures
   are the same on every run of one build. *)
let micro_words txns =
  let runs = 200 in
  List.map
    (fun (name, run) ->
      run ();
      let w0 = Gc.minor_words () in
      for _ = 1 to runs do
        run ()
      done;
      (name, (Gc.minor_words () -. w0) /. float_of_int runs))
    txns

(* CPU microseconds per transaction: each round times a batch of every
   transaction in turn, so a slow stretch of the machine lands on all of
   them alike.  Returns each transaction's per-round samples, in round
   order, so ratios can be taken round by round. *)
let micro_rounds = 21
let micro_batch = 100

let micro_cpu txns =
  let samples = List.map (fun (name, _) -> (name, Ssi_util.Stats.create ())) txns in
  List.iter (fun (_, run) -> run ()) txns;
  for _ = 1 to micro_rounds do
    List.iter
      (fun (name, run) ->
        let t0 = Sys.time () in
        for _ = 1 to micro_batch do
          run ()
        done;
        let us = (Sys.time () -. t0) *. 1e6 /. float_of_int micro_batch in
        Ssi_util.Stats.add (List.assoc name samples) us)
      txns
  done;
  samples

let median_iqr st =
  Ssi_util.Stats.(median st, percentile st 0.25, percentile st 0.75)

(* Round-by-round ratio of [name]'s CPU to [base]'s. *)
let cpu_ratio cpu name base =
  let a = Ssi_util.Stats.values (List.assoc name cpu)
  and b = Ssi_util.Stats.values (List.assoc base cpu) in
  let r = Ssi_util.Stats.create () in
  Array.iteri (fun i x -> Ssi_util.Stats.add r (x /. b.(i))) a;
  median_iqr r

let micro () =
  banner "Microbenchmark (§8.1): cost per transaction by isolation level";
  let txns = micro_txns () in
  let words = micro_words txns in
  let cpu = micro_cpu txns in
  let base name = if String.starts_with ~prefix:"query" name then "query/SI" else "update/SI" in
  Printf.printf "%-16s %12s %10s %10s %17s\n" "transaction" "words/txn" "vs SI" "cpu us/txn"
    "IQR";
  List.iter
    (fun (name, w) ->
      let med, q1, q3 = median_iqr (List.assoc name cpu) in
      Printf.printf "%-16s %12.0f %9.2fx %10.1f %8.1f - %6.1f\n" name w
        (w /. List.assoc (base name) words)
        med q1 q3)
    words;
  Printf.printf "\n%-24s %10s %22s\n" "ratio to query/SI" "words" "cpu median (IQR)";
  List.iter
    (fun name ->
      let med, q1, q3 = cpu_ratio cpu name "query/SI" in
      Printf.printf "%-24s %9.2fx %9.2fx (%.2f - %.2f)\n" name
        (List.assoc name words /. List.assoc "query/SI" words)
        med q1 q3)
    [ "query/SSI"; "query/S2PL" ];
  Printf.printf
    "(cpu ratios are taken round by round over %d interleaved rounds of %d runs;\n\
    \ paper: read tracking costs SSI 10-20%% over SI, i.e. 1.10x-1.20x;\n\
    \ query/SSI-safe shows the safe-snapshot optimization recovering it)\n"
    micro_rounds micro_batch

(* ---- Regression gate ------------------------------------------------------------ *)

(* [json], then compare each file it wrote against its namesake in
   bench/baselines/ (override the directory with BENCH_BASELINE_DIR).  Both
   sides go through the same parser, so the rows are keyed exactly as
   [Experiments.bench_json] keyed them.  The simulation is deterministic,
   so the 15% tolerance only has to absorb intentional behavior changes,
   never noise.  Writes BENCH_REGRESSION.md (the CI artifact) and exits
   non-zero on a regression. *)

let regress_tolerance = 0.15

let regress ~quick () =
  let files = write_json ~quick () in
  banner "Benchmark regression gate (virtual-clock throughput vs committed baselines)";
  let baseline_dir =
    match Sys.getenv_opt "BENCH_BASELINE_DIR" with
    | Some d -> d
    | None -> Filename.concat "bench" "baselines"
  in
  let comparisons =
    List.concat_map
      (fun file ->
        Bench_compare.compare_summaries ~tolerance:regress_tolerance
          ~baseline:(Bench_compare.load_summary (Filename.concat baseline_dir file))
          ~current:(Bench_compare.load_summary file) ())
      files
  in
  let report = Bench_compare.render_report ~tolerance:regress_tolerance comparisons in
  print_string report;
  let oc = open_out "BENCH_REGRESSION.md" in
  output_string oc report;
  close_out oc;
  Printf.printf "wrote BENCH_REGRESSION.md\n%!";
  if Bench_compare.any_regression comparisons then begin
    prerr_endline "bench regression detected";
    exit 1
  end

(* ---- Dispatch ------------------------------------------------------------------ *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let quick = List.mem "quick" args in
  let args = List.filter (fun a -> a <> "quick") args in
  (* [regress] is opt-in only: it needs committed baselines and exits
     non-zero on a regression. *)
  let all = List.map fst Experiments.all @ [ "json"; "micro" ] in
  let known = all @ [ "regress" ] in
  let selected = if args = [] then all else args in
  List.iter
    (fun name ->
      match (List.assoc_opt name Experiments.all, name) with
      | Some run, _ ->
          print_string (run ~quick);
          flush stdout
      | None, "json" -> ignore (write_json ~quick ())
      | None, "micro" -> micro ()
      | None, "regress" -> regress ~quick ()
      | None, other ->
          Printf.eprintf "unknown experiment %S (expected: %s)\n" other
            (String.concat ", " known);
          exit 1)
    selected
