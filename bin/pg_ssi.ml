(* pg_ssi: command-line front end.

     pg_ssi demo                          -- write-skew walkthrough (paper Figure 1)
     pg_ssi workload <sibench|tpcc|rubis> --mode <si|ssi|ssi-noro|s2pl>
                                          -- run one configuration, report its numbers
     pg_ssi stats <sibench|tpcc|rubis>    -- run, then dump the metric registry
                  [--format text|prom|json] [--window N]
     pg_ssi monitor <sibench|tpcc|rubis>  -- run with scrape + SLO watchdog: windowed
                                             time-series table and fired alerts
     pg_ssi trace <sibench|tpcc|rubis>    -- run, then dump trace events as JSONL
     pg_ssi explain <sibench|tpcc|rubis>  -- run, then explain every certifier abort
     pg_ssi chaos plan                    -- workload under a seeded fault plan
     pg_ssi chaos fleet                   -- replica read router under faults + oracle
     pg_ssi chaos shards                  -- cross-shard 2PC chaos + spliced-DSG oracle
     pg_ssi chaos torture                 -- kill-point recovery torture sweep
     pg_ssi recover <FILE>                -- cold-start from a durable-log image
     pg_ssi sql [-f FILE]                 -- SQL shell on a fresh in-memory database

   Every workload-running subcommand (workload, stats, trace, explain,
   chaos plan, chaos torture) also takes --certifier <ssi|ssn|essn> to
   pick the serializability certifier the serializable modes run under:
   the paper's SSI (default), the Serial Safety Net's exclusion-window
   test, or its extended read-only refinement.  Every chaos subcommand
   runs its scenario twice and exits non-zero unless the scenario's
   checks held and the replay was byte-identical.

   The paper's tables and figures come from bench/main.exe; the
   workload subcommand runs a single configuration and reports its
   numbers, which is handy for ad-hoc comparisons.  stats and trace run
   the same workloads but expose the observability core: every counter,
   gauge and latency histogram the engine recorded, or the events
   attached to the retained spans. *)

open Cmdliner
open Ssi_workload
open Ssi_harness
module E = Ssi_engine.Engine

(* ---- demo -------------------------------------------------------------- *)

let run_demo () =
  let open Ssi_storage in
  Format.printf "Write-skew demo (paper Figure 1)@.";
  let outcome isolation =
    let db = E.create () in
    E.create_table db ~name:"doctors" ~cols:[ "name"; "oncall" ] ~key:"name";
    E.with_txn db (fun t ->
        E.insert t ~table:"doctors" [| Value.Str "alice"; Value.Bool true |];
        E.insert t ~table:"doctors" [| Value.Str "bob"; Value.Bool true |]);
    let oncall t =
      List.length (E.seq_scan t ~table:"doctors" ~filter:(fun r -> Value.as_bool r.(1)) ())
    in
    let go_off t who =
      if oncall t >= 2 then
        ignore
          (E.update t ~table:"doctors" ~key:(Value.Str who) ~f:(fun r ->
               [| r.(0); Value.Bool false |]))
    in
    let t1 = E.begin_txn ~isolation db in
    let t2 = E.begin_txn ~isolation db in
    go_off t1 "alice";
    go_off t2 "bob";
    let c1 = (try E.commit t1; true with E.Serialization_failure _ -> false) in
    let c2 = (try E.commit t2; true with E.Serialization_failure _ -> false) in
    let left = E.with_txn db (fun t -> oncall t) in
    (c1, c2, left)
  in
  let c1, c2, left = outcome E.Repeatable_read in
  Format.printf "  snapshot isolation: T1 %s, T2 %s -> %d doctor(s) on call%s@."
    (if c1 then "committed" else "aborted")
    (if c2 then "committed" else "aborted")
    left
    (if left = 0 then "  <- INVARIANT VIOLATED" else "");
  let c1, c2, left = outcome E.Serializable in
  Format.printf "  SSI serializable:   T1 %s, T2 %s -> %d doctor(s) on call@."
    (if c1 then "committed" else "aborted")
    (if c2 then "committed" else "aborted")
    left;
  0

(* ---- workload ------------------------------------------------------------ *)

module Certifier = Ssi_core.Certifier

let workloads =
  [
    ("sibench", fun () -> (Sibench.setup ~rows:100, Sibench.specs ~rows:100 ()));
    ("tpcc", fun () -> (Tpcc.setup ~warehouses:5, Tpcc.specs ~warehouses:5 ~ro_fraction:0.08));
    ("rubis", fun () -> (Rubis.setup ~users:200 ~items:220, Rubis.specs ~users:200 ~items:220));
  ]

let workload_config name = List.assoc name workloads ()

let print_summary name mode certifier workers duration (r : Driver.result) =
  let lat x = if Float.is_finite x then Printf.sprintf "%.6f" x else "-" in
  Format.printf "workload=%s mode=%s certifier=%s workers=%d duration=%.1fs@." name
    (Driver.mode_name mode)
    (Certifier.kind_to_string certifier)
    workers duration;
  Format.printf "  committed    %d (%.0f tx/s)@." r.Driver.committed r.Driver.throughput;
  Format.printf "  failures     %d (%.3f%%), of which %d deadlocks@." r.Driver.failures
    (100. *. r.Driver.failure_rate) r.Driver.deadlocks;
  Format.printf "  latency (s)  p50 %s  p95 %s  p99 %s@."
    (lat r.Driver.latency_p50) (lat r.Driver.latency_p95) (lat r.Driver.latency_p99);
  if r.Driver.abort_reasons <> [] then begin
    Format.printf "  abort reasons:@.";
    List.iter
      (fun (reason, n) -> Format.printf "    %-44s %d@." reason n)
      r.Driver.abort_reasons
  end;
  Format.printf "  cpu busy     %.0f%%@." (100. *. r.Driver.cpu_busy)

let run_workload name mode certifier workers duration seed =
  let bench =
    {
      Driver.default_bench with
      Driver.mode;
      certifier;
      workers;
      duration;
      warmup = duration /. 5.;
      seed;
    }
  in
  let setup, specs = workload_config name in
  let r = Driver.run ~setup ~specs bench in
  print_summary name mode certifier workers duration r;
  0

(* ---- stats / trace / monitor ---------------------------------------------- *)

(* Run a workload while holding on to the engine (via the pre-setup chaos
   hook), then dump the observability core: the full metric registry
   (stats) or the events attached to the retained spans as JSON Lines
   (trace). *)

module Scrape = Ssi_obs.Scrape
module Watchdog = Ssi_obs.Watchdog

(* The curated panel for the windowed views; metrics a given run never
   registered render as "-". *)
let monitor_metrics =
  [
    "engine.commits";
    "engine.aborts";
    "engine.serialization_failures";
    "engine.active_txns";
    "driver.txn_latency";
    "ssi.summarized";
    "wal.appends";
    "wal.flushes";
    "fleet.markdowns";
  ]

let run_observed ?trace_capacity name mode certifier workers duration seed k =
  let eng = ref None in
  let bench =
    {
      Driver.default_bench with
      Driver.mode;
      certifier;
      workers;
      duration;
      warmup = duration /. 5.;
      seed;
      chaos = Some (fun db -> eng := Some db);
      trace_capacity;
    }
  in
  let setup, specs = workload_config name in
  let r = Driver.run ~setup ~specs bench in
  match !eng with
  | Some db -> k db r
  | None ->
      prerr_endline "internal error: engine was not captured";
      1

(* Like [run_observed], but with an always-on scraper ticking [windows]
   times across the run (warmup included: the scraper sees the whole
   horizon; the driver summary still discards warmup) and a watchdog on
   the default rule catalog. *)
let run_windowed name mode certifier workers duration seed ~windows k =
  let windows = max 1 windows in
  let horizon = duration +. (duration /. 5.) in
  let scr = ref None in
  let wd = ref None in
  let eng = ref None in
  let chaos db =
    eng := Some db;
    let s = Scrape.create ~capacity:(max windows 8) (E.obs db) in
    scr := Some s;
    wd := Some (Watchdog.create s (Watchdog.default_rules ()));
    Scrape.run s ~interval:(horizon /. float_of_int windows) ~until:horizon
  in
  let bench =
    {
      Driver.default_bench with
      Driver.mode;
      certifier;
      workers;
      duration;
      warmup = duration /. 5.;
      seed;
      chaos = Some chaos;
    }
  in
  let setup, specs = workload_config name in
  let r = Driver.run ~setup ~specs bench in
  match (!eng, !scr, !wd) with
  | Some db, Some s, Some w -> k db s w r
  | _ ->
      prerr_endline "internal error: engine was not captured";
      1

let run_stats name mode certifier workers duration seed format window =
  match format with
  | "text" when window = None ->
      (* No scraper at all: byte-identical to the historical output. *)
      run_observed name mode certifier workers duration seed (fun db r ->
          print_summary name mode certifier workers duration r;
          Format.printf "@.";
          print_string (Ssi_obs.Obs.render (E.obs db));
          0)
  | "text" ->
      let windows = Option.value window ~default:8 in
      run_windowed name mode certifier workers duration seed ~windows
        (fun db s _wd r ->
          print_summary name mode certifier workers duration r;
          Format.printf "@.";
          print_string (Ssi_obs.Obs.render (E.obs db));
          Format.printf "@.";
          let metrics = List.map fst (Ssi_obs.Obs.raw_metrics (E.obs db)) in
          print_string (Scrape.render ~last:windows s ~metrics);
          0)
  | "prom" ->
      (* Cumulative exposition needs no scraper, so the registry stays
         exactly what the run produced. *)
      run_observed name mode certifier workers duration seed (fun db _r ->
          let text = Scrape.openmetrics (E.obs db) in
          (match Scrape.validate_openmetrics text with
          | Ok _ -> ()
          | Error e ->
              Printf.eprintf "internal error: invalid OpenMetrics output: %s\n" e);
          print_string text;
          0)
  | "json" ->
      let windows = Option.value window ~default:8 in
      run_windowed name mode certifier workers duration seed ~windows
        (fun _db s _wd _r ->
          print_string (Scrape.to_jsonl s);
          0)
  | other ->
      Printf.eprintf "unknown format %s (expected text, prom or json)\n" other;
      1

let run_monitor name mode certifier workers duration seed windows =
  run_windowed name mode certifier workers duration seed ~windows (fun _db s w r ->
      print_summary name mode certifier workers duration r;
      Format.printf "@.";
      print_string (Scrape.render ~last:windows s ~metrics:monitor_metrics);
      let alerts = Watchdog.alerts w in
      Format.printf "@.alerts (%d):@." (List.length alerts);
      List.iter (fun a -> Format.printf "  %s@." (Watchdog.render_alert a)) alerts;
      (match Watchdog.active w with
      | [] -> ()
      | act -> Format.printf "still active at end of run: %s@." (String.concat ", " act));
      0)

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let run_trace name mode certifier workers duration seed filter limit =
  run_observed name mode certifier workers duration seed (fun db _r ->
      let evs = Ssi_obs.Obs.events (E.obs db) in
      let evs =
        match filter with
        | None -> evs
        | Some prefix ->
            List.filter (fun (e : Ssi_obs.Obs.event) -> has_prefix ~prefix e.Ssi_obs.Obs.name) evs
      in
      let evs =
        match limit with
        | None -> evs
        | Some n ->
            (* Keep the most recent [n]: the tail of the emission order. *)
            let skip = List.length evs - n in
            if skip <= 0 then evs else List.filteri (fun i _ -> i >= skip) evs
      in
      List.iter (fun e -> print_endline (Ssi_obs.Obs.event_to_json e)) evs;
      0)

let run_explain name mode certifier workers duration seed trace_capacity =
  run_observed ~trace_capacity name mode certifier workers duration seed (fun db r ->
      print_summary name mode certifier workers duration r;
      Format.printf "@.";
      print_string (Explain.render (E.obs db));
      0)

(* ---- recover ------------------------------------------------------------ *)

module Wal = Ssi_wal.Wal

let run_recover file =
  let wal = try Wal.load file with Sys_error m -> prerr_endline m; exit 1 in
  let db, r = E.recover wal in
  Format.printf "recovered from %s@." file;
  Format.printf "  checkpoint cseq    %s@."
    (match r.E.rr_checkpoint_cseq with Some c -> string_of_int c | None -> "(no checkpoint)");
  Format.printf "  records replayed   %d@." r.E.rr_records;
  Format.printf "  tail truncated     %d bytes@." r.E.rr_truncated;
  Format.printf "  prepared restored  %d%s@." r.E.rr_prepared
    (match E.prepared_gids db with
    | [] -> ""
    | gids -> " (" ^ String.concat ", " (List.sort compare gids) ^ ")");
  Format.printf "  last cseq          %d@." r.E.rr_last_cseq;
  Format.printf "  epoch              %d@." r.E.rr_epoch;
  Format.printf "tables:@.";
  List.iter
    (fun t ->
      let n = E.with_txn ~isolation:E.Repeatable_read db (fun txn -> E.row_count txn ~table:t) in
      Format.printf "  %-18s %d rows@." t n)
    (List.sort compare (E.table_names db));
  Format.printf "@.";
  print_string (Ssi_obs.Obs.render (E.obs db));
  0

(* ---- sql REPL ------------------------------------------------------------ *)

let run_sql script_file =
  let engine = E.create () in
  let session = Ssi_sql.Session.create engine in
  let exec_line line =
    match String.trim line with
    | "" -> ()
    | line -> (
        try
          List.iter
            (fun r -> print_endline (Ssi_sql.Session.render r))
            (Ssi_sql.Session.exec_sql session line)
        with
        | Ssi_sql.Session.Sql_error m -> Printf.printf "ERROR: %s\n%!" m
        | Ssi_sql.Parser.Parse_error m -> Printf.printf "syntax error: %s\n%!" m
        | Ssi_sql.Lexer.Lex_error m -> Printf.printf "syntax error: %s\n%!" m)
  in
  (match script_file with
  | Some path ->
      let ic = open_in path in
      let n = in_channel_length ic in
      let contents = really_input_string ic n in
      close_in ic;
      exec_line contents
  | None ->
      print_endline "pg_ssi SQL shell (SERIALIZABLE by default). End statements with ';'.";
      let buf = Buffer.create 256 in
      (try
         while true do
           print_string (if Buffer.length buf = 0 then "pg_ssi=# " else "pg_ssi-# ");
           let line = read_line () in
           Buffer.add_string buf line;
           Buffer.add_char buf '\n';
           if String.contains line ';' then begin
             exec_line (Buffer.contents buf);
             Buffer.clear buf
           end
         done
       with End_of_file -> ()));
  0

(* ---- cmdliner wiring --------------------------------------------------------- *)

let demo_cmd =
  Cmd.v (Cmd.info "demo" ~doc:"Write-skew walkthrough (paper Figure 1)")
    Term.(const run_demo $ const ())

let wl_arg =
  let names = List.map (fun (name, _) -> (name, name)) workloads in
  Arg.(required & pos 0 (some (enum names)) None
       & info [] ~docv:"WORKLOAD" ~doc:(doc_alts_enum names))

let mode_arg =
  let modes =
    [ ("si", Driver.SI); ("ssi", Driver.SSI); ("ssi-noro", Driver.SSI_no_ro_opt);
      ("s2pl", Driver.S2PL) ]
  in
  Arg.(value & opt (enum modes) Driver.SSI
       & info [ "mode" ] ~docv:"MODE" ~doc:("Isolation mode: " ^ doc_alts_enum modes))

let certifier_arg =
  let kinds = List.map (fun k -> (Certifier.kind_to_string k, k)) Certifier.all_kinds in
  Arg.(value & opt (enum kinds) Certifier.SSI
       & info [ "certifier" ] ~docv:"CERTIFIER"
           ~doc:
             "Serializability certifier for serializable modes: ssi (the paper's \
              dangerous-structure detection), ssn (Serial Safety Net exclusion windows) \
              or essn (SSN with the read-only effective-stamp refinement)")

let workers_arg = Arg.(value & opt int 4 & info [ "workers" ] ~doc:"Concurrent sessions")

let duration_arg =
  Arg.(value & opt float 3.0 & info [ "duration" ] ~doc:"Measured simulated seconds")

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed")

let workload_cmd =
  Cmd.v (Cmd.info "workload" ~doc:"Run one workload configuration and report its numbers")
    Term.(
      const run_workload $ wl_arg $ mode_arg $ certifier_arg $ workers_arg $ duration_arg
      $ seed_arg)

let stats_cmd =
  let format_arg =
    Arg.(value & opt string "text"
         & info [ "format" ] ~docv:"FMT"
             ~doc:
               "Output format: text (the registry table, plus a windowed time-series \
                table when $(b,--window) is given), prom (Prometheus/OpenMetrics text \
                exposition of the cumulative registry) or json (JSON Lines, one object \
                per scrape window)")
  in
  let window_arg =
    Arg.(value & opt (some int) None
         & info [ "window" ] ~docv:"N"
             ~doc:
               "Scrape the registry $(docv) times across the run and report windowed \
                deltas (default 8 for $(b,--format) json; off for text)")
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Run a workload, then dump every metric in the observability registry \
          (counters, gauges, latency histograms) as a table — or as OpenMetrics / \
          windowed JSON Lines with $(b,--format)")
    Term.(
      const run_stats $ wl_arg $ mode_arg $ certifier_arg $ workers_arg $ duration_arg
      $ seed_arg $ format_arg $ window_arg)

let monitor_cmd =
  let window_arg =
    Arg.(value & opt int 12
         & info [ "window" ] ~docv:"N" ~doc:"Number of scrape windows across the run")
  in
  Cmd.v
    (Cmd.info "monitor"
       ~doc:
         "Run a workload with the always-on telemetry pipeline: scrape the registry into \
          windowed deltas on the virtual clock, render the key metrics as a time-series \
          table, and report every SLO-watchdog alert the run fired")
    Term.(
      const run_monitor $ wl_arg $ mode_arg $ certifier_arg $ workers_arg $ duration_arg
      $ seed_arg $ window_arg)

let trace_cmd =
  let filter_arg =
    Arg.(value & opt (some string) None
         & info [ "filter" ] ~docv:"PREFIX"
             ~doc:"Only events whose dotted name starts with $(docv) (e.g. ssi. or txn)")
  in
  let limit_arg =
    Arg.(value & opt (some int) None
         & info [ "limit" ] ~docv:"N" ~doc:"Only the most recent $(docv) matching events")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run a workload, then dump every event attached to a retained span (conflict \
          evidence, serialization failures, faults, safe snapshots) as JSON Lines, in \
          emission order")
    Term.(
      const run_trace $ wl_arg $ mode_arg $ certifier_arg $ workers_arg $ duration_arg
      $ seed_arg $ filter_arg $ limit_arg)

let explain_cmd =
  let cap_arg =
    Arg.(value & opt int 65536
         & info [ "trace-capacity" ] ~docv:"N"
             ~doc:
               "Size of the span table; must exceed the run's span volume or evidence is \
                overwritten (the report then says so)")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Run a workload, then reconstruct and pretty-print the conflict evidence behind \
          every serialization failure: the dangerous structure (T1 --rw--> T2 --rw--> T3, \
          the rule that fired, the victim-selection reason) under SSI, or the closed \
          exclusion window (pstamp/sstamp and the peer that closed it) under SSN/ESSN")
    Term.(
      const run_explain $ wl_arg $ mode_arg $ certifier_arg $ workers_arg $ duration_arg
      $ seed_arg $ cap_arg)

(* One subcommand per scenario; each takes only the flags its harness
   reads and hands the assembled cfg to the one runner. *)
let chaos_cmd =
  let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Scenario seed") in
  let workers_arg = Arg.(value & opt int 8 & info [ "workers" ] ~doc:"Concurrent sessions") in
  let failover_arg ~doc = Arg.(value & flag & info [ "failover" ] ~doc) in
  let replicas_arg ~default ~doc =
    Arg.(value & opt int default & info [ "replicas" ] ~docv:"N" ~doc)
  in
  (* Each harness's own default when absent; 0 turns the events off. *)
  let partitions_arg ~default =
    Arg.(value & opt int default
         & info [ "partitions" ] ~docv:"N" ~doc:"Seeded network partitions to schedule")
  in
  let net_chaos_arg ~default =
    Arg.(value & opt int default
         & info [ "net-chaos" ] ~docv:"N" ~doc:"Seeded drop/duplicate/reorder windows to schedule")
  in
  let scenario (type c) name ~doc (module M : Scenario.S with type cfg = c) cfg =
    Cmd.v (Cmd.info name ~doc) Term.(const (Scenario.main (module M)) $ cfg)
  in
  let plan =
    let duration_arg =
      Arg.(value & opt float 3.0 & info [ "duration" ] ~doc:"Simulated seconds (fault horizon)")
    in
    let quorum_arg =
      Arg.(value & opt (some int) None
           & info [ "quorum" ]
               ~doc:
                 "Quorum-synchronous commit: hold each commit ack for $(docv) replica acks \
                  (deadline 2ms of virtual time, then degrade to async)"
               ~docv:"K")
    in
    let explain_arg =
      Arg.(value & flag
           & info [ "explain" ]
               ~doc:"Print the dangerous structure behind every SSI abort after the run")
    in
    let trace_out_arg =
      Arg.(value & opt (some string) None
           & info [ "trace-out" ] ~docv:"FILE"
               ~doc:
                 "Export all retained spans as Chrome trace-event JSON (Perfetto / \
                  chrome://tracing) to $(docv)")
    in
    let trace_capacity_arg =
      Arg.(value & opt (some int) None
           & info [ "trace-capacity" ] ~docv:"N"
               ~doc:
                 "Size of the span table (default 4096); exports and explanations need this \
                  above the run's span volume")
    in
    let alerts_arg =
      Arg.(value & flag
           & info [ "alerts" ]
               ~doc:
                 "Run the SLO watchdog (default rule catalog) over an always-on scrape of \
                  the run and print every alert it fired; also validates the OpenMetrics \
                  exposition of the final registry (non-zero exit if invalid)")
    in
    let scrape_out_arg =
      Arg.(value & opt (some string) None
           & info [ "scrape-out" ] ~docv:"FILE"
               ~doc:
                 "Write the scraped time series (one JSON object per window) to $(docv); \
                  implies the always-on scrape")
    in
    let metrics_out_arg =
      Arg.(value & opt (some string) None
           & info [ "metrics-out" ] ~docv:"FILE"
               ~doc:
                 "Write the final registry in OpenMetrics text format to $(docv); implies \
                  the always-on scrape")
    in
    let cfg seed certifier duration workers failover replicas quorum partitions net_chaos
        explain trace_out trace_capacity alerts scrape_out metrics_out =
      {
        Chaos.seed;
        certifier;
        duration;
        workers;
        failover;
        replicas;
        quorum;
        partitions;
        net_chaos;
        explain;
        trace_capacity;
        alerts;
        trace_out;
        scrape_out;
        metrics_out;
      }
    in
    scenario "plan" (module Chaos)
      ~doc:
        "Run SIBENCH under a seeded fault plan (crashes, I/O faults, memory pressure, \
         replica lag, network partitions and chaos) and report resilience counters"
      Term.(
        const cfg $ seed_arg $ certifier_arg $ duration_arg $ workers_arg
        $ failover_arg ~doc:"Promote the replica near the end of the run"
        $ replicas_arg ~default:0
            ~doc:
              "Stream WAL to $(docv) replicas over a simulated lossy network instead of \
               the in-process commit hook (0 = direct mode)"
        $ quorum_arg $ partitions_arg ~default:0 $ net_chaos_arg ~default:0 $ explain_arg
        $ trace_out_arg $ trace_capacity_arg $ alerts_arg $ scrape_out_arg $ metrics_out_arg)
  in
  let fleet =
    let module RF = Readfleet in
    let read_mix_arg =
      Arg.(value & opt float 0.9
           & info [ "read-mix" ] ~doc:"Fraction of client transactions that are reads" ~docv:"F")
    in
    let cfg seed replicas read_mix workers failover partitions net_chaos =
      { RF.default_cfg with RF.seed; replicas; read_mix; workers; failover; partitions; net_chaos }
    in
    scenario "fleet" (module RF)
      ~doc:
        "Route a read-heavy workload through the replica read router over streaming \
         replicas under partitions, lag spikes and network chaos, and check every routed \
         read against the commit order"
      Term.(
        const cfg $ seed_arg
        $ replicas_arg ~default:2 ~doc:"Streaming replicas behind the read router"
        $ read_mix_arg $ workers_arg
        $ failover_arg ~doc:"Fenced failover to a replica at 90% of the horizon"
        $ partitions_arg ~default:RF.default_cfg.RF.partitions
        $ net_chaos_arg ~default:RF.default_cfg.RF.net_chaos)
  in
  let shards =
    let module S = Sharded in
    let shards_arg =
      Arg.(value & opt int 2
           & info [ "shards" ] ~docv:"N" ~doc:"Engines the table is hash-partitioned across")
    in
    let cfg seed shards workers partitions net_chaos =
      { S.default_cfg with S.seed; shards; workers; partitions; net_chaos }
    in
    scenario "shards" (module S)
      ~doc:
        "Drive multi-shard transactions through the 2PC coordinator under partitions, \
         message chaos and a participant crash, and check the combined history with the \
         spliced-DSG oracle"
      Term.(
        const cfg $ seed_arg $ shards_arg $ workers_arg
        $ partitions_arg ~default:S.default_cfg.S.partitions
        $ net_chaos_arg ~default:S.default_cfg.S.net_chaos)
  in
  let torture =
    let module T = Ssi_fault.Torture in
    let kill_points_arg =
      Arg.(value & opt int 10
           & info [ "kill-points" ] ~docv:"N"
               ~doc:
                 "Crash the durable log at up to $(docv) successive engine fault points \
                  (one crash/recover cycle each)")
    in
    let kill_every_arg =
      Arg.(value & opt int 3
           & info [ "kill-every" ] ~docv:"K" ~doc:"Stride between successive kill points")
    in
    let torn_writes_arg =
      Arg.(value & flag
           & info [ "torn-writes" ]
               ~doc:
                 "Damage the flush in flight at each crash (seeded torn write, short write \
                  or bit flip)")
    in
    let wal_out_arg =
      Arg.(value & opt (some string) None
           & info [ "wal-out" ] ~docv:"FILE"
               ~doc:"Save the first cycle's crashed log image to $(docv) for $(b,pg_ssi recover)")
    in
    let cfg seed certifier max_kills kill_every with_damage wal_out =
      { T.seed; certifier; max_kills; kill_every; with_damage; wal_out }
    in
    scenario "torture" (module T)
      ~doc:
        "Kill-point recovery torture: crash, cold-start with recovery, and check the \
         durability invariants at successive fault points"
      Term.(
        const cfg $ seed_arg $ certifier_arg $ kill_points_arg $ kill_every_arg
        $ torn_writes_arg $ wal_out_arg)
  in
  Cmd.group
    (Cmd.info "chaos"
       ~doc:
         "Seeded, replayable chaos scenarios: each runs twice and exits non-zero unless its \
          checks held and the replay was byte-identical")
    [ plan; fleet; shards; torture ]

let recover_cmd =
  let file_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"FILE" ~doc:"Durable-log image (e.g. from chaos torture $(b,--wal-out))")
  in
  Cmd.v
    (Cmd.info "recover"
       ~doc:
         "Cold-start an engine from a durable-log image: truncate any damaged tail, replay \
          from the latest checkpoint, restore prepared transactions, and print the recovery \
          report and row counts")
    Term.(const run_recover $ file_arg)

let sql_cmd =
  let file_arg =
    Arg.(value & opt (some string) None
         & info [ "file"; "f" ] ~docv:"FILE" ~doc:"Execute a SQL script instead of a REPL")
  in
  Cmd.v (Cmd.info "sql" ~doc:"Interactive SQL shell on a fresh in-memory database")
    Term.(const run_sql $ file_arg)

let () =
  let info =
    Cmd.info "pg_ssi" ~version:"1.0.0"
      ~doc:"Serializable Snapshot Isolation in PostgreSQL, reproduced in OCaml"
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            demo_cmd;
            workload_cmd;
            stats_cmd;
            monitor_cmd;
            trace_cmd;
            explain_cmd;
            chaos_cmd;
            recover_cmd;
            sql_cmd;
          ]))
