open Ssi_util
open Ssi_workload
module E = Ssi_engine.Engine
module Sim = Ssi_sim.Sim
module Obs = Ssi_obs.Obs

type measurement = {
  x_label : string;
  x_value : float;
  mode : Driver.mode;
  result : Driver.result;
}

let sweep ~modes ~points ~bench_of ~setup_of ~specs_of ~label_of =
  List.concat_map
    (fun x ->
      List.map
        (fun mode ->
          let result =
            Driver.run ~setup:(setup_of x) ~specs:(specs_of x) (bench_of mode x)
          in
          { x_label = label_of x; x_value = x; mode; result })
        modes)
    points

(* The default bench (4 workers, 4 cores, in-memory costs) measuring
   [duration] simulated seconds after a fifth as much warmup. *)
let timed mode duration =
  { Driver.default_bench with Driver.mode; duration; warmup = duration /. 5. }

let banner name = Printf.sprintf "\n===== %s =====\n" name

(* ---- Rendering --------------------------------------------------------------------- *)

let group_by_x measurements =
  let order = ref [] in
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun m ->
      if not (Hashtbl.mem tbl m.x_label) then begin
        Hashtbl.add tbl m.x_label [];
        order := m.x_label :: !order
      end;
      Hashtbl.replace tbl m.x_label (m :: Hashtbl.find tbl m.x_label))
    measurements;
  List.rev_map (fun x -> (x, List.rev (Hashtbl.find tbl x))) !order

let si_throughput group =
  match List.find_opt (fun m -> m.mode = Driver.SI) group with
  | Some m -> m.result.Driver.throughput
  | None -> nan

(* Rows = x values; columns = modes, as throughput normalized to SI (the
   SI column shows absolute committed tx/s for reference). *)
let render_normalized ~x_header measurements =
  let groups = group_by_x measurements in
  let modes =
    List.filter
      (fun mode -> List.exists (fun m -> m.mode = mode) measurements)
      Driver.all_modes
  in
  let header =
    x_header :: "SI (tx/s)"
    :: List.filter_map
         (fun mode -> if mode = Driver.SI then None else Some (Driver.mode_name mode))
         modes
  in
  let rows =
    List.map
      (fun (x, group) ->
        let base = si_throughput group in
        x
        :: Printf.sprintf "%.0f" base
        :: List.filter_map
             (fun mode ->
               if mode = Driver.SI then None
               else
                 match List.find_opt (fun m -> m.mode = mode) group with
                 | Some m ->
                     Some (Printf.sprintf "%.2fx" (m.result.Driver.throughput /. base))
                 | None -> Some "-")
             modes)
      groups
  in
  "\n" ^ Tablefmt.render ~header rows

(* Rows = x values; columns = throughput and failure rate of the SSI run,
   normalized against the SI run at the same x. *)
let render_ablation ~x_header measurements =
  let groups = group_by_x measurements in
  let header =
    [ x_header; "SSI tx/s"; "vs SI"; "failure rate"; "conflicts"; "summarized" ]
  in
  let rows =
    List.map
      (fun (x, group) ->
        let base = si_throughput group in
        match List.find_opt (fun m -> m.mode = Driver.SSI) group with
        | None -> [ x; "-"; "-"; "-"; "-"; "-" ]
        | Some m ->
            [
              x;
              Printf.sprintf "%.0f" m.result.Driver.throughput;
              Printf.sprintf "%.2fx" (m.result.Driver.throughput /. base);
              Printf.sprintf "%.3f%%" (100. *. m.result.Driver.failure_rate);
              string_of_int m.result.Driver.ssi_conflicts;
              string_of_int m.result.Driver.ssi_summarized;
            ])
      groups
  in
  "\n" ^ Tablefmt.render ~header rows

let render_latency ~title measurements =
  (* A leading x column only when the measurements sweep something (the
     json workloads run one x; the group-commit sweep runs several). *)
  let distinct_x =
    match measurements with
    | [] -> false
    | m :: tl -> List.exists (fun m' -> m'.x_label <> m.x_label) tl
  in
  let header =
    (if distinct_x then [ "x" ] else [])
    @ [ "mode"; "tx/s"; "p50 lat (s)"; "p95 lat (s)"; "p99 lat (s)"; "failure rate" ]
  in
  let f x = if Float.is_finite x then Printf.sprintf "%.6f" x else "-" in
  let rows =
    List.map
      (fun m ->
        let r = m.result in
        (if distinct_x then [ m.x_label ] else [])
        @ [
          Driver.mode_name m.mode;
          Printf.sprintf "%.0f" r.Driver.throughput;
          f r.Driver.latency_p50;
          f r.Driver.latency_p95;
          f r.Driver.latency_p99;
          Printf.sprintf "%.3f%%" (100. *. r.Driver.failure_rate);
        ])
      measurements
  in
  Printf.sprintf "%s\n%s" title (Tablefmt.render ~header rows)

(* ---- Figure 4: SIBENCH ----------------------------------------------------- *)

(* Throughput vs table size for SI / SSI / SSI without the read-only
   optimizations / S2PL, in-memory cost model. *)
let fig4 ~quick =
  let sizes = if quick then [ 10; 100; 1000 ] else [ 10; 30; 100; 300; 1000; 3000 ] in
  let duration = if quick then 1.0 else 3.0 in
  banner "Figure 4: SIBENCH transaction throughput (normalized to SI)"
  ^ render_normalized ~x_header:"table size (rows)"
      (sweep
         ~modes:[ Driver.SI; Driver.SSI; Driver.SSI_no_ro_opt; Driver.S2PL ]
         ~points:(List.map float_of_int sizes)
         ~bench_of:(fun mode _ -> timed mode duration)
         ~setup_of:(fun x -> Sibench.setup ~rows:(int_of_float x))
         ~specs_of:(fun x -> Sibench.specs ~rows:(int_of_float x) ())
         ~label_of:(fun x -> string_of_int (int_of_float x)))

(* ---- Figure 5: DBT-2++ ------------------------------------------------------- *)

let dbt2_sweep ~quick ~modes ~warehouses bench_of =
  sweep ~modes
    ~points:(if quick then [ 0.; 0.5; 1.0 ] else [ 0.; 0.2; 0.4; 0.6; 0.8; 1.0 ])
    ~bench_of:(fun mode _ -> bench_of mode)
    ~setup_of:(fun _ -> Tpcc.setup ~warehouses)
    ~specs_of:(fun f -> Tpcc.specs ~warehouses ~ro_fraction:f)
    ~label_of:(fun f -> Printf.sprintf "%.0f%%" (100. *. f))
  |> render_normalized ~x_header:"read-only fraction"

(* In-memory configuration: throughput vs fraction of read-only
   transactions (paper: 25 warehouses, 4 clients, tmpfs). *)
let fig5a ~quick =
  let duration = if quick then 1.0 else 3.0 in
  banner "Figure 5a: DBT-2++ throughput, in-memory configuration (normalized to SI)"
  ^ dbt2_sweep ~quick
      ~modes:[ Driver.SI; Driver.SSI; Driver.SSI_no_ro_opt; Driver.S2PL ]
      ~warehouses:(if quick then 4 else 25)
      (fun mode -> timed mode duration)

(* Disk-bound configuration (paper: 150 warehouses, 36 clients, RAID
   array).  The SSI-without-read-only-optimization series is omitted, as
   in the paper's Figure 5b. *)
let fig5b ~quick =
  let duration = if quick then 5.0 else 20.0 in
  banner "Figure 5b: DBT-2++ throughput, disk-bound configuration (normalized to SI)"
  ^ dbt2_sweep ~quick
      ~modes:[ Driver.SI; Driver.SSI; Driver.S2PL ]
      ~warehouses:(if quick then 8 else 60)
      (fun mode ->
        {
          (timed mode duration) with
          Driver.workers = (if quick then 12 else 36);
          cpu_cores = 16;
          disks = 4;
          costs = Driver.disk_bound_costs;
        })

(* ---- Figure 6: RUBiS ----------------------------------------------------------- *)

(* RUBiS bidding mix: absolute throughput and serialization-failure rate
   for SI, SSI and S2PL. *)
let fig6 ~quick =
  let users = if quick then 100 else 400 in
  let items = if quick then 120 else 450 in
  let duration = if quick then 1.0 else 4.0 in
  let measurements =
    sweep
      ~modes:[ Driver.SI; Driver.SSI; Driver.S2PL ]
      ~points:[ 0. ]
      ~bench_of:(fun mode _ ->
        { (timed mode duration) with Driver.workers = 16; cpu_cores = 8 })
      ~setup_of:(fun _ -> Rubis.setup ~users ~items)
      ~specs_of:(fun _ -> Rubis.specs ~users ~items)
      ~label_of:(fun _ -> "bidding mix")
  in
  let header = [ "mode"; "throughput (tx/s)"; "serialization failures" ] in
  let rows =
    List.map
      (fun m ->
        [
          Driver.mode_name m.mode;
          Printf.sprintf "%.0f" m.result.Driver.throughput;
          Printf.sprintf "%.3f%%" (100. *. m.result.Driver.failure_rate);
        ])
      measurements
  in
  banner "Figure 6: RUBiS web application benchmark"
  ^ Printf.sprintf "Figure 6: RUBiS bidding mix\n%s" (Tablefmt.render ~header rows)

(* ---- §8.4: deferrable transactions ----------------------------------------------- *)

(* Latency to obtain a safe snapshot for DEFERRABLE transactions started
   once per simulated second while the DBT-2++ disk-bound workload (8%
   read-only) runs. *)
let defer ~quick =
  let samples = if quick then 15 else 60 in
  let warehouses = 10 and workers = 36 in
  let latencies = Stats.create () in
  ignore
    (Sim.run (fun () ->
         let cpu = Sim.resource ~capacity:8 in
         let disk = Sim.resource ~capacity:2 in
         let charging = ref false in
         let charge_cpu x = if !charging && x > 0. then Sim.use cpu x in
         let charge_io x = if !charging && x > 0. then Sim.use disk x in
         let config =
           {
             E.default_config with
             E.costs = Driver.disk_bound_costs;
             charge_cpu = Some charge_cpu;
             charge_io = Some charge_io;
           }
         in
         let db = E.create ~scheduler:Sim.scheduler ~config () in
         Tpcc.setup ~warehouses db;
         charging := true;
         let specs = Tpcc.specs ~warehouses ~ro_fraction:0.08 in
         let total_weight = List.fold_left (fun acc s -> acc +. s.Driver.weight) 0. specs in
         let t_end = Sim.now () +. (float_of_int samples *. 1.2) +. 5. in
         let running = ref true in
         for i = 1 to workers do
           let rng = Rng.make (1000 + i) in
           Sim.spawn (fun () ->
               while !running && Sim.now () < t_end do
                 let x = Rng.float rng total_weight in
                 let spec =
                   let rec go acc = function
                     | [] -> invalid_arg "empty mix"
                     | [ s ] -> s
                     | s :: rest ->
                         if acc +. s.Driver.weight > x then s else go (acc +. s.Driver.weight) rest
                   in
                   go 0. specs
                 in
                 try
                   E.retry ~isolation:E.Serializable ~read_only:spec.Driver.read_only db
                     (fun txn -> spec.Driver.body rng txn)
                 with E.Serialization_failure _ -> ()
               done)
         done;
         (* One deferrable transaction per simulated second (§8.4 used a
            one-second delay between them). *)
         Sim.spawn (fun () ->
             for _ = 1 to samples do
               let t0 = Sim.now () in
               E.with_txn ~read_only:true ~deferrable:true db (fun txn ->
                   ignore (E.read txn ~table:"warehouse" ~key:(Ssi_storage.Value.Int 1)));
               Stats.add latencies (Sim.now () -. t0);
               Sim.delay 1.0
             done;
             running := false)));
  banner "Deferrable transactions (§8.4): time to obtain a safe snapshot"
  ^ Printf.sprintf
      "Deferrable transactions (§8.4): safe-snapshot latency over %d samples\n\
       median %.2f s   90th percentile %.2f s   max %.2f s\n"
      (Stats.count latencies) (Stats.median latencies)
      (Stats.percentile latencies 0.9)
      (Stats.max_value latencies)

(* ---- Ablations ---------------------------------------------------------------------- *)

(* Three sweeps, each on DBT-2++ (5 warehouses) comparing SSI against SI
   at every point:
   - the SIREAD granularity-promotion threshold: aggressive promotion
     saves lock-table memory at the cost of false-positive aborts (§5.2.1,
     §6 technique 2).  TPC-C reads are partial (per-district,
     per-customer), so promoting its SIREAD locks creates false conflicts;
     SIBENCH would not discriminate because its queries read everything;
   - [max_committed_sxacts]: smaller tables force more summarization,
     trading memory for extra false positives (§6.2);
   - page-granularity vs next-key index-gap locking (§5.2.1 future work,
     implemented here): next-key gaps flag fewer false conflicts. *)
let abl ~quick =
  let duration = if quick then 1.0 else 2.0 in
  let warehouses = 5 in
  let ablation ~title ~x_header ~points ~ro_fraction ~label_of bench_of =
    banner title
    ^ render_ablation ~x_header
        (sweep ~modes:[ Driver.SI; Driver.SSI ] ~points
           ~bench_of:(fun mode x -> bench_of (timed mode duration) x)
           ~setup_of:(fun _ -> Tpcc.setup ~warehouses)
           ~specs_of:(fun _ -> Tpcc.specs ~warehouses ~ro_fraction)
           ~label_of)
  in
  let int_label x = string_of_int (int_of_float x) in
  (* Sequenced lets: the three sweeps run, and print, in this order. *)
  let promotion =
    ablation ~title:"Ablation: SIREAD granularity-promotion threshold (DBT-2++, SSI)"
      ~x_header:"locks before promotion" ~points:[ 1.; 2.; 4.; 16. ] ~ro_fraction:0.3
      ~label_of:int_label (fun b x ->
        let t = int_of_float x in
        {
          b with
          Driver.predlock =
            {
              Ssi_core.Predlock.max_tuple_locks_per_page = t;
              max_page_locks_per_relation = t;
              max_page_locks_per_index = t;
            };
        })
  in
  let summarization =
    ablation
      ~title:"Ablation: retained committed transactions before summarization (DBT-2++, SSI)"
      ~x_header:"max committed sxacts" ~points:[ 0.; 2.; 16.; 256. ] ~ro_fraction:0.08
      ~label_of:int_label (fun b x -> { b with Driver.max_committed_sxacts = int_of_float x })
  in
  let nextkey =
    ablation ~title:"Ablation: index-gap lock granularity (DBT-2++, SSI; §5.2.1 future work)"
      ~x_header:"gap locks" ~points:[ 0.; 1. ] ~ro_fraction:0.3
      ~label_of:(fun x -> if x > 0.5 then "next-key" else "page")
      (fun b x -> { b with Driver.next_key_gaps = x > 0.5 })
  in
  promotion ^ summarization ^ nextkey

(* ---- Durability: group commit --------------------------------------------------- *)

(* SIBENCH under SSI with a durable log attached, sweeping the group-commit
   flush interval: [0.] flushes synchronously on every append; longer
   intervals batch more commits per flush (higher throughput per fsync) at
   the cost of commit latency, which the latency table makes visible. *)
let walgroup ~quick =
  let duration = if quick then 1.0 else 3.0 in
  let intervals = if quick then [ 0.; 2e-4 ] else [ 0.; 5e-5; 2e-4; 1e-3 ] in
  let rows = 100 in
  let measurements =
    sweep ~modes:[ Driver.SSI ] ~points:intervals
      ~bench_of:(fun mode interval ->
        {
          (timed mode duration) with
          Driver.workers = 8;
          chaos =
            Some
              (fun db ->
                E.attach_wal db (Ssi_wal.Wal.create ~flush_interval:interval ()));
        })
      ~setup_of:(fun _ -> Sibench.setup ~rows)
      ~specs_of:(fun _ -> Sibench.specs ~rows ())
      ~label_of:(fun i ->
        if i = 0. then "sync" else Printf.sprintf "%.0fus" (1e6 *. i))
  in
  banner "Group commit: throughput vs commit latency across flush intervals (SIBENCH, SSI)"
  ^ render_latency ~title:"flush interval:" measurements
  ^ "(sync = flush on every append; longer intervals batch more commits per\n\
    \ flush and shift the cost into commit latency — see wal.group_commit_size)\n"

let all =
  [
    ("fig4", fig4);
    ("fig5a", fig5a);
    ("fig5b", fig5b);
    ("fig6", fig6);
    ("defer", defer);
    ("abl", abl);
    ("walgroup", walgroup);
  ]

(* ---- Machine-readable output (BENCH_<workload>.json) ------------------------------- *)

let isolation_name = function
  | E.Read_committed -> "read committed"
  | E.Repeatable_read -> "repeatable read"
  | E.Serializable -> "serializable"
  | E.Serializable_2pl -> "serializable (2PL)"

let bench_json ~workload ~duration measurements =
  let mode_obj m =
    let r = m.result in
    let abort_reasons =
      String.concat ","
        (List.map
           (fun (reason, n) ->
             Printf.sprintf "{\"reason\":\"%s\",\"count\":%d}" (Obs.json_escape reason) n)
           r.Driver.abort_reasons)
    in
    String.concat ""
      [
        "{";
        (* Mode key: sweeps whose points differ by x rather than by
           isolation mode (x_value set nonzero, e.g. the sharded preset's
           shard counts) key their summaries by x_label so comparisons
           match like against like.  Plain mode sweeps all carry
           x_value = 0 and keep the historical mode names, so committed
           baselines stay byte-identical. *)
        Printf.sprintf "\"mode\":\"%s\","
          (Obs.json_escape (if m.x_value <> 0. then m.x_label else Driver.mode_name m.mode));
        Printf.sprintf "\"isolation\":\"%s\","
          (isolation_name (Driver.isolation_of_mode m.mode));
        Printf.sprintf "\"x\":\"%s\"," (Obs.json_escape m.x_label);
        Printf.sprintf "\"committed\":%d," r.Driver.committed;
        Printf.sprintf "\"failures\":%d," r.Driver.failures;
        Printf.sprintf "\"throughput_tps\":%s," (Obs.json_float r.Driver.throughput);
        Printf.sprintf "\"failure_rate\":%s," (Obs.json_float r.Driver.failure_rate);
        Printf.sprintf "\"mean_latency_s\":%s," (Obs.json_float r.Driver.latency_mean);
        Printf.sprintf "\"p50_latency_s\":%s," (Obs.json_float r.Driver.latency_p50);
        Printf.sprintf "\"p95_latency_s\":%s," (Obs.json_float r.Driver.latency_p95);
        Printf.sprintf "\"p99_latency_s\":%s," (Obs.json_float r.Driver.latency_p99);
        Printf.sprintf "\"retries\":%d," r.Driver.retries;
        Printf.sprintf "\"ssi_conflicts\":%d," r.Driver.ssi_conflicts;
        Printf.sprintf "\"ssi_summarized\":%d," r.Driver.ssi_summarized;
        Printf.sprintf "\"ssi_safe_snapshots\":%d," r.Driver.ssi_safe_snapshots;
        Printf.sprintf "\"abort_reasons\":[%s]" abort_reasons;
        "}";
      ]
  in
  Printf.sprintf "{\"workload\":\"%s\",\"duration_s\":%s,\"modes\":[%s]}\n"
    (Obs.json_escape workload) (Obs.json_float duration)
    (String.concat "," (List.map mode_obj measurements))
