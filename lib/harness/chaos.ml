(* The fault-plan chaos run.  Its report queries commit transactions on
   the engines (row counts after a promotion) and so move the counters the
   later exposition and metrics file show: the report is rendered inside
   [run], in a fixed order, and is itself the outcome. *)

open Ssi_workload
module E = Ssi_engine.Engine
module F = Ssi_fault.Fault
module Replica = Ssi_replication.Replica
module Stream = Ssi_replication.Stream
module Net = Ssi_net.Net
module Sim = Ssi_sim.Sim
module Obs = Ssi_obs.Obs
module Scrape = Ssi_obs.Scrape
module Watchdog = Ssi_obs.Watchdog
module Certifier = Ssi_core.Certifier

type cfg = {
  seed : int;
  certifier : Certifier.kind;
  duration : float;
  workers : int;
  failover : bool;
  replicas : int;
  quorum : int option;
  partitions : int;
  net_chaos : int;
  explain : bool;
  trace_capacity : int option;
  alerts : bool;
  trace_out : string option;
  scrape_out : string option;
  metrics_out : string option;
}

type outcome = { report : string; exposition_ok : bool }

let header c =
  Printf.sprintf "chaos seed=%d certifier=%s horizon=%.1fs workers=%d replicas=%d" c.seed
    (Certifier.kind_to_string c.certifier)
    c.duration c.workers c.replicas

let row_count eng =
  E.with_txn eng (fun txn ->
      List.fold_left
        (fun acc t -> acc + List.length (E.seq_scan txn ~table:t ()))
        0 (E.table_names eng))

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let run c =
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  let f fmt = Format.fprintf ppf fmt in
  let print_promotion (p : Replica.promotion) =
    f "  failover           promoted at cseq %d: %d rows (safe snapshot), %d commits discarded@."
      p.Replica.promote_cseq (row_count p.Replica.engine) p.Replica.discarded_commits
  in
  let rows = 100 in
  let plan =
    F.gen_plan ~seed:c.seed ~horizon:c.duration ~failover:c.failover ~partitions:c.partitions
      ~net_chaos:c.net_chaos ()
  in
  f "fault plan:@.";
  List.iter (f "  %s@.") (F.describe plan);
  let log_lines = ref [] in
  let log s = log_lines := s :: !log_lines in
  let injector = F.injector ~seed:c.seed in
  let eng = ref None in
  let replica = ref None in
  let promoted = ref None in
  let net = ref None in
  let old_primary = ref None in
  let streamed = ref [] in
  let failed_over = ref None in
  let scr = ref None in
  let wd = ref None in
  let chaos db =
    eng := Some db;
    E.set_fault_injector db (Some (fun ~op -> F.hook injector ~op));
    if c.alerts || c.scrape_out <> None || c.metrics_out <> None then begin
      let s = Scrape.create ~capacity:64 (E.obs db) in
      scr := Some s;
      let replica_names = List.init c.replicas (fun i -> Printf.sprintf "r%d" (i + 1)) in
      wd :=
        Some
          (Watchdog.create s
             (Watchdog.default_rules
                ~certifier_prefix:(Certifier.kind_to_string c.certifier)
                ~replicas:replica_names ()));
      (* Past the workload horizon so the post-heal catch-up is scraped
         too. *)
      Scrape.run s ~interval:(c.duration /. 25.) ~until:(c.duration +. 0.1)
    end;
    if c.replicas = 0 then begin
      (* Direct mode: the replica hangs off the primary's in-process commit
         hook; network events in the plan are logged as skipped. *)
      let r = Replica.attach db in
      replica := Some r;
      let target = { F.engine = db; injector = Some injector; replica = Some r; fleet = []; net = None; net_ops = None } in
      let observer phase (ev : F.event) =
        match (phase, ev.F.kind) with
        | `After, F.Failover -> promoted := Some (Replica.promote r ~primary:db `Latest_safe)
        | _ -> ()
      in
      Sim.spawn (fun () -> F.execute ~observer target plan ~log)
    end
    else begin
      (* Streaming mode: WAL records cross a seeded adversarial network. *)
      let n = Net.create ~obs:(E.obs db) ~seed:c.seed () in
      net := Some n;
      let quorum = Option.map (fun k -> { Stream.k; deadline = 0.002 }) c.quorum in
      let p = Stream.make_primary n ~node:"p" ~epoch:1 ?quorum db in
      old_primary := Some p;
      let subs =
        List.init c.replicas (fun i ->
            let name = Printf.sprintf "r%d" (i + 1) in
            let core = Replica.create ~obs:(E.obs db) ~name () in
            Stream.subscribe n ~node:name ~primary_node:"p" ~epoch:1 core)
      in
      streamed := subs;
      let target = { F.engine = db; injector = Some injector; replica = None; fleet = []; net = Some n; net_ops = None } in
      let observer phase (ev : F.event) =
        match (phase, ev.F.kind) with
        | `After, F.Failover -> (
            match subs with
            | [] -> ()
            | first :: rest ->
                let fo = Stream.promote first ~schema_from:db ?quorum `Latest_safe in
                failed_over := Some fo;
                List.iter
                  (fun s ->
                    Stream.resubscribe s ~primary_node:(Stream.sub_node first)
                      ~epoch:(Stream.epoch fo.Stream.new_primary))
                  rest)
        | _ -> ()
      in
      Sim.spawn (fun () -> F.execute ~observer target plan ~log);
      (* After the workload horizon: heal every partition and drive the
         catch-up, so the run ends with converged replicas. *)
      Sim.spawn (fun () ->
          Sim.delay (c.duration +. 0.05);
          Net.heal_all n;
          let acting =
            match !failed_over with Some fo -> fo.Stream.new_primary | None -> p
          in
          Stream.retransmit_unacked acting;
          List.iter
            (fun s -> if Stream.sub_node s <> Stream.primary_node acting then Stream.sync s)
            subs)
    end
  in
  let bench =
    {
      Driver.default_bench with
      Driver.mode = Driver.SSI;
      certifier = c.certifier;
      workers = c.workers;
      duration = c.duration;
      warmup = 0.;
      seed = c.seed;
      chaos = Some chaos;
      trace_capacity = c.trace_capacity;
    }
  in
  let r = Driver.run ~setup:(Sibench.setup ~rows) ~specs:(Sibench.specs ~rows ()) bench in
  f "chaos log:@.";
  List.iter (f "  %s@.") (List.rev !log_lines);
  f "results:@.";
  f "  committed          %d (%.0f tx/s)@." r.Driver.committed r.Driver.throughput;
  f "  serialization fail %d, deadlocks %d@." r.Driver.failures r.Driver.deadlocks;
  f "  injected faults    %d@." r.Driver.injected_faults;
  f "  retries            %d, giveups %d@." r.Driver.retries r.Driver.giveups;
  f "  attempts/commit    %.2f@." r.Driver.attempts_per_commit;
  (match !replica with
  | Some rep ->
      f "  replica            applied cseq %d, safe cseq %d@." (Replica.applied_cseq rep)
        (Replica.last_safe_cseq rep)
  | None -> ());
  (match !promoted with Some p -> print_promotion p | None -> ());
  (match (!net, !old_primary) with
  | Some n, Some p ->
      let obs = E.obs (Stream.engine p) in
      f "network:@.";
      List.iter (fun (k, v) -> f "  %-18s %d@." k v) (Net.stats n);
      let acting = match !failed_over with Some fo -> fo.Stream.new_primary | None -> p in
      (* Captured before any report query commits on the acting primary. *)
      let acting_last = Stream.last_cseq acting in
      f "streaming:@.";
      f "  primary            %s (epoch %d), last cseq %d%s@." (Stream.primary_node acting)
        (Stream.epoch acting) acting_last
        (if Stream.is_deposed p && acting != p then "; old primary fenced" else "");
      (match !failed_over with
      | Some fo ->
          print_promotion fo.Stream.promotion;
          f "  fenced primary     deposed=%b@." (Stream.is_deposed p)
      | None -> ());
      List.iter
        (fun name -> f "  %-18s %d@." name (Obs.get_counter obs name))
        [
          "stream.wal_sent"; "stream.retransmits"; "stream.quorum_waits"; "stream.quorum_timeouts";
        ];
      List.iter
        (fun s ->
          let core = Stream.core s in
          if Stream.sub_node s <> Stream.primary_node acting then
            f "  %-18s applied cseq %d, safe cseq %d%s@." (Replica.name core)
              (Replica.applied_cseq core) (Replica.last_safe_cseq core)
              (if Replica.applied_cseq core >= acting_last then " (converged)" else " (behind)"))
        !streamed
  | _ -> ());
  let obs = match !eng with Some db -> E.obs db | None -> failwith "chaos: no engine" in
  if c.explain then begin
    f "explain:@.";
    Format.pp_print_string ppf (Explain.render obs)
  end;
  Option.iter
    (fun path ->
      write_file path (Obs.Spans.to_chrome_json obs);
      f "trace written to %s (%d spans retained, %d dropped)@." path
        (List.length (Obs.Spans.all obs))
        (Obs.Spans.dropped obs))
    c.trace_out;
  let exposition_ok = ref true in
  (match (!scr, !wd) with
  | Some s, Some w ->
      if c.alerts then begin
        let als = Watchdog.alerts w in
        f "alerts (%d):@." (List.length als);
        List.iter (fun a -> f "  %s@." (Watchdog.render_alert a)) als
      end;
      let om = Scrape.openmetrics obs in
      (match Scrape.validate_openmetrics om with
      | Ok families -> f "openmetrics: valid, %d families@." families
      | Error e ->
          f "openmetrics: INVALID (%s)@." e;
          exposition_ok := false);
      Option.iter
        (fun path ->
          write_file path (Scrape.to_jsonl s);
          f "time series written to %s (%d windows retained)@." path
            (List.length (Scrape.windows s)))
        c.scrape_out;
      Option.iter
        (fun path ->
          write_file path om;
          f "openmetrics written to %s@." path)
        c.metrics_out
  | _ -> ());
  { report = Buffer.contents buf; exposition_ok = !exposition_ok }

let ok o = o.exposition_ok
let pp ppf o = Format.pp_print_string ppf o.report
