(* The acceptance scenario for partition-tolerant WAL streaming: a seeded
   chaos run in which the network drops/duplicates/reorders traffic, a
   partition isolates the primary, a replica is promoted behind its back
   (fenced failover at a higher epoch), and the partition heals.

   Checked invariants:
   - the surviving lineage — the old primary's commit prefix the promoted
     replica had applied, followed by every commit on the new primary — has
     an acyclic serialization graph (the DSG oracle);
   - the deposed primary is fenced on first contact after the heal, its
     post-heal commit attempts are refused, and none of its
     partition-era writes appear anywhere in the new era;
   - all replicas converge to a byte-identical copy of the acting
     primary's state;
   - the entire outcome — chaos log, lineage, final state and counters —
     replays byte for byte from the seed. *)

open Ssi_storage
module E = Ssi_engine.Engine
module R = Ssi_replication.Replica
module Stream = Ssi_replication.Stream
module Net = Ssi_net.Net
module Obs = Ssi_obs.Obs
module Sim = Ssi_sim.Sim
module F = Ssi_fault.Fault
module Rng = Ssi_util.Rng
module Oracle = Ssi_oracle.Oracle
module Scenario = Ssi_harness.Scenario

let vi i = Value.Int i
let table = "kv"
let keys = 16
let workers = 4
let txns_per_worker = 60

(* New-era transactions are offset into a disjoint id space so one oracle
   history can span the failover: stamps written before and after the
   promotion never collide. *)
let era_offset = 1_000_000

type scenario_result = {
  lineage : Oracle.committed list;  (** old-era prefix ++ new-era commits *)
  cycle : int list option;
  final_rows : (int * int) list;  (** acting primary's state, sorted *)
  r2_rows : (int * int) list;
  promote_cseq : int;
  discarded : int;
  old_deposed : bool;
  fenced_refusals : int;  (** commit attempts refused by the fence *)
  old_commits_total : int;
  new_commits_total : int;
  chaos_log : string list;
  partition_drops : int;
}

let sorted_rows scan =
  List.sort compare (List.map (fun r -> (Value.as_int r.(0), Value.as_int r.(1))) scan)

(* A worker transaction: random point reads and writes, every write
   stamped with the transaction's era-qualified id, as the oracle
   requires. *)
let txn_body rng off t =
  let reads = ref [] and writes = ref [] in
  let me = off + E.xid t in
  for _ = 1 to 4 do
    let k = Rng.int rng keys in
    if Rng.chance rng 0.5 then begin
      let wrote =
        E.update t ~table ~key:(vi k) ~f:(fun row -> [| row.(0); vi me |])
        ||
        try
          E.insert t ~table [| vi k; vi me |];
          true
        with E.Duplicate_key _ -> false
      in
      if wrote then writes := k :: !writes
    end
    else begin
      let version =
        match E.read t ~table ~key:(vi k) with Some row -> Value.as_int row.(1) | None -> 0
      in
      reads := (k, version) :: !reads
    end
  done;
  (List.rev !reads, List.rev !writes)

let run_scenario seed =
  let costs =
    { E.zero_costs with E.cpu_per_op = 60e-6; cpu_per_tuple = 3e-6; io_commit = 30e-6 }
  in
  let config = { E.default_config with E.costs } in
  let db = E.create ~scheduler:Sim.scheduler ~config () in
  let net = Net.create ~obs:(E.obs db) ~seed () in
  (* xid -> cseq per engine, so log entries can be ordered and the lineage
     cut exactly at the promotion point. *)
  let old_cseq = Hashtbl.create 512 in
  let new_cseq = Hashtbl.create 512 in
  let old_log = ref [] in
  let new_log = ref [] in
  let current = ref None in (* set after failover: (engine, offset) *)
  let failed_over = ref None in
  let old_p = ref None in
  let s2_ref = ref None in
  let fenced_refusals = ref 0 in
  let chaos_lines = ref [] in
  let plan =
    {
      F.seed;
      events =
        [
          { F.at = 0.02; kind = F.Net_chaos { drop = 0.08; dup = 0.08; reorder = 0.15; duration = 0.06 } };
          { F.at = 0.05; kind = F.Partition { victim = 0; duration = 0.03 } };
          { F.at = 0.06; kind = F.Failover };
        ];
    }
  in
  ignore
    (Sim.run (fun () ->
         E.create_table db ~name:table ~cols:[ "k"; "writer" ] ~key:"k";
         E.with_txn db (fun t ->
             (* The oracle treats xid 1 as the seed writer. *)
             assert (E.xid t = 1);
             for k = 0 to (keys / 2) - 1 do
               E.insert t ~table [| vi k; vi (E.xid t) |]
             done);
         E.set_on_commit db (fun r -> Hashtbl.replace old_cseq r.E.wal_xid r.E.wal_cseq);
         let p = Stream.make_primary net ~node:"p" ~epoch:1 db in
         old_p := Some p;
         let c1 = R.create ~obs:(E.obs db) ~name:"r1" () in
         let c2 = R.create ~obs:(E.obs db) ~name:"r2" () in
         let s1 = Stream.subscribe net ~node:"r1" ~primary_node:"p" ~epoch:1 c1 in
         let s2 = Stream.subscribe net ~node:"r2" ~primary_node:"p" ~epoch:1 c2 in
         s2_ref := Some s2;
         let observer phase (ev : F.event) =
           match (phase, ev.F.kind) with
           | `After, F.Failover ->
               let fo = Stream.promote s1 ~schema_from:db `Latest_applied in
               failed_over := Some fo;
               let ne = fo.Stream.new_primary in
               E.set_on_commit (Stream.engine ne) (fun r ->
                   Hashtbl.replace new_cseq r.E.wal_xid r.E.wal_cseq);
               Stream.resubscribe s2 ~primary_node:(Stream.sub_node s1)
                 ~epoch:(Stream.epoch ne);
               current := Some (Stream.engine ne, era_offset)
           | _ -> ()
         in
         Sim.spawn (fun () ->
             F.execute ~observer
               { F.engine = db; injector = None; replica = None; fleet = []; net = Some net; net_ops = None }
               plan
               ~log:(fun l -> chaos_lines := l :: !chaos_lines));
         for w = 1 to workers do
           (* Worker [workers] stays pinned to the original primary: the
              deposed node's clients, still writing through the partition
              and after the heal. *)
           let pinned = w = workers in
           let rng = Rng.make (Hashtbl.hash (seed, w)) in
           Sim.spawn (fun () ->
               for _ = 1 to txns_per_worker do
                 let eng, off =
                   if pinned then (db, 0)
                   else match !current with Some c -> c | None -> (db, 0)
                 in
                 (try
                    let xid = ref 0 and body = ref ([], []) in
                    E.with_txn ~isolation:E.Serializable eng (fun t ->
                        xid := E.xid t;
                        body := txn_body rng off t);
                    let reads, writes = !body in
                    let cseq = Hashtbl.find (if off = 0 then old_cseq else new_cseq) !xid in
                    let entry =
                      { Oracle.xid = off + !xid; reads; writes; order = off + cseq }
                    in
                    if off = 0 then old_log := entry :: !old_log
                    else new_log := entry :: !new_log
                  with
                 | E.Serialization_failure _ -> ()
                 | E.Transient_fault { reason; _ } ->
                     if String.length reason >= 7 && String.sub reason 0 7 = "primary" then
                       incr fenced_refusals);
                 Sim.delay (Rng.float rng 0.003)
               done)
         done;
         (* Quiesce well past the last worker, then drive the catch-up. *)
         Sim.at ~after:0.5 (fun () ->
             Net.set_chaos net ~drop:0. ~duplicate:0. ~reorder:0. ();
             Net.heal_all net;
             match !failed_over with
             | None -> ()
             | Some fo ->
                 let np = fo.Stream.new_primary in
                 let rounds = ref 0 in
                 while
                   R.applied_cseq c2 < Stream.last_cseq np && !rounds < 100
                 do
                   incr rounds;
                   Stream.retransmit_unacked np;
                   Sim.delay 0.01
                 done)));
  let fo = match !failed_over with Some fo -> fo | None -> Alcotest.fail "no failover ran" in
  let np = fo.Stream.new_primary in
  let promote_cseq = fo.Stream.promotion.R.promote_cseq in
  (* The surviving lineage: commits the promoted replica had applied,
     followed by everything committed on the new primary. *)
  let lineage =
    List.filter (fun (e : Oracle.committed) -> e.order <= promote_cseq) (List.rev !old_log)
    @ List.rev !new_log
  in
  let final_rows =
    sorted_rows (E.with_txn (Stream.engine np) (fun t -> E.seq_scan t ~table ()))
  in
  let r2 = match !s2_ref with Some s -> Stream.core s | None -> assert false in
  {
    lineage;
    cycle = Oracle.find_cycle (Oracle.edges_of { Oracle.committed = lineage });
    final_rows;
    r2_rows = sorted_rows (R.scan (R.begin_read r2 `Latest_applied) ~table ());
    promote_cseq;
    discarded = fo.Stream.promotion.R.discarded_commits;
    old_deposed = (match !old_p with Some p -> Stream.is_deposed p | None -> false);
    fenced_refusals = !fenced_refusals;
    old_commits_total = List.length !old_log;
    new_commits_total = List.length !new_log;
    chaos_log = List.rev !chaos_lines;
    partition_drops = List.assoc "net.partition_drops" (Net.stats net);
  }

(* The scenario keyed by its seed; the runner's double run is the replay
   check. *)
module Failover = struct
  type cfg = int
  type outcome = scenario_result

  let header seed = Printf.sprintf "partition-failover-heal seed=%d" seed
  let run = run_scenario
  let ok r = r.cycle = None && r.r2_rows = r.final_rows
  let pp ppf r = List.iter (Format.fprintf ppf "%s@.") r.chaos_log
end

let test_acceptance () =
  let r = run_scenario 1234 in
  Alcotest.(check bool) "old era produced commits" true (r.old_commits_total > 0);
  Alcotest.(check bool) "new era produced commits" true (r.new_commits_total > 0);
  Alcotest.(check bool) "partition actually cut traffic" true (r.partition_drops > 0);
  Alcotest.(check bool) "promotion found a prefix" true (r.promote_cseq > 0);
  (match r.cycle with
  | None -> ()
  | Some c ->
      Alcotest.failf "serialization cycle across the failover lineage: %s"
        (String.concat " -> " (List.map string_of_int c)));
  Alcotest.(check bool) "old primary saw it was deposed" true r.old_deposed;
  Alcotest.(check bool) "fenced primary refused post-heal commits" true
    (r.fenced_refusals > 0);
  (* Zero accepted writes from the fenced era: every old-era stamp in the
     surviving state belongs to the promoted prefix. *)
  List.iter
    (fun (k, stamp) ->
      if stamp <> 0 && stamp <> 1 && stamp < era_offset then
        let in_prefix =
          List.exists
            (fun (e : Oracle.committed) -> e.Oracle.xid = stamp && e.order <= r.promote_cseq)
            r.lineage
        in
        if not in_prefix then
          Alcotest.failf "key %d carries fenced-era stamp %d" k stamp)
    r.final_rows;
  Alcotest.(check bool) "replica converged byte-identically" true
    (r.r2_rows = r.final_rows)

let test_deterministic_replay () =
  let _, identical = Scenario.replays (module Failover) 777 in
  Alcotest.(check bool) "whole outcome replays byte for byte" true identical

let test_seed_matrix () =
  (* A small in-test matrix: the scenario's invariants hold across seeds,
     not just a lucky one.  CI runs a wider sweep via `pg_ssi chaos`. *)
  List.iter
    (fun seed ->
      let r = run_scenario seed in
      (match r.cycle with
      | None -> ()
      | Some _ -> Alcotest.failf "seed %d: lineage has a serialization cycle" seed);
      if r.r2_rows <> r.final_rows then Alcotest.failf "seed %d: replica diverged" seed)
    [ 2; 3; 5; 8 ]

let () =
  Alcotest.run "net-chaos"
    [
      ( "partition-failover-heal",
        [
          Alcotest.test_case "acceptance scenario" `Quick test_acceptance;
          Alcotest.test_case "deterministic replay" `Quick test_deterministic_replay;
          Alcotest.test_case "seed matrix" `Quick test_seed_matrix;
        ] );
    ]
