(* The CERTIFIER interface admits three serializability certifiers: the
   paper's SSI, and the SSN / ESSN watermark certifiers (pstamp/sstamp
   exclusion windows).  SSI's behavior through the interface is pinned by
   the byte-identical replay property in test_perf; this suite holds the
   other two instances to the same machinery:

   - seeded oracle histories replay byte-identically and their committed
     multiversion serialization graphs stay acyclic (the DSG oracle);
   - kill-point recovery torture keeps every durability invariant and the
     combined pre/post-crash history serializable;
   - the Figure 1 write skew is prevented;
   - DEFERRABLE, which depends on SSI's safe-snapshot machinery, is
     cleanly rejected by the watermark certifiers. *)

open Ssi_storage
open Ssi_oracle
module E = Ssi_engine.Engine
module Certifier = Ssi_core.Certifier
module T = Ssi_fault.Torture

let certifiers = [ (Certifier.SSN, "SSN"); (Certifier.ESSN, "ESSN") ]

(* ---- Oracle histories: byte-identical replay, acyclic DSG ------------------ *)

let oracle_cfgs =
  [|
    ("default", Oracle.default_cfg);
    ("contended", Oracle.contended_cfg);
    ("summarizing", Oracle.summarizing_cfg);
    ("nextkey", Oracle.nextkey_cfg);
  |]

let prop_replay_and_dsg kind name =
  QCheck.Test.make
    ~name:(name ^ " histories replay byte-identically and stay serializable")
    ~count:16
    QCheck.(
      make
        ~print:(fun (seed, ci) ->
          Printf.sprintf "seed=%d cfg=%s" seed (fst oracle_cfgs.(ci)))
        Gen.(pair (int_range 1 10_000) (int_range 0 (Array.length oracle_cfgs - 1))))
    (fun (seed, ci) ->
      let _, cfg = oracle_cfgs.(ci) in
      let cfg = { cfg with Oracle.seed; certifier = kind } in
      let h1 = Oracle.run_history ~isolation:E.Serializable cfg in
      let h2 = Oracle.run_history ~isolation:E.Serializable cfg in
      if h1.Oracle.committed <> h2.Oracle.committed then
        QCheck.Test.fail_report "same seed produced different committed histories";
      match Oracle.check_serializable h1 with
      | Ok () -> true
      | Error cycle -> QCheck.Test.fail_report (Oracle.pp_cycle h1 cycle))

(* ---- Kill-point recovery torture ------------------------------------------- *)

let history_of (o : T.cycle) =
  {
    Oracle.committed =
      List.map
        (fun (l : T.txn_log) ->
          { Oracle.xid = l.T.l_xid; reads = l.T.l_reads; writes = l.T.l_writes; order = l.T.l_cseq })
        o.T.o_history;
  }

let check_outcome name (o : T.cycle) =
  let tag = Printf.sprintf "%s seed=%d kill=%d: " name o.T.o_seed o.T.o_kill_point in
  Alcotest.(check bool) (tag ^ "durability invariants hold") true (T.invariants_ok o);
  match Oracle.check_serializable (history_of o) with
  | Ok () -> ()
  | Error cycle ->
      Alcotest.failf "%scombined history not serializable:\n%s" tag
        (Oracle.pp_cycle (history_of o) cycle)

let test_torture kind name () =
  let outcomes =
    List.concat_map
      (fun (seed, with_damage) ->
        (T.run
           { T.default_cfg with T.seed; certifier = kind; max_kills = 5; kill_every = 7; with_damage })
          .T.cycles)
      [ (11, false); (23, true) ]
  in
  List.iter (check_outcome name) outcomes;
  Alcotest.(check bool) (name ^ ": at least one cycle crashed mid-workload") true
    (List.exists (fun o -> o.T.o_crashed) outcomes)

(* ---- Figure 1 write skew ---------------------------------------------------- *)

let db_with kind = E.create ~config:{ E.default_config with E.certifier = kind } ()

let setup_doctors kind =
  let db = db_with kind in
  E.create_table db ~name:"doctors" ~cols:[ "name"; "oncall" ] ~key:"name";
  E.with_txn db (fun t ->
      E.insert t ~table:"doctors" [| Value.Str "alice"; Value.Bool true |];
      E.insert t ~table:"doctors" [| Value.Str "bob"; Value.Bool true |]);
  db

let oncall_count txn =
  List.length
    (E.seq_scan txn ~table:"doctors" ~filter:(fun row -> Value.as_bool row.(1)) ())

let take_off_call txn name =
  if oncall_count txn >= 2 then
    ignore
      (E.update txn ~table:"doctors" ~key:(Value.Str name) ~f:(fun row ->
           [| row.(0); Value.Bool false |]))

let test_write_skew kind name () =
  let db = setup_doctors kind in
  let t1 = E.begin_txn db in
  let t2 = E.begin_txn db in
  take_off_call t1 "alice";
  take_off_call t2 "bob";
  let o1 = (try E.commit t1; `Committed with E.Serialization_failure _ -> `Failed) in
  let o2 = (try E.commit t2; `Committed with E.Serialization_failure _ -> `Failed) in
  Alcotest.(check bool) (name ^ ": exactly one transaction fails") true
    ((o1 = `Committed) <> (o2 = `Committed));
  Alcotest.(check int)
    (name ^ ": invariant holds, one doctor on call")
    1
    (E.with_txn db (fun t -> oncall_count t))

(* ---- DEFERRABLE needs SSI's safe snapshots ---------------------------------- *)

let test_deferrable_rejected kind name () =
  let db = db_with kind in
  match E.begin_txn ~read_only:true ~deferrable:true db with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s: DEFERRABLE accepted without safe-snapshot support" name

let test_kind_reported kind name () =
  let db = db_with kind in
  Alcotest.(check string)
    (name ^ ": engine reports the configured certifier")
    (String.lowercase_ascii name)
    (Certifier.kind_to_string (E.certifier_kind db))

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "certifier"
    [
      qsuite "oracle"
        (List.map (fun (k, n) -> prop_replay_and_dsg k n) certifiers);
      ( "torture",
        List.map
          (fun (k, n) ->
            Alcotest.test_case (n ^ " kill-point sweep") `Quick (test_torture k n))
          certifiers );
      ( "anomalies",
        List.map
          (fun (k, n) ->
            Alcotest.test_case (n ^ " prevents write skew") `Quick (test_write_skew k n))
          ((Certifier.SSI, "SSI") :: certifiers) );
      ( "interface",
        List.map
          (fun (k, n) ->
            Alcotest.test_case (n ^ " rejects DEFERRABLE") `Quick
              (test_deferrable_rejected k n))
          certifiers
        @ List.map
            (fun (k, n) ->
              Alcotest.test_case (n ^ " kind threaded") `Quick (test_kind_reported k n))
            ((Certifier.SSI, "SSI") :: certifiers) );
    ]
