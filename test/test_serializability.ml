open Ssi_oracle
(* Random-history serializability checking (see oracle.ml).

   - SSI histories must always be serializable (the paper's core claim);
   - S2PL histories must always be serializable (baseline sanity);
   - snapshot-isolation histories must exhibit at least one cycle across
     the seed sweep, which validates that the oracle can detect anomalies
     at all. *)

module E = Ssi_engine.Engine

let seeds = List.init 40 (fun i -> i + 1)

let run_seed ~isolation ?(cfg = Oracle.default_cfg) seed =
  let cfg = { cfg with Oracle.seed } in
  let history = Oracle.run_history ~isolation cfg in
  (history, Oracle.check_serializable history)

let assert_all_serializable ~isolation ?cfg () =
  List.iter
    (fun seed ->
      let history, verdict = run_seed ~isolation ?cfg seed in
      match verdict with
      | Ok () -> ()
      | Error cycle ->
          Alcotest.failf "seed %d produced a non-serializable history:\n%s" seed
            (Oracle.pp_cycle history cycle))
    seeds

let test_ssi_serializable () = assert_all_serializable ~isolation:E.Serializable ()
let test_s2pl_serializable () = assert_all_serializable ~isolation:E.Serializable_2pl ()

let test_ssi_contended () =
  assert_all_serializable ~isolation:E.Serializable ~cfg:Oracle.contended_cfg ()

let test_ssi_summarizing () =
  (* Forcing summarization after every committed transaction must lose no
     conflicts: extra false positives are allowed, missed anomalies are
     not. *)
  assert_all_serializable ~isolation:E.Serializable ~cfg:Oracle.summarizing_cfg ()

let test_s2pl_contended () =
  assert_all_serializable ~isolation:E.Serializable_2pl ~cfg:Oracle.contended_cfg ()

let test_ssi_nextkey () =
  (* Next-key index-gap locking (§5.2.1 future work) must lose no
     anomalies relative to page-granularity locking. *)
  assert_all_serializable ~isolation:E.Serializable ~cfg:Oracle.nextkey_cfg ()

let test_si_shows_anomalies () =
  let cycles =
    List.fold_left
      (fun acc seed ->
        match run_seed ~isolation:E.Repeatable_read seed with
        | _, Ok () -> acc
        | _, Error _ -> acc + 1)
      0 seeds
  in
  Alcotest.(check bool)
    (Printf.sprintf "snapshot isolation produced %d cyclic histories" cycles)
    true (cycles > 0)

let test_read_committed_worse () =
  (* Sanity: the checker also flags READ COMMITTED histories (which are
     weaker than SI). *)
  let cycles =
    List.fold_left
      (fun acc seed ->
        match run_seed ~isolation:E.Read_committed seed with
        | _, Ok () -> acc
        | _, Error _ -> acc + 1)
      0 seeds
  in
  Alcotest.(check bool) "read committed produced cycles" true (cycles > 0)

let () =
  Alcotest.run "serializability"
    [
      ( "oracle",
        [
          Alcotest.test_case "SSI histories are serializable" `Slow test_ssi_serializable;
          Alcotest.test_case "SSI under high contention" `Slow test_ssi_contended;
          Alcotest.test_case "SSI with constant summarization" `Slow test_ssi_summarizing;
          Alcotest.test_case "SSI with next-key gap locking" `Slow test_ssi_nextkey;
          Alcotest.test_case "S2PL histories are serializable" `Slow test_s2pl_serializable;
          Alcotest.test_case "S2PL under high contention" `Slow test_s2pl_contended;
          Alcotest.test_case "SI histories show anomalies" `Slow test_si_shows_anomalies;
          Alcotest.test_case "RC histories show anomalies" `Slow test_read_committed_worse;
        ] );
    ]
