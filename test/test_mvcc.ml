(* MVCC: commit log, snapshots and tuple visibility — including the
   rw-conflict information extracted during visibility checks (§5.2). *)

open Ssi_storage
module Mvcc = Ssi_mvcc.Mvcc
module Clog = Mvcc.Clog
module Snapshot = Mvcc.Snapshot
module Visibility = Mvcc.Visibility

let schema = Schema.make ~name:"t" ~cols:[ "k"; "v" ] ~key:"k"
let row k = [| Value.Int k; Value.Int 0 |]

(* ---- Clog ------------------------------------------------------------------ *)

let test_clog_lifecycle () =
  let c = Clog.create () in
  let x1 = Clog.new_xid c and x2 = Clog.new_xid c in
  Alcotest.(check bool) "distinct xids" true (x1 <> x2);
  Alcotest.(check bool) "in progress" true (Clog.status c x1 = Clog.In_progress);
  let cs1 = Clog.commit c x1 in
  Clog.abort c x2;
  Alcotest.(check bool) "committed" true (Clog.status c x1 = Clog.Committed cs1);
  Alcotest.(check bool) "aborted" true (Clog.status c x2 = Clog.Aborted);
  Alcotest.(check bool) "is_committed" true (Clog.is_committed c x1);
  Alcotest.(check bool) "aborted not committed" false (Clog.is_committed c x2);
  Alcotest.(check int) "commit_cseq" cs1 (Clog.commit_cseq c x1);
  Alcotest.(check int) "commit_cseq of aborted" Mvcc.invalid_cseq (Clog.commit_cseq c x2)

let test_clog_cseq_monotone () =
  let c = Clog.create () in
  let xs = List.init 5 (fun _ -> Clog.new_xid c) in
  let cseqs = List.map (Clog.commit c) xs in
  Alcotest.(check (list int)) "monotone" (List.sort compare cseqs) cseqs

let test_clog_double_resolution () =
  let c = Clog.create () in
  let x = Clog.new_xid c in
  ignore (Clog.commit c x);
  Alcotest.check_raises "commit twice"
    (Invalid_argument "Clog.commit: transaction already resolved") (fun () ->
      ignore (Clog.commit c x));
  Alcotest.check_raises "abort after commit"
    (Invalid_argument "Clog.abort: transaction already resolved") (fun () -> Clog.abort c x)

let test_clog_unknown () =
  let c = Clog.create () in
  Alcotest.check_raises "unknown xid" (Invalid_argument "Clog.status: unknown xid 99")
    (fun () -> ignore (Clog.status c 99))

(* ---- Snapshots ---------------------------------------------------------------- *)

let test_snapshot_sees () =
  let c = Clog.create () in
  let writer = Clog.new_xid c in
  ignore (Clog.commit c writer);
  let reader = Clog.new_xid c in
  let snap = Snapshot.take c ~owner:reader in
  let late_writer = Clog.new_xid c in
  ignore (Clog.commit c late_writer);
  Alcotest.(check bool) "sees earlier commit" true (Snapshot.sees_xid c snap writer);
  Alcotest.(check bool) "does not see later commit" false
    (Snapshot.sees_xid c snap late_writer);
  Alcotest.(check bool) "sees itself" true (Snapshot.sees_xid c snap reader)

(* ---- Visibility ----------------------------------------------------------------- *)

type verdict = Visible of int option | Invisible of int option

(* The walk's verdict on a version with no older versions: visible, with
   its deleter conflict, or invisible, with the creator read around. *)
let walk_verdict c snap (t : Heap.tuple) =
  let around = ref [] in
  match Visibility.visible c snap ~around:(fun w -> around := w :: !around) (Some t) with
  | Some v ->
      let d = Visibility.deleter c snap v in
      Visible (if d = Heap.invalid_xid then None else Some d)
  | None -> Invisible (match !around with [ w ] -> Some w | _ -> None)

(* A tiny fixture: [committed_before] is a committed transaction visible in
   the snapshot; [concurrent] is one that commits after it. *)
let fixture () =
  let c = Clog.create () in
  let heap = Heap.create schema in
  let before = Clog.new_xid c in
  ignore (Clog.commit c before);
  let reader = Clog.new_xid c in
  let snap = Snapshot.take c ~owner:reader in
  (c, heap, before, reader, snap)

let test_visible_plain () =
  let c, heap, before, _, snap = fixture () in
  let t = Heap.insert_version heap ~key:(Value.Int 1) ~row:(row 1) ~xmin:before in
  Alcotest.(check bool) "visible, no conflict" true
    (walk_verdict c snap t = Visible None)

let test_invisible_future_creator () =
  let c, heap, _, _, snap = fixture () in
  let w = Clog.new_xid c in
  let t = Heap.insert_version heap ~key:(Value.Int 1) ~row:(row 1) ~xmin:w in
  (* In-progress creator: invisible, and a conflict out to the creator. *)
  Alcotest.(check bool) "in-progress creator conflicts" true
    (walk_verdict c snap t = Invisible (Some w));
  ignore (Clog.commit c w);
  Alcotest.(check bool) "committed-after-snapshot creator conflicts" true
    (walk_verdict c snap t = Invisible (Some w))

let test_invisible_aborted_creator () =
  let c, heap, _, _, snap = fixture () in
  let w = Clog.new_xid c in
  Clog.abort c w;
  let t = Heap.insert_version heap ~key:(Value.Int 1) ~row:(row 1) ~xmin:w in
  Alcotest.(check bool) "aborted creator: no conflict" true
    (walk_verdict c snap t = Invisible None)

let test_visible_with_concurrent_deleter () =
  let c, heap, before, _, snap = fixture () in
  let t = Heap.insert_version heap ~key:(Value.Int 1) ~row:(row 1) ~xmin:before in
  let deleter = Clog.new_xid c in
  Heap.set_xmax t deleter;
  Alcotest.(check bool) "still visible, conflict out to deleter" true
    (walk_verdict c snap t = Visible (Some deleter));
  ignore (Clog.commit c deleter);
  Alcotest.(check bool) "deleter committed after snapshot: same" true
    (walk_verdict c snap t = Visible (Some deleter))

let test_deleted_before_snapshot () =
  let c = Clog.create () in
  let heap = Heap.create schema in
  let creator = Clog.new_xid c in
  ignore (Clog.commit c creator);
  let deleter = Clog.new_xid c in
  let t = Heap.insert_version heap ~key:(Value.Int 1) ~row:(row 1) ~xmin:creator in
  Heap.set_xmax t deleter;
  ignore (Clog.commit c deleter);
  let reader = Clog.new_xid c in
  let snap = Snapshot.take c ~owner:reader in
  Alcotest.(check bool) "cleanly deleted: invisible, no conflict" true
    (walk_verdict c snap t = Invisible None)

let test_own_writes () =
  let c, heap, _, reader, snap = fixture () in
  let t = Heap.insert_version heap ~key:(Value.Int 1) ~row:(row 1) ~xmin:reader in
  Alcotest.(check bool) "own insert visible" true
    (walk_verdict c snap t = Visible None);
  Heap.set_xmax t reader;
  Alcotest.(check bool) "own delete invisible" true
    (walk_verdict c snap t = Invisible None)

let test_aborted_deleter_ignored () =
  let c, heap, before, _, snap = fixture () in
  let t = Heap.insert_version heap ~key:(Value.Int 1) ~row:(row 1) ~xmin:before in
  let deleter = Clog.new_xid c in
  Heap.set_xmax t deleter;
  Clog.abort c deleter;
  Alcotest.(check bool) "aborted deleter: visible, no conflict" true
    (walk_verdict c snap t = Visible None)

(* Run the walk from the chain head, collecting the writers read around. *)
let walk c snap head =
  let around = ref [] in
  let v = Visibility.visible c snap ~around:(fun w -> around := w :: !around) (Some head) in
  (v, List.rev !around)

let test_latest_visible_walk () =
  let c, heap, before, _, snap = fixture () in
  (* Chain: v1 (visible) <- v2 (concurrent writer w). *)
  let v1 = Heap.insert_version heap ~key:(Value.Int 1) ~row:(row 1) ~xmin:before in
  let w = Clog.new_xid c in
  Heap.set_xmax v1 w;
  let v2 = Heap.insert_version heap ~key:(Value.Int 1) ~row:(row 1) ~xmin:w in
  ignore (Clog.commit c w);
  match walk c snap v2 with
  | Some t, around ->
      Alcotest.(check bool) "found the old version" true (t == v1);
      Alcotest.(check int) "deleter conflict" w (Visibility.deleter c snap t);
      Alcotest.(check (list int)) "creator conflict reported on the way" [ w ] around
  | None, _ -> Alcotest.fail "no visible version"

let test_latest_visible_none () =
  let c, heap, _, _, snap = fixture () in
  let w = Clog.new_xid c in
  let v = Heap.insert_version heap ~key:(Value.Int 1) ~row:(row 1) ~xmin:w in
  ignore (Clog.commit c w);
  match walk c snap v with
  | None, around -> Alcotest.(check (list int)) "conflict out" [ w ] around
  | Some _, _ -> Alcotest.fail "should be invisible"

(* ---- Walk equivalence with the version-at-a-time reference ----------------------- *)

(* The semantics the walk replaced, one version at a time: a verdict per
   version, and a chain walk that collects the read-around creators into
   a list and returns the visible version with its deleter conflict. *)
module Reference = struct
  let conflict_writer c (snap : Snapshot.t) w =
    if w = Heap.invalid_xid || w = snap.owner then None
    else
      match Clog.status c w with
      | Clog.Aborted -> None
      | Clog.In_progress -> Some w
      | Clog.Committed cs -> if cs >= snap.horizon then Some w else None

  let check c (snap : Snapshot.t) (t : Heap.tuple) =
    if Snapshot.sees_xid c snap t.xmin then
      if t.xmax = Heap.invalid_xid then Visible None
      else if t.xmax = snap.owner then Invisible None
      else if Snapshot.sees_xid c snap t.xmax then Invisible None
      else Visible (conflict_writer c snap t.xmax)
    else Invisible (conflict_writer c snap t.xmin)

  let latest_visible c snap head =
    let rec go (v : Heap.tuple option) conflicts =
      match v with
      | None -> (None, List.rev conflicts)
      | Some t -> (
          match check c snap t with
          | Visible deleter -> (Some (t, deleter), List.rev conflicts)
          | Invisible (Some w) -> go t.prev (w :: conflicts)
          | Invisible None -> go t.prev conflicts)
    in
    go (Some head) []
end

(* A writer's fate relative to the reader's snapshot. *)
type fate = Before | After | Running | Aborted | Own

let fate_gen = QCheck.Gen.oneofl [ Before; After; Running; Aborted; Own ]

let print_fate = function
  | Before -> "before"
  | After -> "after"
  | Running -> "running"
  | Aborted -> "aborted"
  | Own -> "own"

(* A chain, oldest version first: each version's creator and deleter as
   indexes into the writer fates ([None]: no deleter). *)
let chain_arb =
  let open QCheck in
  let writers = Gen.list_size (Gen.int_range 1 5) fate_gen in
  let version n = Gen.(pair (int_bound (n - 1)) (opt (int_bound (n - 1)))) in
  make
    ~print:Print.(pair (list print_fate) (list (pair int (option int))))
    Gen.(
      writers >>= fun ws ->
      pair (return ws) (list_size (int_range 1 6) (version (List.length ws))))

let prop_walk_matches_reference =
  QCheck.Test.make ~name:"walk matches the version-at-a-time reference" ~count:500 chain_arb
    (fun (fates, versions) ->
      let c = Clog.create () in
      let reader = Clog.new_xid c in
      let xids = List.map (fun f -> if f = Own then reader else Clog.new_xid c) fates in
      let resolve fate =
        List.iter2 (fun f x -> if f = fate then ignore (Clog.commit c x)) fates xids
      in
      resolve Before;
      let snap = Snapshot.take c ~owner:reader in
      resolve After;
      List.iter2 (fun f x -> if f = Aborted then Clog.abort c x) fates xids;
      let xid i = List.nth xids i in
      let heap = Heap.create schema in
      let head =
        List.fold_left
          (fun _ (creator, deleter) ->
            let v = Heap.insert_version heap ~key:(Value.Int 1) ~row:(row 1) ~xmin:(xid creator) in
            Option.iter (fun d -> Heap.set_xmax v (xid d)) deleter;
            Some v)
          None versions
        |> Option.get
      in
      let expected, expected_around = Reference.latest_visible c snap head in
      let got, around = walk c snap head in
      let same_version =
        match (expected, got) with
        | None, None -> true
        | Some (e, deleter), Some g ->
            e == g
            && Option.value deleter ~default:Heap.invalid_xid = Visibility.deleter c snap g
        | Some _, None | None, Some _ -> false
      in
      same_version && expected_around = around)

let () =
  Alcotest.run "mvcc"
    [
      ( "clog",
        [
          Alcotest.test_case "lifecycle" `Quick test_clog_lifecycle;
          Alcotest.test_case "cseq monotone" `Quick test_clog_cseq_monotone;
          Alcotest.test_case "double resolution" `Quick test_clog_double_resolution;
          Alcotest.test_case "unknown xid" `Quick test_clog_unknown;
        ] );
      ("snapshot", [ Alcotest.test_case "sees" `Quick test_snapshot_sees ]);
      ( "visibility",
        [
          Alcotest.test_case "plain visible" `Quick test_visible_plain;
          Alcotest.test_case "future creator" `Quick test_invisible_future_creator;
          Alcotest.test_case "aborted creator" `Quick test_invisible_aborted_creator;
          Alcotest.test_case "concurrent deleter" `Quick test_visible_with_concurrent_deleter;
          Alcotest.test_case "deleted before snapshot" `Quick test_deleted_before_snapshot;
          Alcotest.test_case "own writes" `Quick test_own_writes;
          Alcotest.test_case "aborted deleter" `Quick test_aborted_deleter_ignored;
          Alcotest.test_case "latest_visible walk" `Quick test_latest_visible_walk;
          Alcotest.test_case "latest_visible none" `Quick test_latest_visible_none;
        ] );
      ("walk", [ QCheck_alcotest.to_alcotest prop_walk_matches_reference ]);
    ]
