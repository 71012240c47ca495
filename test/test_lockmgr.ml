(* Heavyweight lock manager: compatibility matrix, blocking under the
   simulator, FIFO fairness, deadlock detection, release. *)

open Ssi_storage
module Lockmgr = Ssi_lockmgr.Lockmgr
module Sim = Ssi_sim.Sim
open Lockmgr

let rel = Relation "t"
let tup k = Tuple ("t", Value.Int k)

(* ---- Matrix ------------------------------------------------------------------ *)

let test_compat_matrix () =
  let cases =
    [
      (IS, IS, true); (IS, IX, true); (IS, S, true); (IS, SIX, true); (IS, X, false);
      (IX, IX, true); (IX, S, false); (IX, SIX, false); (IX, X, false);
      (S, S, true); (S, SIX, false); (S, X, false);
      (SIX, SIX, false); (SIX, X, false);
      (X, X, false);
    ]
  in
  List.iter
    (fun (a, b, expect) ->
      let name = Format.asprintf "%a/%a" pp_mode a pp_mode b in
      Alcotest.(check bool) name expect (compatible a b);
      Alcotest.(check bool) (name ^ " symmetric") expect (compatible b a))
    cases

let test_covers () =
  Alcotest.(check bool) "X covers S" true (covers X S);
  Alcotest.(check bool) "SIX covers S" true (covers SIX S);
  Alcotest.(check bool) "SIX covers IX" true (covers SIX IX);
  Alcotest.(check bool) "S does not cover IX" false (covers S IX);
  Alcotest.(check bool) "IS covers only IS" true (covers IS IS && not (covers IS S))

(* ---- Direct (non-blocking) use ----------------------------------------------- *)

let test_grant_and_reacquire () =
  let lm = create Ssi_util.Waitq.direct in
  acquire lm ~owner:1 rel IS;
  acquire lm ~owner:1 rel IS;
  acquire lm ~owner:2 rel IX;
  Alcotest.(check int) "two holdings" 2 (lock_count lm);
  Alcotest.(check bool) "holds" true (holds lm ~owner:1 rel IS);
  Alcotest.(check bool) "covered request is no-op" true
    (try_acquire lm ~owner:1 rel IS)

let test_direct_conflict_raises () =
  let lm = create Ssi_util.Waitq.direct in
  acquire lm ~owner:1 (tup 1) X;
  Alcotest.check_raises "would block" Ssi_util.Waitq.Would_block (fun () ->
      acquire lm ~owner:2 (tup 1) S)

let test_try_acquire () =
  let lm = create Ssi_util.Waitq.direct in
  acquire lm ~owner:1 (tup 1) X;
  Alcotest.(check bool) "try fails on conflict" false (try_acquire lm ~owner:2 (tup 1) S);
  Alcotest.(check bool) "try succeeds elsewhere" true (try_acquire lm ~owner:2 (tup 2) S)

let test_release_all () =
  let lm = create Ssi_util.Waitq.direct in
  acquire lm ~owner:1 rel IX;
  acquire lm ~owner:1 (tup 1) X;
  acquire lm ~owner:1 (tup 2) X;
  release_all lm ~owner:1;
  Alcotest.(check int) "all gone" 0 (lock_count lm);
  Alcotest.(check bool) "free again" true (try_acquire lm ~owner:2 (tup 1) X)

(* ---- Blocking under the simulator ----------------------------------------------- *)

let test_blocking_grant () =
  let events = ref [] in
  ignore
    (Sim.run (fun () ->
         let lm = create Sim.scheduler in
         Sim.spawn (fun () ->
             acquire lm ~owner:1 (tup 1) X;
             Sim.delay 2.0;
             release_all lm ~owner:1;
             events := ("released", Sim.now ()) :: !events);
         Sim.spawn (fun () ->
             Sim.delay 0.5;
             acquire lm ~owner:2 (tup 1) S;
             events := ("granted", Sim.now ()) :: !events)));
  Alcotest.(check bool) "reader waited for writer" true
    (List.assoc "granted" !events >= 2.0)

let test_fifo_no_starvation () =
  (* S, then X waits, then another S: the second S must queue behind the X
     rather than overtaking it. *)
  let order = ref [] in
  ignore
    (Sim.run (fun () ->
         let lm = create Sim.scheduler in
         Sim.spawn (fun () ->
             acquire lm ~owner:1 (tup 1) S;
             Sim.delay 1.0;
             release_all lm ~owner:1);
         Sim.spawn (fun () ->
             Sim.delay 0.1;
             acquire lm ~owner:2 (tup 1) X;
             order := 2 :: !order;
             Sim.delay 0.5;
             release_all lm ~owner:2);
         Sim.spawn (fun () ->
             Sim.delay 0.2;
             acquire lm ~owner:3 (tup 1) S;
             order := 3 :: !order;
             release_all lm ~owner:3)));
  Alcotest.(check (list int)) "writer first" [ 2; 3 ] (List.rev !order)

let test_deadlock_detected () =
  (* Owner 1 waits for owner 2 first; when owner 2's request would close
     the cycle, owner 2 (the requester) is the victim. *)
  let deadlocked = ref None in
  ignore
    (Sim.run (fun () ->
         let lm = create Sim.scheduler in
         Sim.spawn (fun () ->
             acquire lm ~owner:1 (tup 1) X;
             Sim.delay 0.2;
             acquire lm ~owner:1 (tup 2) X;
             release_all lm ~owner:1);
         Sim.spawn (fun () ->
             acquire lm ~owner:2 (tup 2) X;
             Sim.delay 0.5;
             (try acquire lm ~owner:2 (tup 1) X
              with Deadlock { victim; _ } -> deadlocked := Some victim);
             release_all lm ~owner:2)));
  Alcotest.(check (option int)) "requester is the victim" (Some 2) !deadlocked

let test_upgrade_deadlock () =
  (* Two owners hold S and both request X: a classic upgrade deadlock. *)
  let failures = ref 0 in
  ignore
    (Sim.run (fun () ->
         let lm = create Sim.scheduler in
         for i = 1 to 2 do
           Sim.spawn (fun () ->
               acquire lm ~owner:i (tup 1) S;
               Sim.delay 0.1;
               (try
                  acquire lm ~owner:i (tup 1) X;
                  Sim.delay 0.1
                with Deadlock _ -> incr failures);
               release_all lm ~owner:i)
         done));
  Alcotest.(check int) "one of the upgraders aborted" 1 !failures

let test_waiting_count () =
  ignore
    (Sim.run (fun () ->
         let lm = create Sim.scheduler in
         Sim.spawn (fun () ->
             acquire lm ~owner:1 (tup 1) X;
             Sim.delay 1.0;
             release_all lm ~owner:1);
         Sim.spawn (fun () ->
             Sim.delay 0.2;
             acquire lm ~owner:2 (tup 1) S;
             release_all lm ~owner:2);
         Sim.spawn (fun () ->
             Sim.delay 0.5;
             Alcotest.(check int) "one waiter mid-flight" 1 (waiting_count lm))))

let test_held_by () =
  let lm = create Ssi_util.Waitq.direct in
  acquire lm ~owner:1 rel IS;
  acquire lm ~owner:2 rel IX;
  let holders = List.sort compare (held_by lm rel) in
  Alcotest.(check bool) "both holders" true (holders = [ (1, IS); (2, IX) ])

(* Released target by target in reverse order of acquisition: owner 1
   locks tuple 1, then tuple 2; the waiter on tuple 2 is granted first. *)
let test_release_order () =
  let order = ref [] in
  ignore
    (Sim.run (fun () ->
         let lm = create Sim.scheduler in
         Sim.spawn (fun () ->
             acquire lm ~owner:1 (tup 1) X;
             acquire lm ~owner:1 (tup 2) X;
             acquire lm ~owner:1 (tup 1) S;
             Sim.delay 1.0;
             release_all lm ~owner:1);
         List.iter
           (fun (owner, k) ->
             Sim.spawn (fun () ->
                 Sim.delay 0.1;
                 acquire lm ~owner (tup k) S;
                 order := owner :: !order;
                 release_all lm ~owner))
           [ (2, 1); (3, 2) ]));
  Alcotest.(check (list int)) "tuple 2's waiter first" [ 3; 2 ] (List.rev !order)

(* ---- Equivalence with the list-based lock manager -------------------------- *)

(* The reference: holders as a list per target, newest first, and each
   owner's granted targets as a list, newest first, exactly as the lock
   manager kept them before it moved onto the shared lock table.  Under
   the direct scheduler nothing ever stays queued, so a contended request
   is refused and leaves no trace. *)
module Model = struct
  type t = {
    mutable locks : (target * (int * mode) list) list;
    mutable owned : (int * target list) list;
  }

  let create () = { locks = []; owned = [] }
  let held_by m tg = try List.assoc tg m.locks with Not_found -> []
  let set m tg hs = m.locks <- (tg, hs) :: List.remove_assoc tg m.locks

  let holds m ~owner tg mode =
    List.exists (fun (o, md) -> o = owner && covers md mode) (held_by m tg)

  let try_acquire m ~owner tg mode =
    if holds m ~owner tg mode then true
    else if List.exists (fun (o, md) -> o <> owner && not (compatible md mode)) (held_by m tg)
    then false
    else begin
      set m tg ((owner, mode) :: held_by m tg);
      let mine = try List.assoc owner m.owned with Not_found -> [] in
      m.owned <- (owner, tg :: mine) :: List.remove_assoc owner m.owned;
      true
    end

  let release_all m ~owner =
    let mine = try List.assoc owner m.owned with Not_found -> [] in
    m.owned <- List.remove_assoc owner m.owned;
    List.iter
      (fun tg ->
        match List.filter (fun (o, _) -> o <> owner) (held_by m tg) with
        | [] -> m.locks <- List.remove_assoc tg m.locks
        | hs -> set m tg hs)
      mine

  let lock_count m = List.fold_left (fun acc (_, hs) -> acc + List.length hs) 0 m.locks
end

type lop = Acquire of int * int * mode | Try of int * int * mode | Release of int

let lock_targets =
  [| rel; Page ("t", 0); tup 1; tup 2; Index_page ("t_pkey", 0); Relation "u" |]

let print_lop =
  let p o i m = Format.asprintf "%d,%a,%a" o pp_target lock_targets.(i) pp_mode m in
  function
  | Acquire (o, i, m) -> "Acquire(" ^ p o i m ^ ")"
  | Try (o, i, m) -> "Try(" ^ p o i m ^ ")"
  | Release o -> Printf.sprintf "Release(%d)" o

let lop_gen =
  QCheck.Gen.(
    let owner = int_range 1 4 and target = int_range 0 (Array.length lock_targets - 1) in
    let mode = oneofl [ IS; IX; S; SIX; X ] in
    frequency
      [
        (4, map3 (fun o i m -> Acquire (o, i, m)) owner target mode);
        (4, map3 (fun o i m -> Try (o, i, m)) owner target mode);
        (1, map (fun o -> Release o) owner);
      ])

(* Every step must agree on the outcome, and afterwards on [held_by] of
   every target in order, on [holds] for every owner and mode, and on
   [lock_count]. *)
let prop_matches_model =
  QCheck.Test.make ~name:"lock table ≡ list-based lock manager" ~count:300
    (QCheck.make ~print:QCheck.Print.(list print_lop)
       QCheck.Gen.(list_size (int_range 1 80) lop_gen))
    (fun lops ->
      let lm = create Ssi_util.Waitq.direct and m = Model.create () in
      List.iteri
        (fun step op ->
          let fail what =
            QCheck.Test.fail_reportf "step %d (%s): %s differs" step (print_lop op) what
          in
          (match op with
          | Acquire (o, i, md) ->
              let got =
                try
                  acquire lm ~owner:o lock_targets.(i) md;
                  true
                with Ssi_util.Waitq.Would_block -> false
              in
              if got <> Model.try_acquire m ~owner:o lock_targets.(i) md then fail "acquire"
          | Try (o, i, md) ->
              if try_acquire lm ~owner:o lock_targets.(i) md
                 <> Model.try_acquire m ~owner:o lock_targets.(i) md
              then fail "try_acquire"
          | Release o ->
              release_all lm ~owner:o;
              Model.release_all m ~owner:o);
          Array.iter
            (fun tg ->
              if held_by lm tg <> Model.held_by m tg then fail "held_by";
              for o = 1 to 4 do
                List.iter
                  (fun md ->
                    if holds lm ~owner:o tg md <> Model.holds m ~owner:o tg md then fail "holds")
                  [ IS; IX; S; SIX; X ]
              done)
            lock_targets;
          if lock_count lm <> Model.lock_count m then fail "lock_count";
          if waiting_count lm <> 0 then fail "waiting_count")
        lops;
      true)

let () =
  Alcotest.run "lockmgr"
    [
      ( "matrix",
        [
          Alcotest.test_case "compatibility" `Quick test_compat_matrix;
          Alcotest.test_case "covers" `Quick test_covers;
        ] );
      ( "direct",
        [
          Alcotest.test_case "grant and reacquire" `Quick test_grant_and_reacquire;
          Alcotest.test_case "conflict raises" `Quick test_direct_conflict_raises;
          Alcotest.test_case "try_acquire" `Quick test_try_acquire;
          Alcotest.test_case "release_all" `Quick test_release_all;
        ] );
      ( "blocking",
        [
          Alcotest.test_case "waits for release" `Quick test_blocking_grant;
          Alcotest.test_case "fifo fairness" `Quick test_fifo_no_starvation;
          Alcotest.test_case "deadlock detection" `Quick test_deadlock_detected;
          Alcotest.test_case "upgrade deadlock" `Quick test_upgrade_deadlock;
          Alcotest.test_case "waiting count" `Quick test_waiting_count;
          Alcotest.test_case "held_by" `Quick test_held_by;
          Alcotest.test_case "release order" `Quick test_release_order;
        ] );
      ("model", [ QCheck_alcotest.to_alcotest prop_matches_model ]);
    ]
