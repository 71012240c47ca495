(* Storage substrate: values, schemas, and the versioned heap. *)

open Ssi_storage

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

(* ---- Value -------------------------------------------------------------- *)

let value_gen =
  QCheck.Gen.(
    oneof
      [
        return Value.Null;
        map (fun b -> Value.Bool b) bool;
        map (fun i -> Value.Int i) small_signed_int;
        map (fun f -> Value.Float f) (float_bound_inclusive 1000.);
        map (fun s -> Value.Str s) (string_size (int_range 0 6));
      ])

let value_arb = QCheck.make ~print:Value.to_string value_gen

let prop_compare_total_order =
  QCheck.Test.make ~name:"compare antisymmetric" ~count:500
    QCheck.(pair value_arb value_arb)
    (fun (a, b) -> Value.compare a b = -Value.compare b a)

let prop_equal_hash =
  QCheck.Test.make ~name:"equal values hash equally" ~count:500
    QCheck.(pair value_arb value_arb)
    (fun (a, b) -> (not (Value.equal a b)) || Value.hash a = Value.hash b)

(* [Value.hash (Int i)] computes [Hashtbl.hash (float_of_int i)] without
   boxing the float.  Heap chains and predicate-lock tables iterate in
   hash order, so the value must be exactly the runtime's, on every int. *)
let prop_int_hash_is_float_hash =
  QCheck.Test.make ~name:"Int hash = Hashtbl.hash of its float" ~count:2000
    QCheck.(oneof [ int; small_signed_int; oneofl [ 0; -1; max_int; min_int; 1 lsl 53 ] ])
    (fun i -> Value.hash (Value.Int i) = Hashtbl.hash (float_of_int i))

let test_numeric_cross_type () =
  Alcotest.(check bool) "Int = Float" true (Value.equal (Value.Int 3) (Value.Float 3.));
  Alcotest.(check int) "hash compatible" (Value.hash (Value.Int 3))
    (Value.hash (Value.Float 3.));
  Alcotest.(check bool) "Int < Float" true
    (Value.compare (Value.Int 3) (Value.Float 3.5) < 0)

let test_value_rank_order () =
  Alcotest.(check bool) "Null < Bool" true (Value.compare Value.Null (Value.Bool false) < 0);
  Alcotest.(check bool) "Bool < Int" true (Value.compare (Value.Bool true) (Value.Int 0) < 0);
  Alcotest.(check bool) "Int < Str" true (Value.compare (Value.Int 999) (Value.Str "") < 0)

let test_accessors () =
  Alcotest.(check int) "as_int" 5 (Value.as_int (Value.Int 5));
  Alcotest.(check (float 0.)) "as_float of int" 5. (Value.as_float (Value.Int 5));
  Alcotest.check_raises "as_int of Str" (Invalid_argument "Value.as_int: \"x\"") (fun () ->
      ignore (Value.as_int (Value.Str "x")))

(* ---- Schema -------------------------------------------------------------- *)

let test_schema_basics () =
  let s = Schema.make ~name:"t" ~cols:[ "a"; "b"; "c" ] ~key:"b" in
  Alcotest.(check int) "arity" 3 (Schema.arity s);
  Alcotest.(check int) "key index" 1 (Schema.key_index s);
  Alcotest.(check int) "column index" 2 (Schema.column_index s "c");
  Alcotest.(check bool) "key_of_row" true
    (Value.equal (Value.Int 7)
       (Schema.key_of_row s [| Value.Null; Value.Int 7; Value.Null |]))

let test_schema_errors () =
  Alcotest.check_raises "duplicate column"
    (Invalid_argument "Schema.make: duplicate column a") (fun () ->
      ignore (Schema.make ~name:"t" ~cols:[ "a"; "a" ] ~key:"a"));
  Alcotest.check_raises "unknown key" (Invalid_argument "Schema.make: unknown key column z")
    (fun () -> ignore (Schema.make ~name:"t" ~cols:[ "a" ] ~key:"z"));
  let s = Schema.make ~name:"t" ~cols:[ "a" ] ~key:"a" in
  Alcotest.check_raises "arity mismatch"
    (Invalid_argument "Schema.check_row: table t expects 1 columns, got 2") (fun () ->
      Schema.check_row s [| Value.Null; Value.Null |])

(* ---- Heap ------------------------------------------------------------------ *)

let schema = Schema.make ~name:"h" ~cols:[ "k"; "v" ] ~key:"k"
let row k v = [| Value.Int k; Value.Int v |]

let test_heap_version_chain () =
  let h = Heap.create schema in
  let v1 = Heap.insert_version h ~key:(Value.Int 1) ~row:(row 1 10) ~xmin:5 in
  Heap.set_xmax v1 6;
  let v2 = Heap.insert_version h ~key:(Value.Int 1) ~row:(row 1 20) ~xmin:6 in
  (match Heap.head h (Value.Int 1) with
  | Some head ->
      Alcotest.(check bool) "head is newest" true (head == v2);
      Alcotest.(check int) "chain length" 2 (List.length (List.of_seq (Heap.versions head)))
  | None -> Alcotest.fail "missing head");
  Alcotest.(check int) "cardinal" 1 (Heap.cardinal h)

let test_heap_unlink () =
  let h = Heap.create schema in
  let v1 = Heap.insert_version h ~key:(Value.Int 1) ~row:(row 1 10) ~xmin:5 in
  ignore (Heap.insert_version h ~key:(Value.Int 1) ~row:(row 1 20) ~xmin:6);
  Heap.unlink_head h (Value.Int 1);
  (match Heap.head h (Value.Int 1) with
  | Some head -> Alcotest.(check bool) "old version restored" true (head == v1)
  | None -> Alcotest.fail "chain vanished");
  Heap.unlink_head h (Value.Int 1);
  Alcotest.(check bool) "empty" true (Heap.head h (Value.Int 1) = None);
  Alcotest.check_raises "unlink empty" (Invalid_argument "Heap.unlink_head: no versions for key")
    (fun () -> Heap.unlink_head h (Value.Int 1))

let test_heap_pages () =
  let h = Heap.create ~tuples_per_page:4 schema in
  let pages =
    List.init 10 (fun i ->
        let t = Heap.insert_version h ~key:(Value.Int i) ~row:(row i 0) ~xmin:1 in
        Heap.page_of_tid t.Heap.tid)
  in
  Alcotest.(check int) "npages" 3 (Heap.npages h);
  Alcotest.(check (list int))
    "page assignment" [ 0; 0; 0; 0; 1; 1; 1; 1; 2; 2 ]
    pages

let test_heap_rewrite () =
  let h = Heap.create ~tuples_per_page:4 schema in
  let t0 = Heap.insert_version h ~key:(Value.Int 0) ~row:(row 0 0) ~xmin:1 in
  for i = 1 to 7 do
    ignore (Heap.insert_version h ~key:(Value.Int i) ~row:(row i 0) ~xmin:1)
  done;
  let gen0 = Heap.generation h in
  let old_tid = t0.Heap.tid in
  Heap.rewrite h;
  Alcotest.(check int) "generation bumped" (gen0 + 1) (Heap.generation h);
  Alcotest.(check bool) "relocated (or at least reassigned)" true
    (Heap.head h (Value.Int 0) <> None);
  ignore old_tid;
  (* All tids must be unique after the rewrite. *)
  let tids = ref [] in
  Heap.iter_heads h (fun t -> tids := t.Heap.tid :: !tids);
  let sorted = List.sort_uniq compare !tids in
  Alcotest.(check int) "unique tids" 8 (List.length sorted)

let test_heap_prune () =
  let h = Heap.create schema in
  let v1 = Heap.insert_version h ~key:(Value.Int 1) ~row:(row 1 10) ~xmin:2 in
  Heap.set_xmax v1 3;
  let v2 = Heap.insert_version h ~key:(Value.Int 1) ~row:(row 1 20) ~xmin:3 in
  Heap.set_xmax v2 4;
  ignore (Heap.insert_version h ~key:(Value.Int 1) ~row:(row 1 30) ~xmin:4);
  (* Keep only the newest two versions. *)
  Heap.prune h ~live:(fun v -> v.Heap.xmin >= 3);
  match Heap.head h (Value.Int 1) with
  | None -> Alcotest.fail "chain vanished"
  | Some head ->
      Alcotest.(check int) "pruned chain" 2 (List.length (List.of_seq (Heap.versions head)))

let test_heap_fold_iter () =
  let h = Heap.create schema in
  for i = 0 to 9 do
    ignore (Heap.insert_version h ~key:(Value.Int i) ~row:(row i i) ~xmin:1)
  done;
  let sum = Heap.fold_heads h ~init:0 ~f:(fun acc t -> acc + Value.as_int t.Heap.row.(1)) in
  Alcotest.(check int) "fold over heads" 45 sum;
  let n = ref 0 in
  Heap.iter_heads h (fun _ -> incr n);
  Alcotest.(check int) "iter count" 10 !n

(* ---- Lock table: growth, deletion and recycling ---------------------------- *)

(* Random holdings of many owners on many targets, so the slot and owner
   indexes grow, rehash and delete (backward shift) well past their
   initial size.  A list of live (owner, target) holdings is the model:
   each slot must be found exactly while someone holds it, both chains
   must list exactly the model's holdings, newest first, and freed owner
   records and slots must come back for new owners and targets. *)
type lt_op = Hold of int * int | Drop of int * int | Retire of int

let lt_targets =
  Array.init 300 (fun i ->
      match i mod 3 with
      | 0 -> Locktab.Tuple ("t", Value.Int i)
      | 1 -> Locktab.Page ("t", i)
      | _ -> Locktab.Index_key ("t_pkey", Value.Str (string_of_int i)))

let lt_op_gen =
  QCheck.Gen.(
    let owner = int_range 1 150 and target = int_range 0 (Array.length lt_targets - 1) in
    frequency
      [
        (6, map2 (fun o i -> Hold (o, i)) owner target);
        (2, map2 (fun o i -> Drop (o, i)) owner target);
        (1, map (fun o -> Retire o) owner);
      ])

let prop_locktab_model =
  QCheck.Test.make ~name:"lock table matches a list of holdings" ~count:200
    QCheck.(make Gen.(list_size (int_range 200 1500) lt_op_gen))
    (fun ops ->
      let t = Locktab.create () and live = ref [] in
      let chain first next =
        let rec go n = if n < 0 then [] else n :: go (next t n) in
        go first
      in
      let drop o i =
        let s = Locktab.find t lt_targets.(i) and r = Locktab.owner t o in
        if s >= 0 && r >= 0 then begin
          let n = Locktab.holding t s r in
          if n >= 0 then begin
            Locktab.remove t n;
            Locktab.drop_if_idle t s;
            live := List.filter (( <> ) (o, i)) !live
          end
        end
      in
      List.iter
        (function
          | Hold (o, i) ->
              if not (List.mem (o, i) !live) then begin
                let s = Locktab.intern t lt_targets.(i) in
                ignore (Locktab.add t ~slot:s ~owner:(Locktab.owner_record t o) i);
                live := (o, i) :: !live
              end
          | Drop (o, i) -> drop o i
          | Retire o ->
              List.iter (fun (o', i) -> if o' = o then drop o i) !live;
              let r = Locktab.owner t o in
              if r >= 0 then Locktab.free_owner t r)
        ops;
      Array.iteri
        (fun i tg ->
          let s = Locktab.find t tg in
          let holders = List.filter_map (fun (o, i') -> if i' = i then Some o else None) !live in
          if holders = [] then begin
            if s >= 0 then QCheck.Test.fail_reportf "target %d still interned" i
          end
          else if s < 0 then QCheck.Test.fail_reportf "target %d lost" i
          else if Locktab.target t s <> tg then QCheck.Test.fail_reportf "target %d misfiled" i
          else if
            List.map (Locktab.holder t) (chain (Locktab.first_holder t s) Locktab.next_holder)
            <> holders
          then QCheck.Test.fail_reportf "holders of target %d" i)
        lt_targets;
      for o = 1 to 150 do
        let r = Locktab.owner t o in
        let mine = List.filter_map (fun (o', i) -> if o' = o then Some i else None) !live in
        let held =
          if r < 0 then []
          else List.map (Locktab.value t) (chain (Locktab.first_held t r) Locktab.next_held)
        in
        if held <> mine then QCheck.Test.fail_reportf "holdings of owner %d" o
      done;
      Locktab.holdings t = List.length !live)

let () =
  Alcotest.run "storage"
    [
      ( "value",
        [
          Alcotest.test_case "numeric cross-type" `Quick test_numeric_cross_type;
          Alcotest.test_case "rank order" `Quick test_value_rank_order;
          Alcotest.test_case "accessors" `Quick test_accessors;
        ] );
      qsuite "value-props"
        [ prop_compare_total_order; prop_equal_hash; prop_int_hash_is_float_hash ];
      ( "schema",
        [
          Alcotest.test_case "basics" `Quick test_schema_basics;
          Alcotest.test_case "errors" `Quick test_schema_errors;
        ] );
      ( "heap",
        [
          Alcotest.test_case "version chain" `Quick test_heap_version_chain;
          Alcotest.test_case "unlink head" `Quick test_heap_unlink;
          Alcotest.test_case "page assignment" `Quick test_heap_pages;
          Alcotest.test_case "rewrite relocates" `Quick test_heap_rewrite;
          Alcotest.test_case "prune" `Quick test_heap_prune;
          Alcotest.test_case "fold/iter" `Quick test_heap_fold_iter;
        ] );
      qsuite "locktab" [ prop_locktab_model ];
    ]
