(* The SSI lock manager: SIREAD lock bookkeeping, granularity promotion,
   conflict lookup order, summarization, DDL transfers (§5.2, §6.2). *)

open Ssi_storage
module Predlock = Ssi_core.Predlock
open Predlock

let vi i = Value.Int i

let small_config =
  { max_tuple_locks_per_page = 2; max_page_locks_per_relation = 2; max_page_locks_per_index = 2 }

let test_tuple_lock_and_lookup () =
  let t = create () in
  lock_tuple t ~owner:1 ~rel:"r" ~key:(vi 1) ~page:0;
  let r = readers_for_write t ~rel:"r" ~key:(vi 1) ~page:0 in
  Alcotest.(check (list int)) "reader found" [ 1 ] r.xids;
  let r2 = readers_for_write t ~rel:"r" ~key:(vi 2) ~page:0 in
  Alcotest.(check (list int)) "other key clear" [] r2.xids

let test_page_lock_covers_tuples () =
  let t = create () in
  lock_page t ~owner:1 ~rel:"r" ~page:3;
  let r = readers_for_write t ~rel:"r" ~key:(vi 99) ~page:3 in
  Alcotest.(check (list int)) "page lock covers any tuple on it" [ 1 ] r.xids

let test_relation_lock_covers_all () =
  let t = create () in
  lock_relation t ~owner:1 ~rel:"r";
  let r = readers_for_write t ~rel:"r" ~key:(vi 5) ~page:77 in
  Alcotest.(check (list int)) "relation lock covers everything" [ 1 ] r.xids

let test_promotion_tuple_to_page () =
  let t = create ~config:small_config () in
  lock_tuple t ~owner:1 ~rel:"r" ~key:(vi 1) ~page:0;
  lock_tuple t ~owner:1 ~rel:"r" ~key:(vi 2) ~page:0;
  Alcotest.(check bool) "no page lock yet" false (holds t ~owner:1 (Page ("r", 0)));
  lock_tuple t ~owner:1 ~rel:"r" ~key:(vi 3) ~page:0;
  Alcotest.(check bool) "promoted to page" true (holds t ~owner:1 (Page ("r", 0)));
  Alcotest.(check bool) "tuple locks dropped" false (holds t ~owner:1 (Tuple ("r", vi 1)));
  (* Coverage is preserved. *)
  let r = readers_for_write t ~rel:"r" ~key:(vi 1) ~page:0 in
  Alcotest.(check (list int)) "still covered" [ 1 ] r.xids;
  Alcotest.(check bool) "promotions counted" true (promotions t > 0)

let test_promotion_page_to_relation () =
  let t = create ~config:small_config () in
  lock_page t ~owner:1 ~rel:"r" ~page:0;
  lock_page t ~owner:1 ~rel:"r" ~page:1;
  lock_page t ~owner:1 ~rel:"r" ~page:2;
  Alcotest.(check bool) "promoted to relation" true (holds t ~owner:1 (Relation "r"));
  Alcotest.(check bool) "page locks dropped" false (holds t ~owner:1 (Page ("r", 0)));
  Alcotest.(check int) "single lock left" 1 (owner_lock_count t 1)

let test_promotion_index () =
  let t = create ~config:small_config () in
  lock_index_page t ~owner:1 ~index:"i" ~page:0;
  lock_index_page t ~owner:1 ~index:"i" ~page:1;
  lock_index_page t ~owner:1 ~index:"i" ~page:2;
  Alcotest.(check bool) "whole-index lock" true (holds t ~owner:1 (Index_rel "i"));
  let r = readers_for_index_insert t ~index:"i" ~page:9 in
  Alcotest.(check (list int)) "covers all pages" [ 1 ] r.xids

let test_no_finer_lock_under_coarser () =
  let t = create () in
  lock_relation t ~owner:1 ~rel:"r";
  lock_page t ~owner:1 ~rel:"r" ~page:0;
  lock_tuple t ~owner:1 ~rel:"r" ~key:(vi 1) ~page:0;
  Alcotest.(check int) "only the relation lock" 1 (owner_lock_count t 1)

let test_unlock_tuple () =
  let t = create () in
  lock_tuple t ~owner:1 ~rel:"r" ~key:(vi 1) ~page:0;
  unlock_tuple t ~owner:1 ~rel:"r" ~key:(vi 1);
  let r = readers_for_write t ~rel:"r" ~key:(vi 1) ~page:0 in
  Alcotest.(check (list int)) "dropped" [] r.xids;
  (* Dropping a promoted-away tuple lock is a no-op, not an error. *)
  lock_page t ~owner:1 ~rel:"r" ~page:0;
  unlock_tuple t ~owner:1 ~rel:"r" ~key:(vi 1);
  Alcotest.(check bool) "page lock untouched" true (holds t ~owner:1 (Page ("r", 0)))

let test_multiple_owners () =
  let t = create () in
  lock_tuple t ~owner:1 ~rel:"r" ~key:(vi 1) ~page:0;
  lock_tuple t ~owner:2 ~rel:"r" ~key:(vi 1) ~page:0;
  lock_relation t ~owner:3 ~rel:"r";
  let r = readers_for_write t ~rel:"r" ~key:(vi 1) ~page:0 in
  (match r.xids with
  | 3 :: rest ->
      Alcotest.(check (list int)) "tuple readers follow" [ 1; 2 ] (List.sort compare rest)
  | other ->
      Alcotest.failf "expected relation reader first, got [%s]"
        (String.concat ";" (List.map string_of_int other)))

let test_release_owner () =
  let t = create () in
  lock_tuple t ~owner:1 ~rel:"r" ~key:(vi 1) ~page:0;
  lock_relation t ~owner:1 ~rel:"s";
  release_owner t 1;
  Alcotest.(check int) "no locks" 0 (total_lock_count t);
  Alcotest.(check int) "owner cleared" 0 (owner_lock_count t 1)

let test_summarize_owner () =
  let t = create () in
  lock_tuple t ~owner:1 ~rel:"r" ~key:(vi 1) ~page:0;
  summarize_owner t 1 ~cseq:42;
  let r = readers_for_write t ~rel:"r" ~key:(vi 1) ~page:0 in
  Alcotest.(check (list int)) "no named reader" [] r.xids;
  Alcotest.(check (option int)) "dummy owner with cseq" (Some 42) r.old_committed;
  (* A later summarized holder raises the recorded cseq. *)
  lock_tuple t ~owner:2 ~rel:"r" ~key:(vi 1) ~page:0;
  summarize_owner t 2 ~cseq:50;
  let r = readers_for_write t ~rel:"r" ~key:(vi 1) ~page:0 in
  Alcotest.(check (option int)) "latest cseq" (Some 50) r.old_committed

let test_cleanup_old_committed () =
  let t = create () in
  lock_tuple t ~owner:1 ~rel:"r" ~key:(vi 1) ~page:0;
  summarize_owner t 1 ~cseq:10;
  cleanup_old_committed t ~before:10;
  let r = readers_for_write t ~rel:"r" ~key:(vi 1) ~page:0 in
  Alcotest.(check (option int)) "not yet stale (cseq = horizon)" (Some 10) r.old_committed;
  cleanup_old_committed t ~before:11;
  let r = readers_for_write t ~rel:"r" ~key:(vi 1) ~page:0 in
  Alcotest.(check (option int)) "cleaned" None r.old_committed;
  Alcotest.(check int) "table empty" 0 (total_lock_count t)

let test_index_page_split_copies () =
  let t = create () in
  lock_index_page t ~owner:1 ~index:"i" ~page:0;
  lock_index_page t ~owner:2 ~index:"i" ~page:0;
  summarize_owner t 2 ~cseq:7;
  on_index_page_split t ~index:"i" ~old_page:0 ~new_page:5;
  let r = readers_for_index_insert t ~index:"i" ~page:5 in
  Alcotest.(check (list int)) "named owner copied" [ 1 ] r.xids;
  Alcotest.(check (option int)) "dummy copied" (Some 7) r.old_committed;
  let r0 = readers_for_index_insert t ~index:"i" ~page:0 in
  Alcotest.(check (list int)) "old page untouched" [ 1 ] r0.xids

let test_ddl_promote_relation () =
  let t = create () in
  lock_tuple t ~owner:1 ~rel:"r" ~key:(vi 1) ~page:0;
  lock_page t ~owner:2 ~rel:"r" ~page:1;
  lock_tuple t ~owner:3 ~rel:"s" ~key:(vi 1) ~page:0;
  summarize_owner t 3 ~cseq:5;
  lock_tuple t ~owner:4 ~rel:"r" ~key:(vi 9) ~page:2;
  summarize_owner t 4 ~cseq:6;
  promote_relation t ~rel:"r";
  Alcotest.(check bool) "owner1 promoted" true (holds t ~owner:1 (Relation "r"));
  Alcotest.(check bool) "owner2 promoted" true (holds t ~owner:2 (Relation "r"));
  Alcotest.(check bool) "fine locks gone" false (holds t ~owner:1 (Tuple ("r", vi 1)));
  let r = readers_for_write t ~rel:"r" ~key:(vi 1234) ~page:99 in
  Alcotest.(check bool) "everything covered" true
    (List.sort compare r.xids = [ 1; 2 ] && r.old_committed = Some 6);
  (* Other relations untouched. *)
  let s = readers_for_write t ~rel:"s" ~key:(vi 1) ~page:0 in
  Alcotest.(check (option int)) "relation s dummy kept" (Some 5) s.old_committed

let test_ddl_drop_index () =
  let t = create () in
  lock_index_page t ~owner:1 ~index:"i" ~page:0;
  lock_index_rel t ~owner:2 ~index:"i";
  lock_index_page t ~owner:3 ~index:"i" ~page:1;
  summarize_owner t 3 ~cseq:9;
  drop_index_to_relation t ~index:"i" ~heap_rel:"r";
  Alcotest.(check bool) "owner1 got relation lock" true (holds t ~owner:1 (Relation "r"));
  Alcotest.(check bool) "owner2 got relation lock" true (holds t ~owner:2 (Relation "r"));
  let r = readers_for_write t ~rel:"r" ~key:(vi 1) ~page:0 in
  Alcotest.(check (option int)) "dummy transferred" (Some 9) r.old_committed;
  let idx = readers_for_index_insert t ~index:"i" ~page:0 in
  Alcotest.(check (list int)) "index locks gone" [] idx.xids

let test_counts () =
  let t = create () in
  lock_tuple t ~owner:1 ~rel:"r" ~key:(vi 1) ~page:0;
  lock_tuple t ~owner:2 ~rel:"r" ~key:(vi 1) ~page:0;
  Alcotest.(check int) "two holdings on one target" 2 (total_lock_count t);
  Alcotest.(check int) "owner count" 1 (owner_lock_count t 1)

(* ---- Equivalence with the list-based lock manager -------------------------- *)

(* The reference: the SIREAD lock manager as it was kept in lists before
   it moved onto the shared lock table.  Each target's holders are a list,
   newest first, beside the dummy owner's mark; each owner keeps its held
   targets, its tuple targets per heap page, its page numbers per
   relation, and one entry per fine lock per index (a page number, or -1
   for a next-key lock). *)
module Model = struct
  type owner = {
    mutable held : target list;
    mutable tuples_by_page : ((string * int) * target list) list;
    mutable pages_by_rel : (string * int list) list;
    mutable pages_by_index : (string * int list) list;
  }

  type t = {
    config : config;
    mutable entries : (target * (int list * int option)) list;
    mutable owners : (int * owner) list;
    mutable promotions : int;
  }

  let create config = { config; entries = []; owners = []; promotions = 0 }
  let get l k = try List.assoc k l with Not_found -> []
  let entry m tg = try List.assoc tg m.entries with Not_found -> ([], None)

  let set_entry m tg (hs, oc) =
    m.entries <- List.remove_assoc tg m.entries;
    if hs <> [] || oc <> None then m.entries <- (tg, (hs, oc)) :: m.entries

  let state m o =
    match List.assoc_opt o m.owners with
    | Some s -> s
    | None ->
        let s = { held = []; tuples_by_page = []; pages_by_rel = []; pages_by_index = [] } in
        m.owners <- (o, s) :: m.owners;
        s

  let held s tg = List.mem tg s.held

  let forget m o s tg =
    if held s tg then begin
      s.held <- List.filter (( <> ) tg) s.held;
      let hs, oc = entry m tg in
      set_entry m tg (List.filter (( <> ) o) hs, oc)
    end

  let grant m o s tg =
    if held s tg then false
    else begin
      s.held <- tg :: s.held;
      let hs, oc = entry m tg in
      set_entry m tg (o :: hs, oc);
      true
    end

  let covered_rel s rel = held s (Relation rel)
  let covered_idx s i = held s (Index_rel i)

  let promote_rel m o s rel =
    m.promotions <- m.promotions + 1;
    List.iter (fun p -> forget m o s (Page (rel, p))) (get s.pages_by_rel rel);
    s.pages_by_rel <- List.remove_assoc rel s.pages_by_rel;
    let mine, others = List.partition (fun ((r, _), _) -> r = rel) s.tuples_by_page in
    List.iter (fun (_, tgs) -> List.iter (forget m o s) tgs) mine;
    s.tuples_by_page <- others;
    ignore (grant m o s (Relation rel))

  let lock_page m o ~rel ~page =
    let s = state m o in
    if covered_rel s rel then ()
    else if grant m o s (Page (rel, page)) then begin
      List.iter (forget m o s) (get s.tuples_by_page (rel, page));
      s.tuples_by_page <- List.remove_assoc (rel, page) s.tuples_by_page;
      let pages = page :: get s.pages_by_rel rel in
      s.pages_by_rel <- (rel, pages) :: List.remove_assoc rel s.pages_by_rel;
      if List.length pages > m.config.max_page_locks_per_relation then promote_rel m o s rel
    end

  let lock_relation m o ~rel = ignore (grant m o (state m o) (Relation rel))

  let lock_tuple m o ~rel ~key ~page =
    let s = state m o in
    if not (covered_rel s rel || List.mem page (get s.pages_by_rel rel)) then begin
      let tg = Tuple (rel, key) in
      if grant m o s tg then begin
        let tgs = tg :: get s.tuples_by_page (rel, page) in
        s.tuples_by_page <- ((rel, page), tgs) :: List.remove_assoc (rel, page) s.tuples_by_page;
        if List.length tgs > m.config.max_tuple_locks_per_page then begin
          m.promotions <- m.promotions + 1;
          lock_page m o ~rel ~page
        end
      end
    end

  let note_fine m s i entry =
    let fine = entry :: get s.pages_by_index i in
    s.pages_by_index <- (i, fine) :: List.remove_assoc i s.pages_by_index;
    List.length fine > m.config.max_page_locks_per_index

  let lock_index_page m o ~index ~page =
    let s = state m o in
    if (not (covered_idx s index)) && grant m o s (Index_page (index, page)) then
      if note_fine m s index page then begin
        m.promotions <- m.promotions + 1;
        List.iter
          (fun p -> forget m o s (Index_page (index, p)))
          (get s.pages_by_index index);
        s.pages_by_index <- List.remove_assoc index s.pages_by_index;
        ignore (grant m o s (Index_rel index))
      end

  let lock_index_key m o ~index ~key =
    let s = state m o in
    if (not (covered_idx s index)) && grant m o s (Index_key (index, key)) then
      if note_fine m s index (-1) then begin
        m.promotions <- m.promotions + 1;
        List.iter (forget m o s)
          (List.filter
             (function
               | Index_page (i, _) | Index_key (i, _) | Index_inf i -> i = index
               | Relation _ | Page _ | Tuple _ | Index_rel _ -> false)
             s.held);
        s.pages_by_index <- List.remove_assoc index s.pages_by_index;
        ignore (grant m o s (Index_rel index))
      end

  let lock_index_inf m o ~index =
    let s = state m o in
    if not (covered_idx s index) then ignore (grant m o s (Index_inf index))

  let lock_index_rel m o ~index = ignore (grant m o (state m o) (Index_rel index))

  let unlock_tuple m o ~rel ~key =
    match List.assoc_opt o m.owners with
    | None -> ()
    | Some s ->
        let tg = Tuple (rel, key) in
        if held s tg then begin
          forget m o s tg;
          s.tuples_by_page <-
            List.map (fun (k, tgs) -> (k, List.filter (( <> ) tg) tgs)) s.tuples_by_page
        end

  let set_old_committed m tg c =
    let hs, oc = entry m tg in
    match oc with Some c' when c' >= c -> () | Some _ | None -> set_entry m tg (hs, Some c)

  let retire m o on_target =
    match List.assoc_opt o m.owners with
    | None -> ()
    | Some s ->
        List.iter
          (fun tg ->
            let hs, oc = entry m tg in
            set_entry m tg (List.filter (( <> ) o) hs, oc);
            on_target tg)
          s.held;
        m.owners <- List.remove_assoc o m.owners

  let release_owner m o = retire m o ignore
  let summarize_owner m o ~cseq = retire m o (fun tg -> set_old_committed m tg cseq)

  let cleanup_old_committed m ~before =
    List.iter
      (fun (tg, (hs, oc)) ->
        match oc with Some c when c < before -> set_entry m tg (hs, None) | Some _ | None -> ())
      m.entries

  let collect m tgs =
    let xids = ref [] and old_c = ref None in
    List.iter
      (fun tg ->
        let hs, oc = entry m tg in
        List.iter (fun o -> if not (List.mem o !xids) then xids := o :: !xids) hs;
        match (oc, !old_c) with
        | Some c, Some c' -> if c > c' then old_c := Some c
        | Some c, None -> old_c := Some c
        | None, _ -> ())
      tgs;
    (List.rev !xids, !old_c)

  let copy_locks m src dst lock =
    let hs, oc = entry m src in
    List.iter lock hs;
    Option.iter (set_old_committed m dst) oc

  let dump m = List.map (fun (tg, (hs, oc)) -> (tg, hs, oc)) m.entries

  let total_lock_count m =
    List.fold_left
      (fun acc (_, (hs, oc)) -> acc + List.length hs + if oc = None then 0 else 1)
      0 m.entries
end

let model_slots = 3

type mop =
  | M_tuple of int * string * int * int  (** slot, rel, key, page *)
  | M_batch of int * string * int * int list  (** slot, rel, page, keys *)
  | M_page of int * string * int
  | M_relation of int * string
  | M_index_page of int * int
  | M_index_key of int * int
  | M_index_inf of int
  | M_index_rel of int
  | M_unlock of int * string * int
  | M_release of int
  | M_summarize of int
  | M_cleanup
  | M_split of int * int
  | M_key_insert of int * int option
  | M_probe_write of string * int * int
  | M_probe_index of int
  | M_probe_nextkey of int * int option

let print_mop = function
  | M_tuple (o, r, k, p) -> Printf.sprintf "Tuple(%d,%s,%d,%d)" o r k p
  | M_batch (o, r, p, ks) ->
      Printf.sprintf "Batch(%d,%s,%d,[%s])" o r p (String.concat ";" (List.map string_of_int ks))
  | M_page (o, r, p) -> Printf.sprintf "Page(%d,%s,%d)" o r p
  | M_relation (o, r) -> Printf.sprintf "Relation(%d,%s)" o r
  | M_index_page (o, p) -> Printf.sprintf "IndexPage(%d,%d)" o p
  | M_index_key (o, k) -> Printf.sprintf "IndexKey(%d,%d)" o k
  | M_index_inf o -> Printf.sprintf "IndexInf(%d)" o
  | M_index_rel o -> Printf.sprintf "IndexRel(%d)" o
  | M_unlock (o, r, k) -> Printf.sprintf "Unlock(%d,%s,%d)" o r k
  | M_release o -> Printf.sprintf "Release(%d)" o
  | M_summarize o -> Printf.sprintf "Summarize(%d)" o
  | M_cleanup -> "Cleanup"
  | M_split (a, b) -> Printf.sprintf "Split(%d->%d)" a b
  | M_key_insert (k, s) ->
      Printf.sprintf "KeyInsert(%d,%s)" k (match s with Some s -> string_of_int s | None -> "inf")
  | M_probe_write (r, k, p) -> Printf.sprintf "ProbeWrite(%s,%d,%d)" r k p
  | M_probe_index p -> Printf.sprintf "ProbeIndex(%d)" p
  | M_probe_nextkey (k, s) ->
      Printf.sprintf "ProbeNextkey(%d,%s)" k
        (match s with Some s -> string_of_int s | None -> "inf")

let mop_gen =
  QCheck.Gen.(
    let slot = int_range 0 (model_slots - 1) in
    let rel = oneofl [ "r"; "s" ] and key = int_range 0 5 and page = int_range 0 2 in
    let succ = opt key in
    frequency
      [
        (6, map3 (fun o (r, k) p -> M_tuple (o, r, k, p)) slot (pair rel key) page);
        ( 3,
          map3 (fun o (r, p) ks -> M_batch (o, r, p, ks)) slot (pair rel page)
            (list_size (int_range 1 5) key) );
        (2, map3 (fun o r p -> M_page (o, r, p)) slot rel page);
        (1, map2 (fun o r -> M_relation (o, r)) slot rel);
        (3, map2 (fun o p -> M_index_page (o, p)) slot page);
        (3, map2 (fun o k -> M_index_key (o, k)) slot key);
        (1, map (fun o -> M_index_inf o) slot);
        (1, map (fun o -> M_index_rel o) slot);
        (2, map3 (fun o r k -> M_unlock (o, r, k)) slot rel key);
        (1, map (fun o -> M_release o) slot);
        (2, map (fun o -> M_summarize o) slot);
        (1, return M_cleanup);
        (1, map2 (fun a b -> M_split (a, b)) page page);
        (1, map2 (fun k s -> M_key_insert (k, s)) key succ);
        (2, map3 (fun r k p -> M_probe_write (r, k, p)) rel key page);
        (1, map (fun p -> M_probe_index p) page);
        (1, map2 (fun k s -> M_probe_nextkey (k, s)) key succ);
      ])

let sorted_dump d = List.sort compare d

(* Every step drives the lock manager and the model alike; afterwards the
   readers a probe reports (holder order included), the sorted dump
   (each entry's holder order included), [total_lock_count], each live
   owner's [owner_lock_count] and the promotion count must agree. *)
let prop_matches_model =
  QCheck.Test.make ~name:"lock table ≡ list-based SIREAD lock manager" ~count:400
    (QCheck.make ~print:QCheck.Print.(list print_mop)
       QCheck.Gen.(list_size (int_range 1 80) mop_gen))
    (fun mops ->
      let config =
        {
          max_tuple_locks_per_page = 2;
          max_page_locks_per_relation = 2;
          max_page_locks_per_index = 2;
        }
      in
      let t = create ~config () and m = Model.create config in
      let owners = Array.init model_slots (fun i -> i + 1) and next = ref (model_slots + 1) in
      let retire slot =
        owners.(slot) <- !next;
        incr next
      in
      let cseq = ref 0 and index = "i" in
      let gap s = match s with Some s -> Index_key (index, vi s) | None -> Index_inf index in
      List.iteri
        (fun step op ->
          let fail what =
            QCheck.Test.fail_reportf "step %d (%s): %s differs" step (print_mop op) what
          in
          let same_readers (r : readers) (xids, oc) =
            if r.xids <> xids || r.old_committed <> oc then fail "readers"
          in
          (match op with
          | M_tuple (o, rel, k, page) ->
              lock_tuple t ~owner:owners.(o) ~rel ~key:(vi k) ~page;
              Model.lock_tuple m owners.(o) ~rel ~key:(vi k) ~page
          | M_batch (o, rel, page, ks) ->
              lock_tuples_page t ~owner:owners.(o) ~rel ~page ~keys:(List.map vi ks);
              List.iter (fun k -> Model.lock_tuple m owners.(o) ~rel ~key:(vi k) ~page) ks
          | M_page (o, rel, page) ->
              lock_page t ~owner:owners.(o) ~rel ~page;
              Model.lock_page m owners.(o) ~rel ~page
          | M_relation (o, rel) ->
              lock_relation t ~owner:owners.(o) ~rel;
              Model.lock_relation m owners.(o) ~rel
          | M_index_page (o, page) ->
              lock_index_page t ~owner:owners.(o) ~index ~page;
              Model.lock_index_page m owners.(o) ~index ~page
          | M_index_key (o, k) ->
              lock_index_key t ~owner:owners.(o) ~index ~key:(vi k);
              Model.lock_index_key m owners.(o) ~index ~key:(vi k)
          | M_index_inf o ->
              lock_index_inf t ~owner:owners.(o) ~index;
              Model.lock_index_inf m owners.(o) ~index
          | M_index_rel o ->
              lock_index_rel t ~owner:owners.(o) ~index;
              Model.lock_index_rel m owners.(o) ~index
          | M_unlock (o, rel, k) ->
              unlock_tuple t ~owner:owners.(o) ~rel ~key:(vi k);
              Model.unlock_tuple m owners.(o) ~rel ~key:(vi k)
          | M_release o ->
              release_owner t owners.(o);
              Model.release_owner m owners.(o);
              retire o
          | M_summarize o ->
              incr cseq;
              summarize_owner t owners.(o) ~cseq:!cseq;
              Model.summarize_owner m owners.(o) ~cseq:!cseq;
              retire o
          | M_cleanup ->
              (* Half-way up the recorded marks, so some survive. *)
              let before = (!cseq / 2) + 1 in
              cleanup_old_committed t ~before;
              Model.cleanup_old_committed m ~before
          | M_split (old_page, new_page) ->
              on_index_page_split t ~index ~old_page ~new_page;
              Model.copy_locks m (Index_page (index, old_page)) (Index_page (index, new_page))
                (fun o -> Model.lock_index_page m o ~index ~page:new_page)
          | M_key_insert (k, succ) ->
              on_index_key_insert t ~index ~key:(vi k) ~succ:(Option.map vi succ);
              Model.copy_locks m (gap succ) (Index_key (index, vi k)) (fun o ->
                  Model.lock_index_key m o ~index ~key:(vi k))
          | M_probe_write (rel, k, page) ->
              same_readers
                (readers_for_write t ~rel ~key:(vi k) ~page)
                (Model.collect m [ Relation rel; Page (rel, page); Tuple (rel, vi k) ])
          | M_probe_index page ->
              same_readers
                (readers_for_index_insert t ~index ~page)
                (Model.collect m [ Index_rel index; Index_page (index, page) ])
          | M_probe_nextkey (k, succ) ->
              same_readers
                (readers_for_index_insert_nextkey t ~index ~key:(vi k) ~succ:(Option.map vi succ))
                (Model.collect m [ Index_rel index; Index_key (index, vi k); gap succ ]));
          if sorted_dump (dump t) <> sorted_dump (Model.dump m) then fail "dump";
          if total_lock_count t <> Model.total_lock_count m then fail "total_lock_count";
          if promotions t <> m.Model.promotions then fail "promotions";
          Array.iter
            (fun o ->
              let mine = try (List.assoc o m.Model.owners).Model.held with Not_found -> [] in
              if owner_lock_count t o <> List.length mine then fail "owner_lock_count";
              List.iter (fun tg -> if not (holds t ~owner:o tg) then fail "holds") mine)
            owners)
        mops;
      true)

let () =
  Alcotest.run "predlock"
    [
      ( "basics",
        [
          Alcotest.test_case "tuple lock lookup" `Quick test_tuple_lock_and_lookup;
          Alcotest.test_case "page covers tuples" `Quick test_page_lock_covers_tuples;
          Alcotest.test_case "relation covers all" `Quick test_relation_lock_covers_all;
          Alcotest.test_case "multiple owners, coarse first" `Quick test_multiple_owners;
          Alcotest.test_case "unlock tuple" `Quick test_unlock_tuple;
          Alcotest.test_case "release owner" `Quick test_release_owner;
          Alcotest.test_case "counts" `Quick test_counts;
        ] );
      ( "promotion",
        [
          Alcotest.test_case "tuple to page" `Quick test_promotion_tuple_to_page;
          Alcotest.test_case "page to relation" `Quick test_promotion_page_to_relation;
          Alcotest.test_case "index pages" `Quick test_promotion_index;
          Alcotest.test_case "coarser subsumes finer" `Quick test_no_finer_lock_under_coarser;
        ] );
      ( "summarization",
        [
          Alcotest.test_case "summarize owner" `Quick test_summarize_owner;
          Alcotest.test_case "cleanup" `Quick test_cleanup_old_committed;
        ] );
      ( "structure",
        [
          Alcotest.test_case "page split copies locks" `Quick test_index_page_split_copies;
          Alcotest.test_case "table rewrite promotes" `Quick test_ddl_promote_relation;
          Alcotest.test_case "index drop transfers" `Quick test_ddl_drop_index;
        ] );
      ("model", [ QCheck_alcotest.to_alcotest prop_matches_model ]);
    ]
