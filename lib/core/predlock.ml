open Ssi_storage
module Obs = Ssi_obs.Obs

type xid = Heap.xid
type cseq = Ssi_mvcc.Mvcc.cseq

type target = Locktab.target =
  | Relation of string
  | Page of string * int
  | Tuple of string * Value.t
  | Index_page of string * int
  | Index_key of string * Value.t
  | Index_inf of string
  | Index_rel of string

let pp_target = Locktab.pp_target

type config = {
  max_tuple_locks_per_page : int;
  max_page_locks_per_relation : int;
  max_page_locks_per_index : int;
}

let default_config =
  { max_tuple_locks_per_page = 4; max_page_locks_per_relation = 16; max_page_locks_per_index = 16 }

(* Registry handles, hoisted so the hot acquisition paths touch no
   hashtable. *)
type metrics = {
  m_relation : Obs.counter;
  m_page : Obs.counter;
  m_tuple : Obs.counter;
  m_index_page : Obs.counter;
  m_index_key : Obs.counter;
  m_index_inf : Obs.counter;
  m_index_rel : Obs.counter;
  m_promotions : Obs.counter;
}

(* Min-heap of (cseq, slot) for every dummy-owner mark ever recorded:
   {!cleanup_old_committed} pops the stale prefix instead of scanning the
   whole lock table on every commit's cleanup pass.  Items are lazily
   revalidated against the slot's current mark.  A slot may have been
   freed and reused since its item was pushed, but a stale item can only
   match a mark equal to its own cseq, whose own item pops in the same
   pass: the outcome is that of exact per-target revalidation. *)
module Oldc_heap = struct
  type h = { mutable c : int array; mutable s : int array; mutable n : int }

  let create () = { c = Array.make 16 0; s = Array.make 16 0; n = 0 }

  let push h c s =
    if h.n = Array.length h.c then begin
      let grow a =
        let a' = Array.make (2 * h.n) 0 in
        Array.blit a 0 a' 0 h.n;
        a'
      in
      h.c <- grow h.c;
      h.s <- grow h.s
    end;
    let i = ref h.n in
    h.n <- h.n + 1;
    while !i > 0 && h.c.((!i - 1) / 2) > c do
      let p = (!i - 1) / 2 in
      h.c.(!i) <- h.c.(p);
      h.s.(!i) <- h.s.(p);
      i := p
    done;
    h.c.(!i) <- c;
    h.s.(!i) <- s

  let pop h =
    h.n <- h.n - 1;
    let n = h.n in
    if n > 0 then begin
      let c = h.c.(n) and s = h.s.(n) in
      let i = ref 0 in
      let stop = ref false in
      while not !stop do
        let l = (2 * !i) + 1 in
        if l >= n then stop := true
        else begin
          let r = l + 1 in
          let m = if r < n && h.c.(r) < h.c.(l) then r else l in
          if h.c.(m) < c then begin
            h.c.(!i) <- h.c.(m);
            h.s.(!i) <- h.s.(m);
            i := m
          end
          else stop := true
        end
      done;
      h.c.(!i) <- c;
      h.s.(!i) <- s
    end
end

(* Each owner's fine locks per group, for the promotion thresholds:
   tuple locks on one heap page (kind 0: relation and page), page locks on
   one relation (kind 1) and page or next-key locks on one index (kind 2).
   Every grant and every drop of such a lock moves its group's count, so a
   threshold check costs one probe however many locks the owner holds.
   Open-addressed on (owner record, kind, name, number), linear probing
   with backward-shift deletion; a group's entry goes when its count
   reaches zero. *)
module Groups = struct
  type t = {
    mutable orec : int array;  (** -1: empty bucket *)
    mutable kind : int array;
    mutable num : int array;
    mutable name : string array;
    mutable count : int array;
    mutable live : int;
  }

  let create n =
    {
      orec = Array.make n (-1);
      kind = Array.make n 0;
      num = Array.make n 0;
      name = Array.make n "";
      count = Array.make n 0;
      live = 0;
    }

  let home g o k name n =
    ((((((Hashtbl.hash name * 65599) + n) * 31) + k) * 65599) + o) land (Array.length g.orec - 1)

  (* The group's bucket, or the empty bucket where it would go. *)
  let bucket g o k name n =
    let mask = Array.length g.orec - 1 in
    let i = ref (home g o k name n) in
    while
      g.orec.(!i) >= 0
      && not
           (g.orec.(!i) = o && g.kind.(!i) = k && g.num.(!i) = n && String.equal g.name.(!i) name)
    do
      i := (!i + 1) land mask
    done;
    !i

  let count g o k name n =
    let i = bucket g o k name n in
    if g.orec.(i) < 0 then 0 else g.count.(i)

  let move g ~src ~dst =
    g.orec.(dst) <- g.orec.(src);
    g.kind.(dst) <- g.kind.(src);
    g.num.(dst) <- g.num.(src);
    g.name.(dst) <- g.name.(src);
    g.count.(dst) <- g.count.(src)

  let remove g i =
    let mask = Array.length g.orec - 1 in
    let hole = ref i and j = ref ((i + 1) land mask) in
    while g.orec.(!j) >= 0 do
      let h = home g g.orec.(!j) g.kind.(!j) g.name.(!j) g.num.(!j) in
      if (!hole - h) land mask < (!j - h) land mask then begin
        move g ~src:!j ~dst:!hole;
        hole := !j
      end;
      j := (!j + 1) land mask
    done;
    g.orec.(!hole) <- -1;
    g.name.(!hole) <- "";
    g.live <- g.live - 1

  let rec add g o k name n d =
    let i = bucket g o k name n in
    if g.orec.(i) >= 0 then begin
      let c = g.count.(i) + d in
      if c > 0 then g.count.(i) <- c else remove g i
    end
    else if d <= 0 then ()
    else if 2 * (g.live + 1) > Array.length g.orec then begin
      let old = { g with orec = g.orec } in
      let size = 2 * Array.length g.orec in
      g.orec <- Array.make size (-1);
      g.kind <- Array.make size 0;
      g.num <- Array.make size 0;
      g.name <- Array.make size "";
      g.count <- Array.make size 0;
      Array.iteri
        (fun j o' ->
          if o' >= 0 then begin
            let b = bucket g o' old.kind.(j) old.name.(j) old.num.(j) in
            g.orec.(b) <- o';
            g.kind.(b) <- old.kind.(j);
            g.num.(b) <- old.num.(j);
            g.name.(b) <- old.name.(j);
            g.count.(b) <- old.count.(j)
          end)
        old.orec;
      add g o k name n d
    end
    else begin
      g.orec.(i) <- o;
      g.kind.(i) <- k;
      g.num.(i) <- n;
      g.name.(i) <- name;
      g.count.(i) <- d;
      g.live <- g.live + 1
    end
end

(* Slots carry the dummy owner's mark in their field.  An owner's record
   field is its coverage memo: the slot of the last heap-page lock a tuple
   check hit, or -1.  A holding's value is the heap page a tuple lock was
   taken on (0 for other targets): a page lock finds the tuple locks it
   subsumes on the owner's chain, and a holding leaves its group count
   with it. *)
type t = {
  table : Locktab.t;
  groups : Groups.t;
  config : config;
  oldc : Oldc_heap.h;
  metrics : metrics;
}

let create ?(config = default_config) ?(obs = Obs.create ()) () =
  let metrics =
    {
      m_relation = Obs.counter obs "predlock.locks.relation";
      m_page = Obs.counter obs "predlock.locks.page";
      m_tuple = Obs.counter obs "predlock.locks.tuple";
      m_index_page = Obs.counter obs "predlock.locks.index_page";
      m_index_key = Obs.counter obs "predlock.locks.index_key";
      m_index_inf = Obs.counter obs "predlock.locks.index_inf";
      m_index_rel = Obs.counter obs "predlock.locks.index_rel";
      m_promotions = Obs.counter obs "predlock.promotions";
    }
  in
  {
    table = Locktab.create ();
    groups = Groups.create 64;
    config;
    oldc = Oldc_heap.create ();
    metrics;
  }

let count_acquired t = function
  | Relation _ -> Obs.incr t.metrics.m_relation
  | Page _ -> Obs.incr t.metrics.m_page
  | Tuple _ -> Obs.incr t.metrics.m_tuple
  | Index_page _ -> Obs.incr t.metrics.m_index_page
  | Index_key _ -> Obs.incr t.metrics.m_index_key
  | Index_inf _ -> Obs.incr t.metrics.m_index_inf
  | Index_rel _ -> Obs.incr t.metrics.m_index_rel

let held t o slot = slot >= 0 && Locktab.holding t.table slot o >= 0

let holds t ~owner target =
  let o = Locktab.owner t.table owner in
  o >= 0 && held t o (Locktab.find t.table target)

(* Record [cseq] as the dummy owner's mark on [slot] if newer than the
   current one, and index it in the cleanup heap.  Marks only ever grow
   (commit cseqs are unique), so pushing exactly on change keeps the heap's
   exact-match revalidation sound. *)
let set_old_committed t slot cseq =
  let m = Locktab.field t.table slot in
  if m = Locktab.none || m < cseq then begin
    Locktab.set_field t.table slot cseq;
    Oldc_heap.push t.oldc cseq slot
  end

let memo_hit t o rel page =
  let m = Locktab.owner_field t.table o in
  m >= 0
  &&
  match Locktab.target t.table m with
  | Page (r, p) -> p = page && String.equal r rel
  | Relation _ | Tuple _ | Index_page _ | Index_key _ | Index_inf _ | Index_rel _ -> false

let tuples_on_page = 0
let pages_of_rel = 1
let fine_of_index = 2

(* Count a holding of [o] on [target] (value [v]) into its group. *)
let move_group t o target v d =
  match target with
  | Tuple (r, _) -> Groups.add t.groups o tuples_on_page r v d
  | Page (r, _) -> Groups.add t.groups o pages_of_rel r 0 d
  | Index_page (i, _) | Index_key (i, _) -> Groups.add t.groups o fine_of_index i 0 d
  | Relation _ | Index_inf _ | Index_rel _ -> ()

(* Remove node [n] of owner [o], keeping its group's count. *)
let unhold t o n =
  let tab = t.table in
  move_group t o (Locktab.target tab (Locktab.slot tab n)) (Locktab.value tab n) (-1);
  Locktab.remove tab n

(* Drop [o]'s holding on [slot], if any. *)
let forget t o slot =
  let tab = t.table in
  let n = if slot >= 0 then Locktab.holding tab slot o else -1 in
  if n >= 0 then begin
    if Locktab.owner_field tab o = slot then Locktab.set_owner_field tab o (-1);
    unhold t o n;
    Locktab.drop_if_idle tab slot
  end

(* Give [o] a holding on [slot] unless it has one; [page] is the heap page
   of a tuple lock. *)
let grant_slot t o slot ~page =
  let tab = t.table in
  if Locktab.holding tab slot o >= 0 then false
  else begin
    ignore (Locktab.add tab ~slot ~owner:o page);
    let target = Locktab.target tab slot in
    move_group t o target page 1;
    (match target with
    | Page _ -> Locktab.set_owner_field tab o slot
    | Relation _ | Tuple _ | Index_page _ | Index_key _ | Index_inf _ | Index_rel _ -> ());
    count_acquired t target;
    true
  end

let grant t o target ~page = grant_slot t o (Locktab.intern t.table target) ~page

(* Classes of an owner's fine-grained locks, as predicates on a holding's
   target and value; [name] is a relation or an index. *)
let rel_fine name _ tg _ =
  match tg with
  | Page (r, _) | Tuple (r, _) -> String.equal r name
  | Relation _ | Index_page _ | Index_key _ | Index_inf _ | Index_rel _ -> false

let page_tuples name page tg v =
  v = page
  &&
  match tg with
  | Tuple (r, _) -> String.equal r name
  | Relation _ | Page _ | Index_page _ | Index_key _ | Index_inf _ | Index_rel _ -> false

let index_pages name _ tg _ =
  match tg with
  | Index_page (i, _) -> String.equal i name
  | Relation _ | Page _ | Tuple _ | Index_key _ | Index_inf _ | Index_rel _ -> false

let index_fine name _ tg _ =
  match tg with
  | Index_page (i, _) | Index_key (i, _) | Index_inf i -> String.equal i name
  | Relation _ | Page _ | Tuple _ | Index_rel _ -> false

let count_held t o cls name page =
  let tab = t.table in
  let c = ref 0 and n = ref (Locktab.first_held tab o) in
  while !n >= 0 do
    if cls name page (Locktab.target tab (Locktab.slot tab !n)) (Locktab.value tab !n) then incr c;
    n := Locktab.next_held tab !n
  done;
  !c

let forget_held t o cls name page =
  let tab = t.table in
  let n = ref (Locktab.first_held tab o) in
  while !n >= 0 do
    let next = Locktab.next_held tab !n in
    let slot = Locktab.slot tab !n in
    if cls name page (Locktab.target tab slot) (Locktab.value tab !n) then forget t o slot;
    n := next
  done

let covered_rel t o rel = held t o (Locktab.find_relation t.table rel)
let covered_index t o index = held t o (Locktab.find_index_rel t.table index)

let lock_relation t ~owner ~rel =
  ignore (grant t (Locktab.owner_record t.table owner) (Relation rel) ~page:0)

let lock_index_rel t ~owner ~index =
  ignore (grant t (Locktab.owner_record t.table owner) (Index_rel index) ~page:0)

(* Promote all of the owner's page and tuple locks on [rel] to a single
   relation lock. *)
let promote_owner_relation t o rel =
  Obs.incr t.metrics.m_promotions;
  forget_held t o rel_fine rel 0;
  ignore (grant t o (Relation rel) ~page:0)

let lock_page_o t o ~rel ~page =
  if covered_rel t o rel then ()
  else if grant t o (Page (rel, page)) ~page:0 then begin
    (* Page lock subsumes the owner's tuple locks on that page. *)
    forget_held t o page_tuples rel page;
    if Groups.count t.groups o pages_of_rel rel 0 > t.config.max_page_locks_per_relation then
      promote_owner_relation t o rel
  end

let lock_page t ~owner ~rel ~page = lock_page_o t (Locktab.owner_record t.table owner) ~rel ~page

(* Coarse coverage of a heap tuple: relation-level, page-level via the
   single-page memo, or page-level via the table (which refreshes the
   memo, so a scan's next tuple on the same page hits the memo).  Nothing
   here allocates. *)
let tuple_covered t o ~rel ~page =
  covered_rel t o rel
  || memo_hit t o rel page
  ||
  let slot = Locktab.find_page t.table rel page in
  held t o slot
  && begin
       Locktab.set_owner_field t.table o slot;
       true
     end

let covers_tuple t ~owner ~rel ~page =
  let o = Locktab.owner t.table owner in
  o >= 0 && tuple_covered t o ~rel ~page

let lock_tuple_slow t o ~rel ~key ~page =
  let slot =
    let s = Locktab.find_tuple t.table rel key in
    if s >= 0 then s else Locktab.intern t.table (Tuple (rel, key))
  in
  if grant_slot t o slot ~page then
    let tuples = Groups.count t.groups o tuples_on_page rel page in
    if tuples > t.config.max_tuple_locks_per_page then begin
      Obs.incr t.metrics.m_promotions;
      lock_page_o t o ~rel ~page
    end

let lock_tuple t ~owner ~rel ~key ~page =
  let o = Locktab.owner_record t.table owner in
  if tuple_covered t o ~rel ~page then ()
  else lock_tuple_slow t o ~rel ~key ~page

(* Re-check before each key: acquiring one may promote the owner to page
   or relation coverage, after which the remaining keys are no-ops —
   exactly as sequential [lock_tuple] calls behave. *)
let rec lock_keys t o ~rel ~page = function
  | [] -> ()
  | key :: keys ->
      if not (covered_rel t o rel || memo_hit t o rel page) then
        lock_tuple_slow t o ~rel ~key ~page;
      lock_keys t o ~rel ~page keys

let lock_tuples_page t ~owner ~rel ~page ~keys =
  let o = Locktab.owner_record t.table owner in
  if not (tuple_covered t o ~rel ~page) then lock_keys t o ~rel ~page keys

(* Promote all of the owner's index-page locks on [index] to a whole-index
   lock. *)
let promote_owner_index t o index =
  Obs.incr t.metrics.m_promotions;
  forget_held t o index_pages index 0;
  ignore (grant t o (Index_rel index) ~page:0)

(* Next-key gap locks share the per-index promotion budget with page
   locks: too many fine index locks promote to a whole-index lock, which
   drops every fine lock on the index, the above-highest gap included. *)
let note_index_fine t o index =
  if Groups.count t.groups o fine_of_index index 0 > t.config.max_page_locks_per_index then begin
    Obs.incr t.metrics.m_promotions;
    forget_held t o index_fine index 0;
    ignore (grant t o (Index_rel index) ~page:0)
  end

let lock_index_key t ~owner ~index ~key =
  let o = Locktab.owner_record t.table owner in
  if covered_index t o index then ()
  else if grant t o (Index_key (index, key)) ~page:0 then note_index_fine t o index

let lock_index_inf t ~owner ~index =
  let o = Locktab.owner_record t.table owner in
  if covered_index t o index then () else ignore (grant t o (Index_inf index) ~page:0)

let lock_index_page t ~owner ~index ~page =
  let o = Locktab.owner_record t.table owner in
  if covered_index t o index then ()
  else if grant t o (Index_page (index, page)) ~page:0 then
    if Groups.count t.groups o fine_of_index index 0 > t.config.max_page_locks_per_index then
      promote_owner_index t o index

let unlock_tuple t ~owner ~rel ~key =
  let o = Locktab.owner t.table owner in
  if o >= 0 then forget t o (Locktab.find_tuple t.table rel key)

type readers = { xids : xid list; old_committed : cseq option }

(* Holders of the given slots (-1: absent), coarsest to finest per §5.2.1,
   each slot's newest first, without repeats. *)
let collect t slots =
  let tab = t.table in
  let xids = ref [] and old_c = ref Locktab.none in
  List.iter
    (fun slot ->
      if slot >= 0 then begin
        let n = ref (Locktab.first_holder tab slot) in
        while !n >= 0 do
          let o = Locktab.holder tab !n in
          if not (List.mem o !xids) then xids := o :: !xids;
          n := Locktab.next_holder tab !n
        done;
        old_c := max !old_c (Locktab.field tab slot)
      end)
    slots;
  { xids = List.rev !xids; old_committed = (if !old_c = Locktab.none then None else Some !old_c) }

let readers_for_write t ~rel ~key ~page =
  let tab = t.table in
  collect t
    [
      Locktab.find_relation tab rel; Locktab.find_page tab rel page; Locktab.find_tuple tab rel key;
    ]

let readers_for_index_insert t ~index ~page =
  let tab = t.table in
  collect t [ Locktab.find_index_rel tab index; Locktab.find_index_page tab index page ]

let gap_target index = function
  | Some s -> Index_key (index, s)
  | None -> Index_inf index

let readers_for_index_insert_nextkey t ~index ~key ~succ =
  let tab = t.table in
  collect t
    [
      Locktab.find_index_rel tab index;
      Locktab.find tab (Index_key (index, key));
      Locktab.find tab (gap_target index succ);
    ]

(* Drop every holding of [owner], first applying [on_slot] to each held
   slot, and recycle its record. *)
let retire_owner t owner on_slot cseq =
  let tab = t.table in
  let o = Locktab.owner tab owner in
  if o >= 0 then begin
    let n = ref (Locktab.first_held tab o) in
    while !n >= 0 do
      let next = Locktab.next_held tab !n in
      let slot = Locktab.slot tab !n in
      unhold t o !n;
      on_slot t slot cseq;
      Locktab.drop_if_idle tab slot;
      n := next
    done;
    Locktab.free_owner tab o
  end

let release_owner t owner = retire_owner t owner (fun _ _ _ -> ()) 0
let summarize_owner t owner ~cseq = retire_owner t owner set_old_committed cseq

let cleanup_old_committed t ~before =
  (* Pop the heap's stale prefix; each item is revalidated against the
     slot's current mark, so items superseded by a newer mark (or cleared
     by the DDL paths) are skipped. *)
  let h = t.oldc and tab = t.table in
  while h.Oldc_heap.n > 0 && h.c.(0) < before do
    let c = h.c.(0) and slot = h.s.(0) in
    Oldc_heap.pop h;
    if Locktab.field tab slot = c then begin
      Locktab.set_field tab slot Locktab.none;
      Locktab.drop_if_idle tab slot
    end
  done

let holder_list t slot =
  let tab = t.table in
  let rec go n = if n < 0 then [] else Locktab.holder tab n :: go (Locktab.next_holder tab n) in
  go (Locktab.first_holder tab slot)

(* Copy [src]'s holders and mark onto [dst] through [lock], the owner's
   lock call for [dst]: coverage only widens. *)
let copy_locks t src dst lock =
  let slot = Locktab.find t.table src in
  if slot >= 0 then begin
    let holders = holder_list t slot and old_c = Locktab.field t.table slot in
    List.iter lock holders;
    if old_c <> Locktab.none then set_old_committed t (Locktab.intern t.table dst) old_c
  end

let on_index_page_split t ~index ~old_page ~new_page =
  copy_locks t (Index_page (index, old_page)) (Index_page (index, new_page)) (fun owner ->
      lock_index_page t ~owner ~index ~page:new_page)

(* Gap-lock inheritance for next-key locking.  A reader's lock on an index
   key guards the open gap below that key; when a physical index-entry
   insert at [key] splits that gap, or a rollback removing [key] merges it
   into the successor's, the guarding locks must follow the gap or a later
   insert into it would miss the reader.  Inheritance copies (never moves)
   holders and the committed-reader mark, so coverage only widens: the
   worst case is a spurious rw conflict, never a hidden one.  This mirrors
   {!on_index_page_split}, which does the same for page-granularity gaps. *)
let inherit_gap_locks t ~src ~dst =
  copy_locks t src dst (fun owner ->
      match dst with
      | Index_key (index, key) -> lock_index_key t ~owner ~index ~key
      | Index_inf index -> lock_index_inf t ~owner ~index
      | Relation _ | Page _ | Tuple _ | Index_page _ | Index_rel _ -> ())

let on_index_key_insert t ~index ~key ~succ =
  inherit_gap_locks t ~src:(gap_target index succ) ~dst:(Index_key (index, key))

let on_index_key_remove t ~index ~key ~succ =
  inherit_gap_locks t ~src:(Index_key (index, key)) ~dst:(gap_target index succ)

(* Clear the dummy owner's marks on every slot whose target satisfies
   [matches], and return the newest of them ([Locktab.none] if none). *)
let clear_dummy t matches =
  let tab = t.table in
  let newest = ref Locktab.none and stale = ref [] in
  Locktab.iter_slots tab (fun slot ->
      let c = Locktab.field tab slot in
      if c <> Locktab.none && matches (Locktab.target tab slot) then begin
        newest := max !newest c;
        stale := slot :: !stale
      end);
  List.iter
    (fun slot ->
      Locktab.set_field tab slot Locktab.none;
      Locktab.drop_if_idle tab slot)
    !stale;
  !newest

let promote_relation t ~rel =
  (* Every owner's page/tuple locks on [rel] become a relation lock; the
     dummy owner's become a dummy relation-level lock. *)
  let tab = t.table in
  let owners = ref [] in
  Locktab.iter_owners tab (fun o ->
      if count_held t o rel_fine rel 0 > 0 then owners := o :: !owners);
  List.iter (fun o -> promote_owner_relation t o rel) (List.rev !owners);
  let c = clear_dummy t (fun tg -> rel_fine rel 0 tg 0) in
  if c <> Locktab.none then set_old_committed t (Locktab.intern tab (Relation rel)) c

let drop_index_to_relation t ~index ~heap_rel =
  let tab = t.table in
  let on_index = function
    | Index_page (i, _) | Index_key (i, _) | Index_inf i | Index_rel i -> String.equal i index
    | Relation _ | Page _ | Tuple _ -> false
  in
  let owners = ref [] in
  Locktab.iter_owners tab (fun o ->
      let n = ref (Locktab.first_held tab o) in
      while !n >= 0 do
        if on_index (Locktab.target tab (Locktab.slot tab !n)) then begin
          owners := o :: !owners;
          n := -1
        end
        else n := Locktab.next_held tab !n
      done);
  List.iter
    (fun o ->
      forget_held t o index_fine index 0;
      forget t o (Locktab.find_index_rel tab index);
      ignore (grant t o (Relation heap_rel) ~page:0))
    (List.rev !owners);
  let c = clear_dummy t on_index in
  if c <> Locktab.none then set_old_committed t (Locktab.intern tab (Relation heap_rel)) c

let dump t =
  let tab = t.table and acc = ref [] in
  Locktab.iter_slots tab (fun slot ->
      let c = Locktab.field tab slot in
      acc :=
        (Locktab.target tab slot, holder_list t slot, if c = Locktab.none then None else Some c)
        :: !acc);
  List.rev !acc

let owner_lock_count t owner =
  let o = Locktab.owner t.table owner in
  if o < 0 then 0 else Locktab.owner_count t.table o

let total_lock_count t =
  let n = ref (Locktab.holdings t.table) in
  Locktab.iter_slots t.table (fun slot ->
      if Locktab.field t.table slot <> Locktab.none then incr n);
  !n

let promotions t = Obs.counter_value t.metrics.m_promotions
