type target =
  | Relation of string
  | Page of string * int
  | Tuple of string * Value.t
  | Index_page of string * int
  | Index_key of string * Value.t
  | Index_inf of string
  | Index_rel of string

let pp_target ppf = function
  | Relation r -> Format.fprintf ppf "rel:%s" r
  | Page (r, p) -> Format.fprintf ppf "page:%s/%d" r p
  | Tuple (r, k) -> Format.fprintf ppf "tuple:%s/%a" r Value.pp k
  | Index_page (i, p) -> Format.fprintf ppf "idxpage:%s/%d" i p
  | Index_key (i, k) -> Format.fprintf ppf "idxkey:%s/%a" i Value.pp k
  | Index_inf i -> Format.fprintf ppf "idxinf:%s" i
  | Index_rel i -> Format.fprintf ppf "idx:%s" i

(* A target is looked up by its parts: a kind tag, a name, and either an
   int ([Page], [Index_page]) or a key ([Tuple], [Index_key]), so that a
   probe never has to build the target it looks for. *)
let tag_relation = 0
let tag_page = 1
let tag_tuple = 2
let tag_index_page = 3
let tag_index_rel = 4
let tag_index_key = 5
let tag_index_inf = 6

(* Mixes the name's hash with the other component and the kind's tag
   arithmetically: no tuple is built just to be hashed. *)
let mix name x tag = (((Hashtbl.hash name * 65599) + x) * 31) + tag

let hash_parts tag name n key =
  mix name (if tag = tag_tuple || tag = tag_index_key then Value.hash key else n) tag

let matches tg tag name n key =
  match tg with
  | Relation r -> tag = tag_relation && String.equal r name
  | Page (r, p) -> tag = tag_page && p = n && String.equal r name
  | Tuple (r, k) -> tag = tag_tuple && String.equal r name && Value.equal k key
  | Index_page (i, p) -> tag = tag_index_page && p = n && String.equal i name
  | Index_rel i -> tag = tag_index_rel && String.equal i name
  | Index_key (i, k) -> tag = tag_index_key && String.equal i name && Value.equal k key
  | Index_inf i -> tag = tag_index_inf && String.equal i name

let none = min_int

(* Records live in int arrays at a fixed stride.  A slot is an interned
   target; a node is one holding of a slot by an owner; an owner record
   heads the owner's chain. *)
let s_hash = 0
let s_first = 1 (* newest node on the slot, or -1 *)
let s_count = 2 (* nodes on the slot; -1 when the slot is free *)
let s_field = 3
let s_size = 4
let n_owner = 0
let n_orec = 1
let n_slot = 2
let n_value = 3
let n_tnext = 4 (* older node on the same slot *)
let n_tprev = 5
let n_onext = 6 (* older node of the same owner *)
let n_oprev = 7
let n_size = 8
let o_xid = 0
let o_first = 1 (* newest node of the owner, or -1 *)
let o_count = 2 (* nodes of the owner; -1 when the record is free *)
let o_field = 3
let o_size = 4

(* A slab of records of [stride] ints.  Free records form a list threaded
   through their field [link]. *)
type slab = {
  stride : int;
  link : int;
  mutable a : int array;
  mutable top : int;  (** records ever used *)
  mutable free : int;
  mutable live : int;
}

let grown a fill =
  let a' = Array.make (2 * Array.length a) fill in
  Array.blit a 0 a' 0 (Array.length a);
  a'

let slab ~stride ~link n =
  { stride; link; a = Array.make (n * stride) 0; top = 0; free = -1; live = 0 }

let take sl =
  let r =
    if sl.free >= 0 then begin
      let r = sl.free in
      sl.free <- sl.a.((r * sl.stride) + sl.link);
      r
    end
    else begin
      if (sl.top + 1) * sl.stride > Array.length sl.a then sl.a <- grown sl.a 0;
      sl.top <- sl.top + 1;
      sl.top - 1
    end
  in
  sl.live <- sl.live + 1;
  r

let give sl r =
  sl.a.((r * sl.stride) + sl.link) <- sl.free;
  sl.free <- r;
  sl.live <- sl.live - 1

(* Open addressing over a slab's records: linear probing with
   backward-shift deletion, so no tombstones build up.  Record [e]'s hash
   is its field [off]: the slot's target hash, or the owner's xid. *)
let index_add index sl off e =
  let mask = Array.length index - 1 in
  let i = ref (sl.a.((e * sl.stride) + off) land mask) in
  while index.(!i) >= 0 do
    i := (!i + 1) land mask
  done;
  index.(!i) <- e

let index_remove index sl off e =
  let mask = Array.length index - 1 in
  let i = ref (sl.a.((e * sl.stride) + off) land mask) in
  while index.(!i) <> e do
    i := (!i + 1) land mask
  done;
  let hole = ref !i and j = ref ((!i + 1) land mask) in
  while index.(!j) >= 0 do
    let e' = index.(!j) in
    let h = sl.a.((e' * sl.stride) + off) land mask in
    (* [e'] may fill the hole if the hole lies on its probe path. *)
    if (!hole - h) land mask < (!j - h) land mask then begin
      index.(!hole) <- e';
      hole := !j
    end;
    j := (!j + 1) land mask
  done;
  index.(!hole) <- -1

(* [index] after [sl] gained a record: doubled when over half full. *)
let index_for index sl off =
  if 2 * sl.live <= Array.length index then index
  else begin
    let index' = Array.make (2 * Array.length index) (-1) in
    Array.iter (fun e -> if e >= 0 then index_add index' sl off e) index;
    index'
  end

type t = {
  mutable keys : target array;  (** by slot; [dummy] when free *)
  slots : slab;
  mutable slot_index : int array;
  nodes : slab;
  owners : slab;
  mutable owner_index : int array;
}

let dummy = Relation ""

(* Initial slot and node capacity; the arrays double as needed. *)
let size = 64

let create () =
  {
    keys = Array.make size dummy;
    slots = slab ~stride:s_size ~link:s_first size;
    slot_index = Array.make (2 * size) (-1);
    nodes = slab ~stride:n_size ~link:n_tnext size;
    owners = slab ~stride:o_size ~link:o_first size;
    owner_index = Array.make (2 * size) (-1);
  }

(* ---- Slots -------------------------------------------------------------- *)

let lookup t tag name n key =
  let h = hash_parts tag name n key in
  let index = t.slot_index and slots = t.slots.a in
  let mask = Array.length index - 1 in
  let i = ref (h land mask) and found = ref (-2) in
  while !found = -2 do
    let s = index.(!i) in
    if s < 0 then found := -1
    else if slots.((s * s_size) + s_hash) = h && matches t.keys.(s) tag name n key then found := s
    else i := (!i + 1) land mask
  done;
  !found

let find t = function
  | Relation r -> lookup t tag_relation r 0 Value.Null
  | Page (r, p) -> lookup t tag_page r p Value.Null
  | Tuple (r, k) -> lookup t tag_tuple r 0 k
  | Index_page (i, p) -> lookup t tag_index_page i p Value.Null
  | Index_rel i -> lookup t tag_index_rel i 0 Value.Null
  | Index_key (i, k) -> lookup t tag_index_key i 0 k
  | Index_inf i -> lookup t tag_index_inf i 0 Value.Null

let find_relation t rel = lookup t tag_relation rel 0 Value.Null
let find_page t rel page = lookup t tag_page rel page Value.Null
let find_tuple t rel key = lookup t tag_tuple rel 0 key
let find_index_rel t index = lookup t tag_index_rel index 0 Value.Null
let find_index_page t index page = lookup t tag_index_page index page Value.Null

let hash_target = function
  | Relation r -> hash_parts tag_relation r 0 Value.Null
  | Page (r, p) -> hash_parts tag_page r p Value.Null
  | Tuple (r, k) -> hash_parts tag_tuple r 0 k
  | Index_page (i, p) -> hash_parts tag_index_page i p Value.Null
  | Index_rel i -> hash_parts tag_index_rel i 0 Value.Null
  | Index_key (i, k) -> hash_parts tag_index_key i 0 k
  | Index_inf i -> hash_parts tag_index_inf i 0 Value.Null

let intern t target =
  let s = find t target in
  if s >= 0 then s
  else begin
    let s = take t.slots in
    if s = Array.length t.keys then t.keys <- grown t.keys dummy;
    t.keys.(s) <- target;
    let b = s * s_size and slots = t.slots.a in
    slots.(b + s_hash) <- hash_target target;
    slots.(b + s_first) <- -1;
    slots.(b + s_count) <- 0;
    slots.(b + s_field) <- none;
    t.slot_index <- index_for t.slot_index t.slots s_hash;
    index_add t.slot_index t.slots s_hash s;
    s
  end

let target t s = t.keys.(s)
let holders t s = t.slots.a.((s * s_size) + s_count)
let field t s = t.slots.a.((s * s_size) + s_field)
let set_field t s v = t.slots.a.((s * s_size) + s_field) <- v
let first_holder t s = t.slots.a.((s * s_size) + s_first)

let drop_if_idle t s =
  let b = s * s_size and slots = t.slots.a in
  if slots.(b + s_count) = 0 && slots.(b + s_field) = none then begin
    index_remove t.slot_index t.slots s_hash s;
    t.keys.(s) <- dummy;
    slots.(b + s_count) <- -1;
    give t.slots s
  end

let iter_slots t f =
  for s = 0 to t.slots.top - 1 do
    if holders t s >= 0 then f s
  done

(* ---- Owners ------------------------------------------------------------- *)

(* Xids are handed out in sequence, so the identity spreads a window of
   live owners over distinct buckets. *)
let owner t xid =
  let index = t.owner_index and owners = t.owners.a in
  let mask = Array.length index - 1 in
  let i = ref (xid land mask) and found = ref (-2) in
  while !found = -2 do
    let o = index.(!i) in
    if o < 0 then found := -1
    else if owners.((o * o_size) + o_xid) = xid then found := o
    else i := (!i + 1) land mask
  done;
  !found

let owner_record t xid =
  let o = owner t xid in
  if o >= 0 then o
  else begin
    let o = take t.owners in
    let b = o * o_size and owners = t.owners.a in
    owners.(b + o_xid) <- xid;
    owners.(b + o_first) <- -1;
    owners.(b + o_count) <- 0;
    owners.(b + o_field) <- -1;
    t.owner_index <- index_for t.owner_index t.owners o_xid;
    index_add t.owner_index t.owners o_xid o;
    o
  end

let owner_count t o = t.owners.a.((o * o_size) + o_count)
let owner_field t o = t.owners.a.((o * o_size) + o_field)
let set_owner_field t o v = t.owners.a.((o * o_size) + o_field) <- v
let first_held t o = t.owners.a.((o * o_size) + o_first)

let free_owner t o =
  assert (owner_count t o = 0);
  index_remove t.owner_index t.owners o_xid o;
  t.owners.a.((o * o_size) + o_count) <- -1;
  give t.owners o

let iter_owners t f =
  for o = 0 to t.owners.top - 1 do
    if owner_count t o >= 0 then f o
  done

(* ---- Nodes -------------------------------------------------------------- *)

let add t ~slot ~owner:o value =
  let n = take t.nodes in
  let nodes = t.nodes.a and slots = t.slots.a and owners = t.owners.a in
  let b = n * n_size and sb = slot * s_size and ob = o * o_size in
  nodes.(b + n_owner) <- owners.(ob + o_xid);
  nodes.(b + n_orec) <- o;
  nodes.(b + n_slot) <- slot;
  nodes.(b + n_value) <- value;
  let f = slots.(sb + s_first) in
  nodes.(b + n_tnext) <- f;
  nodes.(b + n_tprev) <- -1;
  if f >= 0 then nodes.((f * n_size) + n_tprev) <- n;
  slots.(sb + s_first) <- n;
  slots.(sb + s_count) <- slots.(sb + s_count) + 1;
  let f = owners.(ob + o_first) in
  nodes.(b + n_onext) <- f;
  nodes.(b + n_oprev) <- -1;
  if f >= 0 then nodes.((f * n_size) + n_oprev) <- n;
  owners.(ob + o_first) <- n;
  owners.(ob + o_count) <- owners.(ob + o_count) + 1;
  n

let remove t n =
  let nodes = t.nodes.a and slots = t.slots.a and owners = t.owners.a in
  let b = n * n_size in
  let sb = nodes.(b + n_slot) * s_size and ob = nodes.(b + n_orec) * o_size in
  let p = nodes.(b + n_tprev) and x = nodes.(b + n_tnext) in
  if p >= 0 then nodes.((p * n_size) + n_tnext) <- x else slots.(sb + s_first) <- x;
  if x >= 0 then nodes.((x * n_size) + n_tprev) <- p;
  slots.(sb + s_count) <- slots.(sb + s_count) - 1;
  let p = nodes.(b + n_oprev) and x = nodes.(b + n_onext) in
  if p >= 0 then nodes.((p * n_size) + n_onext) <- x else owners.(ob + o_first) <- x;
  if x >= 0 then nodes.((x * n_size) + n_oprev) <- p;
  owners.(ob + o_count) <- owners.(ob + o_count) - 1;
  give t.nodes n

let holder t n = t.nodes.a.((n * n_size) + n_owner)
let value t n = t.nodes.a.((n * n_size) + n_value)
let slot t n = t.nodes.a.((n * n_size) + n_slot)
let next_holder t n = t.nodes.a.((n * n_size) + n_tnext)
let next_held t n = t.nodes.a.((n * n_size) + n_onext)
let holdings t = t.nodes.live

(* Walk whichever of the two chains is shorter. *)
let holding t s o =
  let nodes = t.nodes.a in
  let on_slot = holders t s <= owner_count t o in
  (* On the slot's chain look for the owner, on the owner's for the slot. *)
  let want, field, next = if on_slot then (o, n_orec, n_tnext) else (s, n_slot, n_onext) in
  let n = ref (if on_slot then first_holder t s else first_held t o) and found = ref (-1) in
  while !n >= 0 do
    if nodes.((!n * n_size) + field) = want then begin
      found := !n;
      n := -1
    end
    else n := nodes.((!n * n_size) + next)
  done;
  !found
