(** B+-tree secondary indexes with page-granularity predicate-lock hooks.

    The tree maps index keys to primary keys (non-unique: several entries
    may share an index key; the [(index key, primary key)] pair is unique).
    Leaves are chained for range scans.

    Two properties exist purely for SSI (paper §5.2.1):
    - every scan reports the ids of the {e leaf pages it examined}, which is
      what the SSI lock manager locks to detect phantoms ("index-gap"
      locks at page granularity);
    - {!set_on_split} registers a callback fired when a leaf page splits, so
      the lock manager can copy predicate locks from the old page to the new
      one (otherwise a lock could silently stop covering its gap).

    Deletion does not merge pages; underfull leaves persist.  This matches
    the needs of the reproduction (PostgreSQL's page recycling interacts
    with predicate locks via the same promote-to-relation path as DDL,
    which [Heap.rewrite] already exercises). *)

open Ssi_storage

type t

val create : ?order:int -> name:string -> unit -> t
(** [order] (default 32) is the maximum number of entries per leaf and of
    children per internal node; it must be at least 4. *)

val name : t -> string

val set_on_split : t -> (old_page:int -> new_page:int -> unit) -> unit
(** Register the page-split hook.  At most one hook is active. *)

val insert : t -> key:Value.t -> pk:Value.t -> int * bool
(** Add an entry and return the id of the leaf page that now contains it
    (after any split), plus whether the entry was actually new.  Duplicate
    [(key, pk)] insertions are idempotent. *)

val delete : t -> key:Value.t -> pk:Value.t -> bool
(** Remove an entry; returns whether it was present. *)

val iter_range :
  t -> lo:Value.t -> hi:Value.t -> on_page:(int -> unit) -> (Value.t -> Value.t -> unit) -> unit
(** Call the function on each entry [(key, pk)] with [lo <= key <= hi], in
    ascending order, and [on_page] on the id of each leaf page examined,
    as the walk enters it.  The page holding the first entry beyond the
    range is also examined (and therefore reported): it covers the gap
    just past [hi].  The walk allocates nothing per entry; the tree must
    not change while it runs. *)

val range : t -> lo:Value.t -> hi:Value.t -> pages:int list ref -> (Value.t * Value.t) list
(** {!iter_range} collected: the entries as [(key, pk)] pairs, with the
    examined leaf-page ids prepended to [pages]. *)

val lookup : t -> Value.t -> pages:int list ref -> Value.t list
(** The primary keys {!range} finds under exactly [key]. *)

val next_key_after : t -> Value.t -> Value.t option
(** The smallest index key strictly greater than [key], if any — the
    "next key" of ARIES/KVL-style next-key locking. *)

val iter : t -> (Value.t -> Value.t -> unit) -> unit
(** Full in-order iteration (no page reporting; sequential scans take a
    relation-level lock instead). *)

val cardinal : t -> int

val height : t -> int

val leaf_pages : t -> int list
(** Ids of all current leaf pages, leftmost first (for tests). *)

val check_invariants : t -> unit
(** Raises [Failure] if a structural invariant is broken: order bounds,
    sortedness, separator correctness, uniform depth, leaf-chain
    consistency.  For tests. *)
