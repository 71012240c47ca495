(** The lock table shared by both lock managers: the heavyweight S2PL
    manager ([Ssi_lockmgr.Lockmgr]) and the SIREAD predicate-lock manager
    ([Ssi_core.Predlock]).

    A target is interned to an int {e slot} in an open-addressed index.
    A holding is a {e node} (one owner on one slot, carrying one int
    value) that sits on two intrusive, doubly linked chains: the slot's
    holders and the owner's holdings, each newest first.  Owners are
    found by xid in a second open-addressed index.  Slots, nodes and
    owner records live in int arrays with free lists, so once the arrays
    have grown to the working set, interning a target already present,
    adding or removing a holding, and finding or recycling an owner
    allocate nothing.  Interning a new target stores the caller's target
    value and allocates nothing more. *)

type target =
  | Relation of string
  | Page of string * int
  | Tuple of string * Value.t
  | Index_page of string * int
  | Index_key of string * Value.t
      (** Next-key gap lock: covers the gap below (and the entries at)
          this index key — the refinement to ARIES/KVL-style next-key
          locking the paper names as future work (§5.2.1). *)
  | Index_inf of string
      (** The gap above the highest key of the index. *)
  | Index_rel of string
      (** Whole-index lock, used by promotion and by index access methods
          that do not support predicate locking (§7.4). *)

val pp_target : Format.formatter -> target -> unit

type t

val create : unit -> t
(** An empty table; it grows as needed and never shrinks. *)

(** {1 Slots} *)

val find : t -> target -> int
(** The target's slot, or [-1]. *)

val find_relation : t -> string -> int
val find_page : t -> string -> int -> int
val find_tuple : t -> string -> Value.t -> int
val find_index_rel : t -> string -> int
val find_index_page : t -> string -> int -> int
(** [find] for one kind of target, from its parts: nothing is built. *)

val intern : t -> target -> int
(** The target's slot, made if absent.  A new slot has no holders and its
    field is {!none}. *)

val target : t -> int -> target

val none : int
(** The unset value of a slot's field. *)

val field : t -> int -> int
val set_field : t -> int -> int -> unit
(** One int per slot for the client: the predicate-lock manager keeps the
    old-committed dummy owner's mark here. *)

val drop_if_idle : t -> int -> unit
(** Free the slot if it has no holders and its field is {!none}; the slot
    number may then be reused for another target. *)

val iter_slots : t -> (int -> unit) -> unit
(** Every live slot, in slot order. *)

(** {1 Owners} *)

val owner : t -> int -> int
(** The record of the owner with this xid, or [-1]. *)

val owner_record : t -> int -> int
(** The owner's record, made (or recycled) if absent; a new record holds
    nothing and its field is [-1]. *)

val free_owner : t -> int -> unit
(** Recycle a record that holds nothing. *)

val owner_count : t -> int -> int
(** Number of nodes of the owner. *)

val owner_field : t -> int -> int
val set_owner_field : t -> int -> int -> unit
(** One int per owner for the client: the predicate-lock manager keeps
    the slot of the owner's last-hit page lock here. *)

val iter_owners : t -> (int -> unit) -> unit
(** Every live owner record, in record order. *)

(** {1 Holdings} *)

val add : t -> slot:int -> owner:int -> int -> int
(** [add t ~slot ~owner v] puts a new node with value [v] at the front of
    the slot's chain and of the owner record's chain, and returns it. *)

val remove : t -> int -> unit
(** Unlink a node from both chains and free it.  Leaves the slot alone:
    see {!drop_if_idle}. *)

val holding : t -> int -> int -> int
(** [holding t slot owner]: the owner record's first node on the slot, or
    [-1].  Walks the shorter of the two chains. *)

val first_holder : t -> int -> int
val next_holder : t -> int -> int
(** The slot's chain, newest first; [-1] ends it. *)

val first_held : t -> int -> int
val next_held : t -> int -> int
(** The owner record's chain, newest first; [-1] ends it. *)

val holder : t -> int -> int
(** The node's owner xid. *)

val slot : t -> int -> int
val value : t -> int -> int

val holdings : t -> int
(** Number of live nodes. *)
