(** Heavyweight multigranularity lock manager with deadlock detection.

    This is the substrate for the strict two-phase-locking baseline the
    paper compares against (§8): "classic" read locks acquired in the
    heavyweight lock manager, plus the appropriate intention locks.  It is
    a blocking lock manager: acquisition suspends the caller (through the
    scheduler handed to {!create}) until the lock is granted, and a
    waits-for cycle raises {!Deadlock} in the requester, which the engine
    turns into a serialization failure.

    Lock targets and the table that holds them are shared with the SSI
    lock manager ({!Ssi_storage.Locktab}); the engine locks relations,
    heap pages, tuples, and index leaf pages.  Granting a lock that is
    free or already held, and releasing all of an owner's locks when no
    one waits, allocate nothing beyond the target the caller passes. *)

open Ssi_storage

type target = Locktab.target =
  | Relation of string
  | Page of string * int
  | Tuple of string * Value.t
  | Index_page of string * int
  | Index_key of string * Value.t
  | Index_inf of string
  | Index_rel of string

val pp_target : Format.formatter -> target -> unit

type mode = IS | IX | S | SIX | X

val pp_mode : Format.formatter -> mode -> unit

val compatible : mode -> mode -> bool
(** Standard multigranularity compatibility matrix. *)

val covers : mode -> mode -> bool
(** [covers held requested]: holding [held] makes acquiring [requested]
    redundant (e.g. [X] covers everything, [SIX] covers [S]). *)

exception Deadlock of { victim : Heap.xid; cycle : Heap.xid list }
(** Raised in the requester whose wait would close a waits-for cycle. *)

type t

val create : ?obs:Ssi_obs.Obs.t -> Ssi_util.Waitq.scheduler -> t
(** [obs] is the metrics registry this lock manager reports into
    ([lockmgr.waits] counts requests that had to block, and
    [lockmgr.deadlocks] counts cycles detected); a private registry is
    created when omitted. *)

val acquire : t -> owner:Heap.xid -> target -> mode -> unit
(** Grant the lock, suspending while incompatible locks are held by other
    owners.  Re-acquiring a covered mode is a no-op.  May raise
    {!Deadlock} (the request is withdrawn first) or
    [Waitq.Would_block] under the direct scheduler. *)

val try_acquire : t -> owner:Heap.xid -> target -> mode -> bool
(** Like {!acquire} but returns [false] instead of waiting. *)

val release_all : t -> owner:Heap.xid -> unit
(** Drop every lock held by [owner] (commit/abort), target by target in
    reverse order of acquisition, granting each target's waiters. *)

val holds : t -> owner:Heap.xid -> target -> mode -> bool
(** Whether [owner] holds a mode covering [mode] on [target]. *)

val held_by : t -> target -> (Heap.xid * mode) list
(** Current holders, newest first (for tests and introspection). *)

val lock_count : t -> int
(** Total number of (owner, target) holdings. *)

val waiting_count : t -> int
(** Number of suspended requests (for tests). *)
