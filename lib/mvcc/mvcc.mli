(** Multiversion concurrency-control primitives: transaction ids, the
    commit log, snapshots, and tuple visibility.

    Commit order is captured by {e commit sequence numbers} (cseq): every
    commit is assigned the next cseq.  A snapshot is simply the cseq horizon
    at the time it was taken — transaction [w]'s effects are visible to
    snapshot [s] iff [w] committed with a cseq before [s]'s horizon.  This
    is equivalent to PostgreSQL's xmin/xmax/xip snapshot representation and
    is also exactly the quantity SSI's commit-ordering and read-only
    optimizations need (paper §3.3.1, §4.1). *)

type xid = Ssi_storage.Heap.xid
type cseq = int

val invalid_cseq : cseq
(** Sorts after every real cseq ([max_int]): "not committed yet". *)

module Clog : sig
  (** The commit log: status of every transaction ever started, kept
      dense by xid. *)

  type status = In_progress | Committed of cseq | Aborted

  type t

  val create : unit -> t

  val new_xid : t -> xid
  (** Allocate the next transaction id (starting at 1) and register it as
      in progress. *)

  val status : t -> xid -> status
  (** Raises [Invalid_argument] for ids never allocated. *)

  val commit : t -> xid -> cseq
  (** Mark committed, assigning the next commit sequence number. *)

  val abort : t -> xid -> unit

  val next_cseq : t -> cseq
  (** The cseq that the next commit will receive. *)

  val install : t -> xid -> status -> unit
  (** Recovery replay: record [xid]'s status under its original id (and
      original cseq for commits), bumping the xid/cseq allocators past it
      so nothing handed out later collides with replayed history. *)

  val commit_cseq : t -> xid -> cseq
  (** [Committed c -> c]; {!invalid_cseq} otherwise. *)

  val is_committed : t -> xid -> bool
  val is_in_progress : t -> xid -> bool
  val is_aborted : t -> xid -> bool
  (** Like {!commit_cseq} and {!is_committed}, these allocate nothing;
      {!status} allocates for a commit. *)
end

module Snapshot : sig
  type t = {
    owner : xid;  (** the transaction the snapshot belongs to; 0 for none *)
    horizon : cseq;  (** commits with cseq < horizon are visible *)
  }

  val take : Clog.t -> owner:xid -> t

  val sees_xid : Clog.t -> t -> xid -> bool
  (** Whether [xid]'s effects are visible: it is the owner itself, or it
      committed before the horizon. *)
end

(** Tuple visibility, reporting the rw-conflict information SSI's
    write-before-read detection needs (paper §5.2).  Neither function
    allocates. *)
module Visibility : sig
  val visible :
    Clog.t ->
    Snapshot.t ->
    around:(xid -> unit) ->
    Ssi_storage.Heap.tuple option ->
    Ssi_storage.Heap.tuple option
  (** Walk a version chain from the given version (normally
      [Heap.head]) towards older ones and return the newest version the
      snapshot sees, as the chain's own option cell.  Every newer version
      the reader reads {e around} — created by a transaction in progress
      or committed after the snapshot — reports its creator to [around],
      in chain order: a rw-antidependency out to that writer. *)

  val deleter : Clog.t -> Snapshot.t -> Ssi_storage.Heap.tuple -> xid
  (** For a version {!visible} returned: the transaction that deleted or
      superseded it without the snapshot seeing it (in progress or
      committed after the snapshot), or [Heap.invalid_xid].  A real
      deleter is a rw-antidependency out to it. *)
end
