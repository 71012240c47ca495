(** Serializable Snapshot Isolation: conflict tracking, dangerous-structure
    detection, and victim selection (paper §3–§6).

    One {!t} manages all serializable transactions of a database.  The
    engine calls into it at four kinds of points:

    - {e registration}: {!register} when a serializable transaction takes
      its snapshot; {!prepare}/{!precommit}/{!committed}/{!aborted} at the
      end of its life;
    - {e reads}: {!read_tuple} / {!read_relation} / {!read_index_gap} /
      {!read_index_rel} acquire SIREAD locks, and {!conflict_out} records
      the rw-antidependencies inferred from MVCC visibility (write happened
      first, §5.2);
    - {e writes}: {!write_check} / {!index_insert_check} look up SIREAD
      locks to find rw-antidependencies where the read happened first;
    - {e maintenance}: DDL notifications and {!recover}.

    Whenever a new rw-antidependency completes a dangerous structure
    [T1 --rw--> T2 --rw--> T3] that passes the commit-ordering test
    (T3 committed first) and the read-only snapshot-ordering test
    (Theorem 3), a victim is chosen by the safe-retry rules of §5.4: the
    pivot T2 if it is still abortable, otherwise T1, never a committed or
    prepared transaction.  If the victim is the calling transaction,
    {!Serialization_failure} is raised; otherwise the victim is {e doomed}
    and will fail at its next operation or commit. *)

open Ssi_storage

type cseq = Ssi_mvcc.Mvcc.cseq

exception Serialization_failure of { xid : Heap.xid; reason : string }

type config = {
  max_committed_sxacts : int;
      (** Retained committed-transaction nodes before summarization (§6.2). *)
  read_only_opt : bool;
      (** Enable the read-only optimizations of §4 (Theorem 3 rule and safe
          snapshots).  Disabling reproduces the "SSI (no r/o opt)" series
          of Figures 4 and 5a. *)
  predlock : Predlock.config;
}

val default_config : config

type node
(** The state of one serializable transaction (PostgreSQL's [SERIALIZABLEXACT]). *)

type t

val create : ?config:config -> ?obs:Ssi_obs.Obs.t -> Ssi_mvcc.Mvcc.Clog.t -> t
(** [obs] is the registry this manager (and the predicate
    lock manager it owns) reports into; a private registry is created
    when omitted.  See {!obs} for the metric names. *)

val locks : t -> Predlock.t

val obs : t -> Ssi_obs.Obs.t
(** The registry behind this manager's [ssi.*] and [predlock.*] metrics:
    [ssi.conflicts], [ssi.dooms], [ssi.failures], [ssi.summarized],
    [ssi.safe_snapshots], [ssi.cleanups], and per-abort-reason
    [ssi.victims.<reason>] counters, plus [ssi.fail] / [ssi.doom] /
    [ssi.dangerous] / [ssi.rw_edge] / [ssi.safe_snapshot] events on the
    affected transactions' spans. *)

val max_committed_sxacts : t -> int

val set_max_committed_sxacts : t -> int -> unit
(** Dynamically re-bound the retained committed-transaction budget (§6.2).
    Shrinking it takes effect at the next commit's cleanup pass, forcing
    summarization of the backlog — the memory-pressure knob the chaos
    harness turns mid-run. *)

(** {1 Transaction lifecycle} *)

val register :
  t -> xid:Heap.xid -> snap_cseq:cseq -> read_only:bool -> deferrable:bool -> node
(** Call immediately after taking the transaction's snapshot. *)

val xid_of : node -> Heap.xid
val snap_cseq_of : node -> cseq
val is_doomed : node -> bool
val is_read_only : node -> bool

val check_doomed : node -> unit
(** Raise {!Serialization_failure} if the node was doomed by a conflict
    resolved in another transaction's favour. *)

val note_write : node -> unit
(** Record that the transaction modified data (clears read-only-in-practice
    status). *)

val prepare : t -> node -> unit
(** Two-phase commit: run the pre-commit serialization check and mark the
    transaction prepared.  A prepared transaction can no longer be chosen
    as an abort victim (§7.1). *)

val restore_prepared : t -> node -> unit
(** Cold-start recovery: mark a freshly {!register}ed node as a prepared
    transaction restored from the durable 2PC state, with the conservative
    both-ways conflict flags of §7.1.  The caller reinstalls its persisted
    SIREAD locks via {!locks}. *)

val mark_conservative : t -> node -> unit
(** Set the §7.1 conservative both-ways conflict flags on a live (already
    {!prepare}d) transaction.  Used by distributed 2PC: some of the
    transaction's rw-antidependencies live on other certifier instances,
    so while the coordinator deliberates, local transactions forming new
    edges with it must give way as if it had crashed and recovered. *)

val precommit : t -> node -> unit
(** The commit-time serialization-failure check (§5.4 rule 1): raises if
    committing now would complete a dangerous structure that cannot be
    resolved by dooming another transaction. *)

val committed : t -> node -> commit_cseq:cseq -> unit
(** Post-commit processing: conflict bookkeeping, read-only safety
    propagation, aggressive cleanup and summarization (§6). *)

val aborted : t -> node -> unit
(** Remove the transaction and its conflict edges; release its locks. *)

(** {1 Read-side hooks} *)

val read_tuple : t -> node -> rel:string -> key:Value.t -> page:int -> unit

val read_tuples_page : t -> node -> rel:string -> page:int -> keys:Value.t list -> unit
(** Batched {!read_tuple} for a page's worth of keys from one scan: one
    coverage-cache check for the whole batch instead of one per tuple.
    Behaviorally identical to calling {!read_tuple} on each key in order. *)

val read_relation : t -> node -> rel:string -> unit
val read_index_gap : t -> node -> index:string -> page:int -> unit
val read_index_key : t -> node -> index:string -> key:Value.t -> unit
val read_index_inf : t -> node -> index:string -> unit
val read_index_rel : t -> node -> index:string -> unit

val conflict_out : t -> node -> writer:Heap.xid -> unit
(** The reader observed MVCC evidence of a write it did not see (invisible
    creator, or visible deleter): record reader --rw--> writer.  Writers
    that never ran at the serializable level are ignored. *)

val forget_own_tuple_lock : t -> node -> rel:string -> key:Value.t -> in_subtransaction:bool -> unit
(** The transaction wrote a tuple it had read: its own write lock now
    protects it, so the SIREAD lock can be dropped — unless running inside
    a subtransaction whose rollback would release the write lock (§7.3). *)

(** {1 Write-side hooks} *)

val write_check : t -> node -> rel:string -> key:Value.t -> page:int -> unit
(** Find SIREAD locks covering the tuple being written and record
    reader --rw--> writer conflicts (may raise or doom). *)

val index_insert_check : t -> node -> index:string -> page:int -> unit

val index_insert_check_nextkey :
  t -> node -> index:string -> key:Value.t -> succ:Value.t option -> unit
(** Next-key-locking variant (§5.2.1 future work): the insert conflicts
    with readers of [key], of its successor, or of the top gap. *)

(** {1 Read-only safety (§4.2, §4.3)} *)

val is_safe : node -> bool
(** The node's snapshot has been proved safe: it no longer tracks reads and
    cannot be aborted. *)

val safety_determined : node -> bool
val is_unsafe : node -> bool
val safety_waitq : node -> Ssi_util.Waitq.t
(** Woken once safety is determined (used by deferrable transactions). *)

(** {1 Structural notifications} *)

val on_ddl_rewrite : t -> rel:string -> unit
val on_index_drop : t -> index:string -> heap_rel:string -> unit
val on_index_page_split : t -> index:string -> old_page:int -> new_page:int -> unit

val recover : t -> unit
(** Simulate crash recovery: every non-prepared transaction disappears;
    prepared transactions keep their SIREAD locks but their dependency
    lists are replaced by conservative "conflict in and out" flags
    (§7.1). *)

(** {1 Introspection} *)

type node_info = {
  info_xid : Heap.xid;
  info_status : string;  (** "active" | "prepared" | "committed" | "aborted" *)
  info_doomed : bool;
  info_read_only : bool;
  info_safe : bool;
  info_commit_cseq : cseq option;
  info_in : Heap.xid list;  (** readers with an edge into this transaction *)
  info_out : Heap.xid list;
  info_conservative_in : bool;
      (** The in-conflict flag is the §7.1 conservative bit (set by 2PC
          crash recovery, or when a conflict partner was summarized) rather
          than an identified edge — a distributed coordinator must treat
          the flag as set. *)
  info_conservative_out : bool;
}

val dump_graph : t -> node_info list
(** Every tracked serializable transaction and its rw-antidependency
    edges — the introspection view behind [SHOW CONFLICTS]. *)

val graph_dot : t -> string
(** The same graph in Graphviz DOT format (rw edges only, as in the
    paper's Figure 3). *)

val active_count : t -> int
val committed_retained : t -> int
val oldserxid_size : t -> int
val min_active_snap : t -> cseq
