(** The pluggable serializability-certifier interface.

    A {!t} is a vtable of closures over one certifier instance, covering
    every point where the engine consults its certifier: registration,
    SIREAD acquisition, rw-antidependency evidence ({!conflict_out} /
    {!read_from}), write-time checks, the pre-commit test, the
    prepare/commit/abort and 2PC-recovery lifecycle, safe-snapshot
    queries, summarization under [max_committed_sxacts], and
    introspection.  {!make} builds the instance for a {!kind}:

    - [SSI] — the paper's dangerous-structure detection ({!Ssi}), with
      safe snapshots and [BEGIN DEFERRABLE] support.  Byte-identical to
      calling the [Ssi] manager directly.
    - [SSN] — the Serial Safety Net's pstamp/sstamp exclusion-window
      check ({!Ssn}).
    - [ESSN] — SSN with the effective-commit-stamp refinement for
      read-only transactions ({!Essn}).

    All three raise {!Ssi.Serialization_failure} and accept the shared
    {!Ssi.config}.  Metrics and span events are namespaced by
    {!prefix} ([ssi.*], [ssn.*], [essn.*]) so output from different
    certifiers never aliases. *)

open Ssi_storage

type cseq = Ssi_mvcc.Mvcc.cseq
type kind = SSI | SSN | ESSN

val all_kinds : kind list
val kind_to_string : kind -> string
val kind_of_string : string -> kind option

val prefix : kind -> string
(** The metric/event namespace the certifier reports under:
    [<prefix>.conflicts], [<prefix>.dooms], [<prefix>.failures],
    [<prefix>.victims.<reason>], and [<prefix>.fail] / [<prefix>.doom] /
    [<prefix>.rw_edge] (plus [ssi.dangerous] or [<prefix>.exclusion])
    span events. *)

type node = ..
(** Per-transaction certifier state; each implementation contributes its
    own constructor. *)

type node += Ssi_node of Ssi.node | Ssn_node of Ssn.node

type t = {
  kind : kind;
  locks : Predlock.t;  (** The SIREAD predicate-lock manager it owns. *)
  obs : Ssi_obs.Obs.t;
  supports_deferrable : bool;
      (** Safe snapshots / [BEGIN DEFERRABLE] are an SSI-only notion;
          the engine rejects deferrable transactions when [false]. *)
  ssi : Ssi.t option;
      (** The underlying SSI manager when [kind = SSI] — the
          compatibility handle behind [Engine.ssi]. *)
  register :
    xid:Heap.xid -> snap_cseq:cseq -> read_only:bool -> deferrable:bool -> node;
  xid_of : node -> Heap.xid;
  snap_cseq_of : node -> cseq;
  is_doomed : node -> bool;
  is_read_only : node -> bool;
  check_doomed : node -> unit;
  note_write : node -> unit;
  prepare : node -> unit;
  restore_prepared : node -> unit;
  mark_conservative : node -> unit;
      (** Set the §7.1 conservative both-ways conflict flags on a live
          prepared transaction — distributed 2PC, where remote edges are
          invisible to this instance during the coordinator's decision
          window. *)
  precommit : node -> unit;
  committed : node -> commit_cseq:cseq -> unit;
  aborted : node -> unit;
  read_tuple : node -> rel:string -> key:Value.t -> page:int -> unit;
  read_tuples_page : node -> rel:string -> page:int -> keys:Value.t list -> unit;
  read_relation : node -> rel:string -> unit;
  read_index_gap : node -> index:string -> page:int -> unit;
  read_index_key : node -> index:string -> key:Value.t -> unit;
  read_index_inf : node -> index:string -> unit;
  read_index_rel : node -> index:string -> unit;
  conflict_out : node -> writer:Heap.xid -> unit;
  read_from : node -> creator:Heap.xid -> unit;
      (** The transaction read (or is overwriting) a version created by
          [creator] — a w:r / w:w dependency edge.  SSI infers what it
          needs from SIREAD locks and visibility and ignores this; the
          watermark certifiers fold the committed creator's stamp into
          the reader's pstamp. *)
  forget_own_tuple_lock :
    node -> rel:string -> key:Value.t -> in_subtransaction:bool -> unit;
  write_check : node -> rel:string -> key:Value.t -> page:int -> unit;
  index_insert_check : node -> index:string -> page:int -> unit;
  index_insert_check_nextkey :
    node -> index:string -> key:Value.t -> succ:Value.t option -> unit;
  is_safe : node -> bool;
  safety_determined : node -> bool;
  safety_waitq : node -> Ssi_util.Waitq.t;
  on_ddl_rewrite : rel:string -> unit;
  on_index_drop : index:string -> heap_rel:string -> unit;
  on_index_page_split : index:string -> old_page:int -> new_page:int -> unit;
  recover : unit -> unit;
  dump_graph : unit -> Ssi.node_info list;
  graph_dot : unit -> string;
  active_count : unit -> int;
  committed_retained : unit -> int;
  oldserxid_size : unit -> int;
  max_committed_sxacts : unit -> int;
  set_max_committed_sxacts : int -> unit;
}

val make :
  kind -> ?config:Ssi.config -> ?obs:Ssi_obs.Obs.t -> Ssi_mvcc.Mvcc.Clog.t -> t
(** Build the certifier instance.  The closures are created once per
    engine; per-call overhead over direct [Ssi.*] calls is one indirect
    call. *)

(** {1 Cross-node conflict summaries}

    The per-transaction digest a distributed coordinator needs to run the
    dangerous-structure test across certifier instances that share no
    memory (paper §5.7 applied to sharding): has the transaction an
    rw-antidependency in, one out, and is that knowledge exact or the
    conservative both-ways approximation left behind by crash recovery or
    summarization? *)

type conflict_summary = {
  cs_xid : Heap.xid;
  cs_in_conflict : bool;  (** some reader has an rw edge into this txn *)
  cs_out_conflict : bool;  (** this txn has an rw edge out to some writer *)
  cs_conservative : bool;
      (** The flags are §7.1 conservative bits (2PC recovery, or a conflict
          partner was summarized), not identified edges: the coordinator
          must treat both directions as set. *)
}

val conflict_summary : t -> xid:Heap.xid -> conflict_summary
(** Derived from {!field-dump_graph}; a transaction the certifier no longer
    tracks (already summarized away) reports the fully conservative
    summary. *)
