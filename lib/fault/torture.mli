(** Kill-point torture: crash the durable log at every k-th engine fault
    point, recover, and check the durability contract.

    Each crash/recover {e cycle} lives twice.  The {e first life} runs a seeded
    workload (plus prepared-transaction sentinels) against an engine with
    an attached {!Ssi_wal.Wal} device under group commit, and crashes the
    device at the [kill_point]-th engine fault point — optionally writing
    a seeded torn write / short write / bit flip as the flush in flight.
    The {e second life} cold-starts with [Engine.recover], resolves every
    in-doubt prepared transaction (alternating COMMIT PREPARED and
    ROLLBACK PREPARED), runs more workload, and resyncs a streaming
    replica from the recovered primary at a fenced higher epoch.

    The {!cycle} records the invariants:
    - no acknowledged commit is lost ([o_lost_acked = \[\]]);
    - the recovered commit records form a dense cseq prefix [1..n]
      ([o_dense_prefix]) — tail truncation never punches holes;
    - the in-doubt set after recovery is exactly what the log prescribes
      ([o_prepared_ok]);
    - the recovered table equals the replay of the recovered commits
      ([o_state_ok]);
    - the streaming replica converges to the recovered primary
      ([o_replica_ok]);
    and the combined pre/post-crash committed history ([o_history], in
    commit-sequence order) for the caller's serializability oracle. *)

type txn_log = {
  l_xid : int;
  l_cseq : int;  (** commit sequence number: the history order *)
  l_reads : (int * int) list;  (** (key, writer xid observed) *)
  l_writes : int list;  (** keys written *)
}

type resolution = Committed | Rolled_back

type cycle = {
  o_seed : int;
  o_kill_point : int;
  o_crashed : bool;  (** the kill point fired (a [false] ends a sweep) *)
  o_damage : string option;  (** description of the applied damage, if any *)
  o_acked : int list;  (** cseqs acknowledged to clients before the crash *)
  o_lost_acked : int list;  (** acked cseqs missing after recovery: must be [[]] *)
  o_dense_prefix : bool;  (** recovered commit cseqs are exactly [1..n] *)
  o_truncated : int;  (** damaged tail bytes dropped at recovery *)
  o_replayed : int;  (** post-checkpoint log records replayed *)
  o_prepared_pending : (string * resolution) list;
      (** in-doubt transactions recovered, and the verdict applied *)
  o_prepared_ok : bool;  (** recovered in-doubt set matches the log *)
  o_state_ok : bool;  (** recovered table = replay of recovered commits *)
  o_replica_ok : bool;  (** streaming replica converged to the primary *)
  o_epoch : int;  (** epoch the recovered primary resumed at (> crashed) *)
  o_history : txn_log list;  (** combined committed history, cseq order *)
  o_final : (int * int) list;  (** final (key, writer) rows *)
}

val invariants_ok : cycle -> bool
(** All of [o_lost_acked = []], [o_dense_prefix], [o_prepared_ok],
    [o_state_ok] and [o_replica_ok]. *)

(** {1 The sweep as a {!Ssi_harness.Scenario.S}} *)

type cfg = {
  seed : int;
  certifier : Ssi_core.Certifier.kind;  (** for both lives of every cycle *)
  max_kills : int;  (** at most this many cycles *)
  kill_every : int;  (** stride between successive kill points *)
  with_damage : bool;  (** damage the flush in flight at each crash *)
  wal_out : string option;  (** save the first cycle's log image here *)
}

val default_cfg : cfg
(** seed 1, SSI, at most 64 cycles, stride 1, intact flushes, no image
    saved. *)

type outcome = {
  cycles : cycle list;
  saved_log : string option;  (** where the first cycle's image was saved *)
}

val header : cfg -> string

val run : cfg -> outcome
(** Crash at fault point [kill_every], [2*kill_every], ... (one cycle
    each, at most [max_kills] cycles) until a cycle completes without
    crashing — the exhaustive scan of crash points the durability claim
    is checked against.  A kill point counts engine fault points (data
    operations, commits, prepares) after setup; the cycle whose workload
    finishes first has [o_crashed = false] and still recovers from the
    intact log.  [wal_out] saves the first cycle's crashed, truncated
    device image for [pg_ssi recover]. *)

val ok : outcome -> bool
(** Every cycle's {!invariants_ok}. *)

val pp : Format.formatter -> outcome -> unit
(** One line per cycle, the crash/damage/truncation tally, and the
    verdict. *)
