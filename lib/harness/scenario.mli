(** Seeded, replayable scenarios and the one runner that checks them.

    Every chaos harness in the repository — the fault-plan run
    ({!Chaos}), the read fleet ({!Readfleet}), the sharded coordinator
    ({!Sharded}) and the kill-point recovery sweep
    ({!Ssi_fault.Torture}) — is a deterministic function from a
    configuration to an outcome.  Determinism is part of what they check:
    the same [cfg] must replay byte for byte.  This module holds the one
    signature they share, the one {!fingerprint} that decides "byte for
    byte", and the one runner that does the double run and the exit
    code. *)

module type S = sig
  type cfg

  type outcome
  (** Pure data: no closures, no engine handles, no mutable cells a later
      run could touch.  The whole value is {!fingerprint}ed, so anything
      in it that differs between two runs of the same [cfg] is a
      divergence. *)

  val header : cfg -> string
  (** One line naming the configuration, printed before the first run. *)

  val run : cfg -> outcome
  (** Run the scenario once.  It may write only the files named in
      [cfg]; a second run with the same [cfg] rewrites them with the same
      bytes. *)

  val ok : outcome -> bool
  (** The scenario's own verdict: every invariant it checks held. *)

  val pp : Format.formatter -> outcome -> unit
  (** The human-readable report of one run. *)
end

val fingerprint : 'a -> string
(** Digest of a whole value's marshalled bytes — equal fingerprints mean
    byte-identical outcomes. *)

val replays : (module S with type cfg = 'c and type outcome = 'o) -> 'c -> 'o * bool
(** Run twice: the first outcome, and whether the second run's
    fingerprint equals it. *)

val main : ?ppf:Format.formatter -> (module S with type cfg = 'c) -> 'c -> int
(** Print the header, run, print the report, run again and print
    [replay: byte-identical] or [replay: DIVERGED from the first run].
    Returns the exit code: [0] when the outcome is [ok] and the replay
    is identical, [1] otherwise.  [ppf] defaults to standard output. *)
