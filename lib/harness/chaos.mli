(** The fault-plan chaos run: SIBENCH under a seeded {!Ssi_fault.Fault}
    plan (crashes, transient I/O faults, memory pressure, replica lag,
    network partitions and drop/duplicate/reorder chaos, optional
    failover), with its replica attached in-process (direct mode) or fed
    over a simulated lossy network (streaming mode).  The report carries
    the fault plan and chaos log, the resilience counters, and the
    replica/streaming state at the end of the run.  The module is a
    {!Scenario.S}. *)

type cfg = {
  seed : int;  (** fault-plan, workload and network seed *)
  certifier : Ssi_core.Certifier.kind;
  duration : float;  (** simulated seconds: the fault horizon *)
  workers : int;
  failover : bool;  (** promote the replica near the end of the run *)
  replicas : int;  (** streamed replicas; [0] = direct mode *)
  quorum : int option;
      (** hold each commit ack for [k] replica acks (2ms deadline, then
          async) *)
  partitions : int;  (** seeded network partitions *)
  net_chaos : int;  (** seeded drop/duplicate/reorder windows *)
  explain : bool;  (** report the conflict evidence behind every abort *)
  trace_capacity : int option;  (** span table size; the driver's default if [None] *)
  alerts : bool;  (** report the SLO watchdog's alerts *)
  trace_out : string option;  (** write the retained spans as Chrome trace JSON *)
  scrape_out : string option;  (** write the scraped time series as JSON Lines *)
  metrics_out : string option;  (** write the final registry as OpenMetrics text *)
}
(** [alerts], [scrape_out] and [metrics_out] each turn on an always-on
    scrape with the default watchdog rules, and with it a validation of
    the final OpenMetrics exposition. *)

type outcome = {
  report : string;  (** everything [pp] prints, rendered by [run] *)
  exposition_ok : bool;  (** the exposition, if one was produced, parsed *)
}

val header : cfg -> string
val run : cfg -> outcome
val ok : outcome -> bool
val pp : Format.formatter -> outcome -> unit
