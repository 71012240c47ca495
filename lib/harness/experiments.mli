(** The experiment catalogue: one entry per table and figure of the paper's
    evaluation (§8), plus the design ablations.

    Each entry owns its quick and full parameters, its banner and its
    renderer; [bench/main.exe <name> [quick]] prints what it returns.
    Throughput series are normalized to snapshot isolation, exactly as the
    paper's figures plot them. *)

open Ssi_workload

type measurement = {
  x_label : string;  (** table size, read-only fraction, … *)
  x_value : float;
  mode : Driver.mode;
  result : Driver.result;
}

val all : (string * (quick:bool -> string)) list
(** In order:
    - [fig4]: Figure 4, SIBENCH throughput vs table size for SI / SSI /
      SSI without the read-only optimizations / S2PL, in-memory cost model.
    - [fig5a]: Figure 5a, DBT-2++ throughput vs read-only fraction,
      in-memory configuration (paper: 25 warehouses, 4 clients, tmpfs).
    - [fig5b]: Figure 5b, the same sweep disk-bound (paper: 150
      warehouses, 36 clients, RAID array), without the
      SSI-without-read-only-optimization series, as in the paper.
    - [fig6]: Figure 6, RUBiS bidding mix: throughput and
      serialization-failure rate for SI, SSI and S2PL.
    - [defer]: §8.4, latency to obtain a safe snapshot for DEFERRABLE
      transactions started once per simulated second under the DBT-2++
      disk-bound workload (8% read-only).
    - [abl]: three SSI-vs-SI ablations, all on DBT-2++: the SIREAD
      granularity-promotion threshold (§5.2.1, §6 technique 2), the
      retained-committed-transaction limit before summarization (§6.2),
      and page vs next-key index-gap locking (§5.2.1 future work).
    - [walgroup]: SIBENCH under SSI with a durable log, sweeping the
      group-commit flush interval against commit latency.

    [~quick:true] selects the reduced sizes CI and smoke runs use. *)

val render_latency : title:string -> measurement list -> string
(** Rows = measurements; columns = throughput, nearest-rank p50/p95/p99
    client latency (virtual seconds) and failure rate.  A leading x column
    appears when the measurements span more than one [x_label]. *)

val bench_json : workload:string -> duration:float -> measurement list -> string
(** One JSON object — [{"workload";"duration_s";"modes":[...]}] — with
    per-mode throughput, latency percentiles and SSI metric deltas.
    Non-finite numbers render as [null].  A row's ["mode"] key is its
    [x_label] when [x_value] is nonzero (x-keyed sweeps such as shard
    counts), otherwise the isolation mode's name.  Written by
    [bench/main.exe] to [BENCH_<workload>.json]. *)
