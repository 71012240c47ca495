(** Benchmark-regression comparison over [BENCH_<workload>.json] summaries.

    The workload benchmarks run on the simulator's virtual clock, so their
    throughput is a deterministic function of the seed: a committed
    baseline can be compared against a fresh run with a tight tolerance
    and zero flake risk.  See EXPERIMENTS.md ("Performance trajectory")
    for the refresh procedure. *)

(** {1 Minimal JSON} *)

type json =
  | J_null
  | J_bool of bool
  | J_num of float
  | J_str of string
  | J_arr of json list
  | J_obj of (string * json) list

exception Parse_error of string

val parse : string -> json
(** Recursive-descent parser for the JSON subset the harness emits.
    Raises {!Parse_error} on malformed input. *)

val member : string -> json -> json option

(** {1 Summaries} *)

type mode_summary = {
  mode : string;
  throughput_tps : float;
  committed : int;
  failure_rate : float;
  p99_s : float;
      (** p99 transaction latency ([p99_latency_s] in the JSON), read from
          the driver's bounded histogram; [nan] when the summary predates
          the field *)
}

type summary = { workload : string; modes : mode_summary list }

exception Bad_summary of string

val load_summary : string -> summary
(** Read and parse one [BENCH_<workload>.json] file.  Raises
    {!Bad_summary} (or [Sys_error]) when unusable. *)

(** {1 Comparison} *)

type verdict =
  | Ok_within_tolerance
  | Regressed
  | Improved
  | Missing_baseline
  | Missing_current
      (** the baseline has the row, the current run does not: a failure *)

type comparison = {
  c_workload : string;
  c_mode : string;
  baseline_tps : float;
  current_tps : float;
  delta_pct : float;
      (** (current - baseline) / baseline * 100; [nan] (rendered "n/a")
          when the mode has no usable baseline — including a 0.0
          placeholder, which must not read as a measured value *)
  verdict : verdict;
  baseline_p99 : float;
  current_p99 : float;
  p99_delta_pct : float;  (** [nan] when either p99 is unusable *)
  p99_verdict : verdict;
      (** tail-latency gate: [Regressed] when p99 {e rose} beyond the
          latency tolerance; [Missing_baseline] when either side lacks a
          usable (finite, positive) p99 *)
}

val compare_summaries :
  tolerance:float ->
  ?latency_tolerance:float ->
  baseline:summary ->
  current:summary ->
  unit ->
  comparison list
(** [tolerance] is a fraction: [0.15] marks a mode [Regressed] when its
    throughput dropped more than 15% below baseline, and [Improved] when
    it rose more than 15% (a hint to refresh the baseline, not a
    failure).  [latency_tolerance] (default [0.25]) gates p99 in the
    opposite direction — an increase is the regression; the percentile
    itself carries only the histogram's ±1% relative error, so the slack
    absorbs workload shifts, not measurement noise.  Every baseline row
    absent from [current] is appended as [Missing_current]. *)

val any_regression : comparison list -> bool
(** True when any mode regressed on throughput {e or} p99, or is
    [Missing_current]. *)

val verdict_name : verdict -> string

val render_report : tolerance:float -> comparison list -> string
(** Markdown report (the CI artifact). *)
