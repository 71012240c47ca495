(* Developer tool: replay one oracle seed, write the run's spans (every
   transaction, operation and lock wait, with their attached events) to
   stderr as Chrome trace-event JSON, and print any serialization-graph
   cycle found.

     dune exec test/debug_oracle.exe -- <seed> [ssi] 2> trace.json   (default: S2PL) *)

open Ssi_oracle
module E = Ssi_engine.Engine

let () =
  let seed = try int_of_string Sys.argv.(1) with _ -> 39 in
  let iso =
    if Array.length Sys.argv > 2 && Sys.argv.(2) = "ssi" then E.Serializable
    else E.Serializable_2pl
  in
  let cfg = { Oracle.default_cfg with Oracle.seed } in
  let db = E.create ~scheduler:Ssi_sim.Sim.scheduler ~config:(Oracle.engine_config cfg) () in
  let h = Oracle.run_history_on db ~isolation:iso cfg in
  prerr_string (Ssi_obs.Obs.Spans.to_chrome_json (E.obs db));
  match Oracle.check_serializable h with
  | Ok () -> print_endline "serializable (no repro)"
  | Error cycle -> print_string (Oracle.pp_cycle h cycle)
