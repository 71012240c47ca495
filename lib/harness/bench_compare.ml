(* Benchmark-regression comparison over the BENCH_<workload>.json summaries
   (see {!Experiments.bench_json}).

   The workloads run on the discrete-event simulator's virtual clock, so
   their throughput numbers are a deterministic function of the seed: any
   delta against a committed baseline is a real behavior change, not
   scheduling noise, and the gate can be tight without flaking.

   No JSON library ships with the repo, so this module includes a minimal
   recursive-descent parser covering exactly the JSON subset the harness
   emits (objects, arrays, strings with escapes, numbers, booleans,
   null). *)

(* ---- Minimal JSON ---------------------------------------------------------- *)

type json =
  | J_null
  | J_bool of bool
  | J_num of float
  | J_str of string
  | J_arr of json list
  | J_obj of (string * json) list

exception Parse_error of string

let parse (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | Some _ | None -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | Some c' -> fail (Printf.sprintf "expected %c, found %c" c c')
    | None -> fail (Printf.sprintf "expected %c, found end of input" c)
  in
  let expect_lit lit v =
    if !pos + String.length lit <= n && String.sub s !pos (String.length lit) = lit
    then begin
      pos := !pos + String.length lit;
      v
    end
    else fail (Printf.sprintf "expected %s" lit)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | None -> fail "unterminated escape"
          | Some c ->
              advance ();
              (match c with
              | '"' -> Buffer.add_char buf '"'
              | '\\' -> Buffer.add_char buf '\\'
              | '/' -> Buffer.add_char buf '/'
              | 'n' -> Buffer.add_char buf '\n'
              | 't' -> Buffer.add_char buf '\t'
              | 'r' -> Buffer.add_char buf '\r'
              | 'b' -> Buffer.add_char buf '\b'
              | 'f' -> Buffer.add_char buf '\012'
              | 'u' ->
                  (* The harness only escapes control characters; decode the
                     BMP code point as a raw byte when it fits. *)
                  if !pos + 4 > n then fail "truncated \\u escape";
                  let hex = String.sub s !pos 4 in
                  pos := !pos + 4;
                  let code =
                    try int_of_string ("0x" ^ hex) with _ -> fail "bad \\u escape"
                  in
                  if code < 0x80 then Buffer.add_char buf (Char.chr code)
                  else Buffer.add_string buf (Printf.sprintf "\\u%s" hex)
              | _ -> fail "unknown escape");
              go ())
      | Some c ->
          advance ();
          Buffer.add_char buf c;
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> is_num_char c | None -> false) do
      advance ()
    done;
    let lit = String.sub s start (!pos - start) in
    match float_of_string_opt lit with
    | Some f -> f
    | None -> fail (Printf.sprintf "bad number %S" lit)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          J_obj []
        end
        else begin
          let fields = ref [] in
          let rec member () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            fields := (k, v) :: !fields;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                member ()
            | Some '}' -> advance ()
            | _ -> fail "expected , or } in object"
          in
          member ();
          J_obj (List.rev !fields)
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          J_arr []
        end
        else begin
          let items = ref [] in
          let rec element () =
            let v = parse_value () in
            items := v :: !items;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                element ()
            | Some ']' -> advance ()
            | _ -> fail "expected , or ] in array"
          in
          element ();
          J_arr (List.rev !items)
        end
    | Some '"' -> J_str (parse_string ())
    | Some 't' -> expect_lit "true" (J_bool true)
    | Some 'f' -> expect_lit "false" (J_bool false)
    | Some 'n' -> expect_lit "null" J_null
    | Some ('-' | '0' .. '9') -> J_num (parse_number ())
    | Some c -> fail (Printf.sprintf "unexpected character %c" c)
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let member name = function
  | J_obj fields -> List.assoc_opt name fields
  | J_null | J_bool _ | J_num _ | J_str _ | J_arr _ -> None

let to_num = function Some (J_num f) -> Some f | _ -> None
let to_str = function Some (J_str v) -> Some v | _ -> None

(* ---- Summary extraction --------------------------------------------------------- *)

type mode_summary = {
  mode : string;
  throughput_tps : float;
  committed : int;
  failure_rate : float;
  p99_s : float;  (* tail latency; [nan] when the summary predates the field *)
}

type summary = { workload : string; modes : mode_summary list }

exception Bad_summary of string

let summary_of_json ~file j =
  let bad msg = raise (Bad_summary (Printf.sprintf "%s: %s" file msg)) in
  let workload =
    match to_str (member "workload" j) with
    | Some w -> w
    | None -> bad "missing \"workload\""
  in
  let modes =
    match member "modes" j with
    | Some (J_arr ms) ->
        List.map
          (fun m ->
            let str name =
              match to_str (member name m) with
              | Some v -> v
              | None -> bad (Printf.sprintf "mode missing %S" name)
            in
            let num name =
              match to_num (member name m) with
              | Some v -> v
              | None -> bad (Printf.sprintf "mode missing %S" name)
            in
            {
              mode = str "mode";
              throughput_tps = num "throughput_tps";
              committed = int_of_float (num "committed");
              failure_rate = num "failure_rate";
              p99_s =
                (match to_num (member "p99_latency_s" m) with
                | Some v -> v
                | None -> nan);
            })
          ms
    | _ -> bad "missing \"modes\""
  in
  { workload; modes }

let load_summary file =
  let ic = open_in_bin file in
  let len = in_channel_length ic in
  let contents = really_input_string ic len in
  close_in ic;
  summary_of_json ~file (parse contents)

(* ---- Comparison ------------------------------------------------------------------- *)

type verdict = Ok_within_tolerance | Regressed | Improved | Missing_baseline | Missing_current

type comparison = {
  c_workload : string;
  c_mode : string;
  baseline_tps : float;
  current_tps : float;
  delta_pct : float;  (** (current - baseline) / baseline * 100; nan when no baseline *)
  verdict : verdict;
  baseline_p99 : float;
  current_p99 : float;
  p99_delta_pct : float;
  p99_verdict : verdict;
      (** [Missing_baseline] when either side lacks a usable p99 (nan or 0);
          a p99 {e increase} beyond the latency tolerance is [Regressed] *)
}

(* [tolerance] is a fraction: 0.15 fails a mode whose throughput dropped
   more than 15% below its committed baseline.  Improvements beyond the
   tolerance are flagged (not failed) so stale baselines get refreshed.
   [latency_tolerance] gates p99 the other way around (an increase is the
   regression); it is looser because tail latency amplifies behavior
   shifts that throughput absorbs — but the percentile itself comes from
   the bounded histogram with a documented ±1% relative error, so the
   slack is for the workload, not the measurement. *)
let compare_summaries ~tolerance ?(latency_tolerance = 0.25) ~baseline ~current () =
  (* A baseline row the current run no longer produces is a failure: a
     vanished mode or shard count must not pass the gate unnoticed. *)
  let vanished =
    List.filter_map
      (fun b ->
        if List.exists (fun cur -> cur.mode = b.mode) current.modes then None
        else
          Some
            {
              c_workload = current.workload;
              c_mode = b.mode;
              baseline_tps = b.throughput_tps;
              current_tps = nan;
              delta_pct = nan;
              verdict = Missing_current;
              baseline_p99 = b.p99_s;
              current_p99 = nan;
              p99_delta_pct = nan;
              p99_verdict = Missing_current;
            })
      baseline.modes
  in
  List.map
    (fun cur ->
      match List.find_opt (fun b -> b.mode = cur.mode) baseline.modes with
      | None ->
          {
            c_workload = current.workload;
            c_mode = cur.mode;
            baseline_tps = nan;
            current_tps = cur.throughput_tps;
            delta_pct = nan;
            verdict = Missing_baseline;
            baseline_p99 = nan;
            current_p99 = cur.p99_s;
            p99_delta_pct = nan;
            p99_verdict = Missing_baseline;
          }
      | Some b ->
          let usable v = Float.is_finite v && v > 0. in
          (* A 0.0 (or nan) baseline is a placeholder, not a measurement:
             dividing by it would make every current value an infinite
             "improvement" (or a nan that compares as ok).  Treat it as no
             baseline and let the report say so. *)
          let delta_pct, verdict =
            if not (usable b.throughput_tps) then (nan, Missing_baseline)
            else
              let d =
                (cur.throughput_tps -. b.throughput_tps) /. b.throughput_tps *. 100.
              in
              let v =
                if d < -.(tolerance *. 100.) then Regressed
                else if d > tolerance *. 100. then Improved
                else Ok_within_tolerance
              in
              (d, v)
          in
          let p99_delta_pct, p99_verdict =
            if not (usable b.p99_s && usable cur.p99_s) then (nan, Missing_baseline)
            else
              let d = (cur.p99_s -. b.p99_s) /. b.p99_s *. 100. in
              let v =
                if d > latency_tolerance *. 100. then Regressed
                else if d < -.(latency_tolerance *. 100.) then Improved
                else Ok_within_tolerance
              in
              (d, v)
          in
          {
            c_workload = current.workload;
            c_mode = cur.mode;
            baseline_tps = b.throughput_tps;
            current_tps = cur.throughput_tps;
            delta_pct;
            verdict;
            baseline_p99 = b.p99_s;
            current_p99 = cur.p99_s;
            p99_delta_pct;
            p99_verdict;
          })
    current.modes
  @ vanished

let any_regression comparisons =
  let failing v = v = Regressed || v = Missing_current in
  List.exists (fun c -> failing c.verdict || failing c.p99_verdict) comparisons

let verdict_name = function
  | Ok_within_tolerance -> "ok"
  | Regressed -> "REGRESSED"
  | Improved -> "improved"
  | Missing_baseline -> "no baseline"
  | Missing_current -> "MISSING"

let render_report ~tolerance comparisons =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "# Benchmark regression report\n\n";
  Buffer.add_string buf
    (Printf.sprintf
       "Virtual-clock throughput vs committed baselines (tolerance %.0f%%).\n\
        Deterministic simulation: any delta is a code-behavior change.\n\n"
       (tolerance *. 100.));
  Buffer.add_string buf
    "| workload | mode | baseline tps | current tps | delta | verdict | baseline p99 \
     | current p99 | p99 delta | p99 verdict |\n";
  Buffer.add_string buf "|---|---|---:|---:|---:|---|---:|---:|---:|---|\n";
  let tps v = if Float.is_nan v then "-" else Printf.sprintf "%.1f" v in
  let lat v = if Float.is_nan v then "-" else Printf.sprintf "%.6f" v in
  let pct v = if Float.is_nan v then "n/a" else Printf.sprintf "%+.1f%%" v in
  List.iter
    (fun c ->
      Buffer.add_string buf
        (Printf.sprintf "| %s | %s | %s | %s | %s | %s | %s | %s | %s | %s |\n"
           c.c_workload c.c_mode (tps c.baseline_tps) (tps c.current_tps) (pct c.delta_pct) (verdict_name c.verdict) (lat c.baseline_p99)
           (lat c.current_p99) (pct c.p99_delta_pct) (verdict_name c.p99_verdict)))
    comparisons;
  Buffer.add_char buf '\n';
  if any_regression comparisons then
    Buffer.add_string buf
      "**FAIL**: at least one mode regressed beyond tolerance (throughput or\n\
       p99) or is MISSING from the current run.  If the drop is an accepted trade-off, refresh the baselines\n\
       (see EXPERIMENTS.md, \"Performance trajectory\").\n"
  else
    Buffer.add_string buf "All modes within tolerance.\n";
  Buffer.contents buf
