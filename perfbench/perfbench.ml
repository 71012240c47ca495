(* One rep of the repository benchmark: run one workload once, in this
   process, from one seed, and print what was measured as a single JSON
   object on stdout.  run.py starts a fresh process per rep, checks that
   reps at one seed agree, and aggregates them into the benchmark's
   metrics.

   The load generator is closed-loop: every simulated client is a
   coroutine on the Sim virtual clock that sends its next transaction
   only after the previous one committed or gave up.  A rep has a virtual
   warm-up and then a measured window of fixed virtual length, so every
   virtual count repeats exactly at a seed while the real CPU spent on
   the window is what varies.

   With [--trace] the benchmark times its own calls into each layer
   (spans opened by the benchmark's marks, never by the program), which
   must not change anything the program does: run.py compares the traced
   rep's virtual results and registry with an untraced rep's. *)

open Ssi_util
open Ssi_storage
module E = Ssi_engine.Engine
module Sim = Ssi_sim.Sim
module Obs = Ssi_obs.Obs
module Driver = Ssi_workload.Driver
module Shard = Ssi_shard.Shard
module Wal = Ssi_wal.Wal
module Net = Ssi_net.Net
module Stream = Ssi_replication.Stream
module Replica = Ssi_replication.Replica

external cpu_ns : unit -> int = "perfbench_cpu_ns" [@@noalloc]

let minor_words () = int_of_float (Gc.minor_words ())

(* ---- Minimal JSON output ------------------------------------------------ *)

type json = N of float | I of int | S of string | B of bool | O of (string * json) list

let rec json_to_buf b = function
  | N f ->
      if Float.is_finite f then Buffer.add_string b (Printf.sprintf "%.17g" f)
      else Buffer.add_string b "null"
  | I i -> Buffer.add_string b (string_of_int i)
  | S s -> Printf.bprintf b "\"%s\"" (Obs.json_escape s)
  | B v -> Buffer.add_string b (string_of_bool v)
  | O kvs ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          Printf.bprintf b "\"%s\"" (Obs.json_escape k);
          Buffer.add_char b ':';
          json_to_buf b v)
        kvs;
      Buffer.add_char b '}'

(* ---- Tracing: the benchmark's spans around its calls into the engine ---- *)

(* A client's time is cut at every mark into spans, each named by the
   mark that opened it.  Marks are: the start of a transaction (begin),
   the body's first instruction (back to the load generator, no span),
   the engine's fault point at the entry of every data operation and of
   commit (a non-raising probe installed with [E.set_fault_injector]), a
   failed attempt (abort), and the end of the transaction.  Whenever a
   client is suspended — lock or WAL wait, CPU charge, backoff — its span
   is paused, so self time excludes the time other clients run.  Every
   operation span's parent is its transaction's [txn] span. *)
let labels =
  [| "begin"; "read"; "index_scan"; "insert"; "update"; "delete"; "commit"; "abort"; "other"; "txn" |]

let l_begin = 0
let l_commit = 6
let l_abort = 7
let l_other = 8
let l_txn = 9
let outside = -1

let label_of_op = function
  | "read" -> 1
  | "index_scan" -> 2
  | "insert" -> 3
  | "update" -> 4
  | "delete" -> 5
  | "commit" -> l_commit
  | _ -> l_other

type client = {
  id : int;
  mutable label : int;  (** of the open span, or [outside] *)
  mutable t0 : int;  (** CPU ns when the open span last resumed *)
  mutable w0 : int;  (** minor words then *)
  mutable span_start : int;
  mutable span_self : int;
  mutable txn : int;
  mutable txn_start : int;
  mutable txn_self : int;
}

(* Finished spans of the measured window, kept in memory (up to
   [span_capacity]; later ones are only counted) and written out at
   exit. *)
let span_capacity = 200_000

type probe = {
  self_ns : int array;  (** per label, over the window *)
  words : int array;
  calls : int array;
  mutable measuring : bool;
  mutable current : client;
  mutable next_txn : int;
  lock_waits : Obs.counter;
  mutable lock_waits_seen : int;
  mutable lock_wait_sim : float;
  sp_label : int array;
  sp_client : int array;
  sp_txn : int array;
  sp_start : int array;
  sp_end : int array;
  sp_self : int array;
  mutable spans : int;
}

let new_client id =
  {
    id;
    label = outside;
    t0 = 0;
    w0 = 0;
    span_start = 0;
    span_self = 0;
    txn = 0;
    txn_start = 0;
    txn_self = 0;
  }

let make_probe obs =
  let n = Array.length labels in
  let buf () = Array.make span_capacity 0 in
  {
    self_ns = Array.make n 0;
    words = Array.make n 0;
    calls = Array.make n 0;
    measuring = false;
    current = new_client 0;
    next_txn = 0;
    lock_waits = Obs.counter obs "lockmgr.waits";
    lock_waits_seen = 0;
    lock_wait_sim = 0.;
    sp_label = buf ();
    sp_client = buf ();
    sp_txn = buf ();
    sp_start = buf ();
    sp_end = buf ();
    sp_self = buf ();
    spans = 0;
  }

let push_span p ~label ~c ~start ~stop ~self =
  let i = p.spans in
  if i < span_capacity then begin
    p.sp_label.(i) <- label;
    p.sp_client.(i) <- c.id;
    p.sp_txn.(i) <- c.txn;
    p.sp_start.(i) <- start;
    p.sp_end.(i) <- stop;
    p.sp_self.(i) <- self
  end;
  p.spans <- i + 1

let settle p c ~t ~w =
  if c.label >= 0 then begin
    let d = t - c.t0 in
    c.span_self <- c.span_self + d;
    c.txn_self <- c.txn_self + d;
    if p.measuring then begin
      p.self_ns.(c.label) <- p.self_ns.(c.label) + d;
      p.words.(c.label) <- p.words.(c.label) + (w - c.w0)
    end
  end

let mark p c label =
  let t = cpu_ns () and w = minor_words () in
  settle p c ~t ~w;
  if p.measuring && c.label >= 0 then
    push_span p ~label:c.label ~c ~start:c.span_start ~stop:t ~self:c.span_self;
  if p.measuring && label >= 0 then p.calls.(label) <- p.calls.(label) + 1;
  c.label <- label;
  c.t0 <- t;
  c.w0 <- w;
  c.span_start <- t;
  c.span_self <- 0;
  p.current <- c;
  p.lock_waits_seen <- Obs.counter_value p.lock_waits

let begin_txn p c =
  mark p c l_begin;
  p.next_txn <- p.next_txn + 1;
  c.txn <- p.next_txn;
  c.txn_start <- c.t0;
  c.txn_self <- 0

let end_txn p c =
  mark p c outside;
  if p.measuring then push_span p ~label:l_txn ~c ~start:c.txn_start ~stop:c.t0 ~self:c.txn_self

let write_spans p path =
  let oc = open_out path in
  output_string oc "span\tparent\tclient\ttxn\tstart_ns\tend_ns\tself_ns\n";
  for i = 0 to min p.spans span_capacity - 1 do
    let l = p.sp_label.(i) in
    Printf.fprintf oc "%s\t%s\t%d\t%d\t%d\t%d\t%d\n" labels.(l)
      (if l = l_txn then "-" else "txn")
      p.sp_client.(i) p.sp_txn.(i) p.sp_start.(i) p.sp_end.(i) p.sp_self.(i)
  done;
  close_out oc

let pause p =
  let c = p.current in
  settle p c ~t:(cpu_ns ()) ~w:(minor_words ());
  c

let resume p c =
  p.current <- c;
  c.t0 <- cpu_ns ();
  c.w0 <- minor_words ()

let paused p f =
  let c = pause p in
  match f () with
  | () -> resume p c
  | exception e ->
      resume p c;
      raise e

(* A suspension is a lock-manager wait when [lockmgr.waits] moved since
   the client's last mark or suspension: the lock manager counts a wait
   immediately before suspending on it, with no other client running in
   between. *)
let traced_scheduler p =
  {
    Sim.scheduler with
    Waitq.suspend =
      (fun q ->
        let v = Obs.counter_value p.lock_waits in
        let lock = v > p.lock_waits_seen in
        p.lock_waits_seen <- v;
        let v0 = Sim.now () in
        paused p (fun () -> Sim.scheduler.Waitq.suspend q);
        if lock && p.measuring then p.lock_wait_sim <- p.lock_wait_sim +. (Sim.now () -. v0));
    charge = (fun x -> paused p (fun () -> Sim.scheduler.Waitq.charge x));
  }

(* ---- Machine-speed calibration ------------------------------------------ *)

(* On a shared VM the CPU time of identical work drifts with the
   neighbours' load: the same rep took from 0.5 to 1.4 CPU seconds, in
   phases lasting seconds to many minutes.  Every rep therefore runs
   short slices of a fixed kernel between transactions — on the same
   core, in the same seconds as the workload — and converts its CPU time
   to reference seconds: CPU seconds times the reference slice time over
   the median slice time of the same phase.

   A slice first reads its 1 MB table untimed, so the timed random walk
   runs from L2 whatever the workload evicted before it: adding 32% more
   allocation to sibench-ssi raised raw CPU time by 25% and reference
   time by 20%, while a kernel that let the workload evict its table
   slowed down along with it and hid the regression entirely.  The
   kernel follows most but not all of the machine's drift: in a phase
   where the raw CPU time of identical reps varied by 21% (standard
   deviation over mean), their reference time varied by 8%.
   It works on a Bigarray outside the OCaml heap and allocates nothing,
   so it moves no allocation, GC or heap figure, and it touches neither
   the simulator nor the registry. *)
let kernel_table =
  let t = Bigarray.(Array1.create int c_layout (1 lsl 17)) in
  for i = 0 to Bigarray.Array1.dim t - 1 do
    Bigarray.Array1.unsafe_set t i (i * 2654435761)
  done;
  t

let kernel_state = ref 1

(* The scale of reference seconds: a machine on which a slice's timed
   part takes this long runs at reference speed. *)
let reference_slice_ns = 250_000.

(* A slice runs after every [slice_every] finished transactions. *)
let slice_every = 100

type calibration = { slices : int array; mutable n : int; mutable spent_ns : int }

let new_calibration () = { slices = Array.make 4096 0; n = 0; spent_ns = 0 }

let slice c =
  let start = cpu_ns () in
  let mask = Bigarray.Array1.dim kernel_table - 1 in
  (* Untimed: load the table into L2. *)
  let h = ref !kernel_state in
  for i = 0 to mask do
    h := !h + Bigarray.Array1.unsafe_get kernel_table i
  done;
  let t0 = cpu_ns () in
  for _ = 1 to 10_000 do
    let x = Bigarray.Array1.unsafe_get kernel_table (!h land mask) in
    let y = (!h lxor (x lsr 7)) * 0x9E3779B1 in
    if y land 4 = 0 then Bigarray.Array1.unsafe_set kernel_table ((y lsr 11) land mask) (x + y)
    else h := !h + x;
    h := y lxor (y lsr 17)
  done;
  kernel_state := !h;
  let stop = cpu_ns () in
  (* A ring: a phase longer than the array keeps its latest slices. *)
  c.slices.(c.n mod Array.length c.slices) <- stop - t0;
  c.n <- c.n + 1;
  c.spent_ns <- c.spent_ns + (stop - start)

(* Reference seconds per CPU second in [c]'s phase; nan without slices. *)
let speed_factor c =
  let k = min c.n (Array.length c.slices) in
  if k = 0 then nan
  else begin
    let sorted = Array.sub c.slices 0 k in
    Array.sort compare sorted;
    reference_slice_ns /. float_of_int sorted.(k / 2)
  end

(* [ns] CPU nanoseconds spent in [c]'s phase, less its slices, in
   reference seconds. *)
let reference_seconds c ns = float_of_int (ns - c.spent_ns) *. 1e-9 *. speed_factor c

(* ---- The measured window ------------------------------------------------- *)

type window = {
  mutable opened : bool;
  mutable closed : bool;
  mutable setup_ns : int;
  mutable cpu0 : int;
  mutable cpu1 : int;
  mutable gc0 : Gc.stat option;
  mutable gc1 : Gc.stat option;
  mutable span0 : int;
  mutable span1 : int;
  mutable snap : Obs.snap option;
  setup_cal : calibration;  (** slices before the window opens *)
  window_cal : calibration;
  mutable cal : calibration;  (** the current phase's *)
  mutable finished : int;  (** transactions finished since the start *)
  (* Per-logical-transaction outcomes, for those finishing in the window. *)
  mutable committed : int;
  mutable ro_committed : int;
  mutable giveups : int;
  mutable attempts : int;
  mutable failed_attempts : int;
  mutable backoff : float;
  mutable latencies : float list;
}

let new_window () =
  let setup_cal = new_calibration () in
  {
    opened = false;
    closed = false;
    setup_ns = 0;
    cpu0 = 0;
    cpu1 = 0;
    gc0 = None;
    gc1 = None;
    span0 = 0;
    span1 = 0;
    snap = None;
    setup_cal;
    window_cal = new_calibration ();
    cal = setup_cal;
    finished = 0;
    committed = 0;
    ro_committed = 0;
    giveups = 0;
    attempts = 0;
    failed_attempts = 0;
    backoff = 0.;
    latencies = [];
  }

let in_window w = w.opened && not w.closed

let last_span_id obs =
  List.fold_left (fun acc s -> max acc (Obs.Span.id s)) 0 (Obs.Spans.all obs)

(* Registry reads and allocations happen outside the CPU/GC brackets. *)
let open_window w ~started obs probe =
  w.span0 <- last_span_id obs;
  w.snap <- Some (Obs.snap obs);
  w.gc0 <- Some (Gc.quick_stat ());
  w.cpu0 <- cpu_ns ();
  w.setup_ns <- w.cpu0 - started;
  w.cal <- w.window_cal;
  w.opened <- true;
  Option.iter (fun p -> p.measuring <- true) probe

let close_window w obs probe =
  w.cpu1 <- cpu_ns ();
  Option.iter (fun p -> p.measuring <- false) probe;
  w.gc1 <- Some (Gc.quick_stat ());
  w.closed <- true;
  w.cal <- new_calibration ();
  w.span1 <- last_span_id obs

let record w ~started ~ok ~attempts ~read_only =
  w.finished <- w.finished + 1;
  if w.finished mod slice_every = 0 then slice w.cal;
  if in_window w then begin
    w.attempts <- w.attempts + attempts;
    if ok then begin
      w.committed <- w.committed + 1;
      if read_only then w.ro_committed <- w.ro_committed + 1;
      w.failed_attempts <- w.failed_attempts + attempts - 1;
      w.latencies <- (Sim.now () -. started) :: w.latencies
    end
    else begin
      w.giveups <- w.giveups + 1;
      w.failed_attempts <- w.failed_attempts + attempts
    end
  end

let per_txn win x = if win.committed > 0 then x /. float_of_int win.committed else 0.
let finite x = if Float.is_nan x then 0. else x

(* ---- Workloads ------------------------------------------------------------ *)

type engine_workload = {
  sizes : (string * json) list;  (** the data and mix sizes, as recorded *)
  mode : Driver.mode;
  cores : int;
  clients : int;
  warmup : float;  (** virtual seconds of load before the window opens *)
  duration : float;  (** virtual seconds in the measured window *)
  durable : bool;  (** WAL with group commit plus one streamed replica *)
  setup : E.t -> unit;
  specs : Driver.spec list;
  check : E.txn -> (string * bool) list;  (** end-state checks *)
}

type shard_workload = {
  shards : int;
  keys : int;
  s_clients : int;
  ops_per_txn : int;
  write_bias : float;
  op_cost : float;
  wound_ttl : float;
  s_warmup : float;
  s_duration : float;
}

type workload = Engine of engine_workload | Sharded of shard_workload

(* Group-commit window of the durable workload's WAL: one flush serves
   every commit staged in it. *)
let wal_flush_interval = 200e-6

let vi i = Value.Int i
let ints rows col = List.map (fun r -> Value.as_int r.(col)) rows

let sibench_rows = 100
let sibench_chunk = 50

let sibench =
  {
    sizes = [ ("rows", I sibench_rows); ("chunk", I sibench_chunk) ];
    mode = Driver.SSI;
    cores = 4;
    clients = 4;
    warmup = 0.25;
    duration = 0.5;
    durable = false;
    setup = Ssi_workload.Sibench.setup ~rows:sibench_rows;
    specs = Ssi_workload.Sibench.specs ~rows:sibench_rows ~chunk:sibench_chunk ();
    check =
      (fun t ->
        let rows = E.seq_scan t ~table:Ssi_workload.Sibench.table () in
        let keys = List.sort compare (ints rows 0) in
        let min_v = List.fold_left min max_int (ints rows 1) in
        let k, v = Ssi_workload.Sibench.query_min ~rows:sibench_rows ~chunk:sibench_chunk t in
        let v_of_k =
          List.find_map (fun r -> if Value.as_int r.(0) = k then Some (Value.as_int r.(1)) else None) rows
        in
        [
          ("sibench.one_row_per_key", keys = List.init sibench_rows Fun.id);
          ("sibench.query_min_matches_scan", v = min_v && v_of_k = Some v);
        ]);
  }

let tpcc_warehouses = 4
let tpcc_ro_fraction = 0.4

let tpcc =
  {
    sizes = [ ("warehouses", I tpcc_warehouses); ("ro_fraction", N tpcc_ro_fraction) ];
    mode = Driver.SSI;
    cores = 4;
    clients = 4;
    warmup = 0.5;
    duration = 2.0;
    durable = true;
    setup = Ssi_workload.Tpcc.setup ~warehouses:tpcc_warehouses;
    specs = Ssi_workload.Tpcc.specs ~warehouses:tpcc_warehouses ~ro_fraction:tpcc_ro_fraction;
    check =
      (fun t ->
        let lines = Hashtbl.create 4096 in
        List.iter
          (fun r ->
            let o = Value.as_int r.(1) in
            Hashtbl.replace lines o (1 + Option.value ~default:0 (Hashtbl.find_opt lines o)))
          (E.seq_scan t ~table:"order_line" ());
        let orders = E.seq_scan t ~table:"orders" () in
        [
          ( "tpcc.order_line_count_matches_lines",
            orders <> []
            && List.for_all
                 (fun r ->
                   Option.value ~default:0 (Hashtbl.find_opt lines (Value.as_int r.(0)))
                   = Value.as_int r.(3))
                 orders
            && List.length orders = Hashtbl.length lines );
        ]);
  }

let rubis_users = 400
let rubis_items = 450

let rubis =
  {
    sizes = [ ("users", I rubis_users); ("items", I rubis_items) ];
    mode = Driver.S2PL;
    cores = 4;
    clients = 4;
    warmup = 0.25;
    duration = 1.0;
    durable = false;
    setup = Ssi_workload.Rubis.setup ~users:rubis_users ~items:rubis_items;
    specs = Ssi_workload.Rubis.specs ~users:rubis_users ~items:rubis_items;
    check =
      (fun t ->
        let bids = Hashtbl.create 1024 in
        List.iter
          (fun r ->
            let i = Value.as_int r.(1) in
            Hashtbl.replace bids i (1 + Option.value ~default:0 (Hashtbl.find_opt bids i)))
          (E.seq_scan t ~table:"bids" ());
        let items = E.seq_scan t ~table:"items" () in
        [
          ( "rubis.nb_bids_matches_bids",
            List.length items = rubis_items
            && List.for_all
                 (fun r ->
                   Option.value ~default:0 (Hashtbl.find_opt bids (Value.as_int r.(0)))
                   = Value.as_int r.(4))
                 items );
        ]);
  }

let sharded =
  {
    shards = 4;
    keys = 256;
    s_clients = 16;
    ops_per_txn = 4;
    write_bias = 0.5;
    op_cost = 2e-5;
    (* Ten median transaction latencies.  With the 50 ms default, whether
       a window saw 0 or 18 cross-shard wound stalls decided its
       throughput, which then spread 17% between seeds. *)
    wound_ttl = 5e-3;
    s_warmup = 0.1;
    s_duration = 0.5;
  }

let workloads =
  [
    ("sibench-ssi", Engine sibench);
    ("tpcc-ssi-durable", Engine tpcc);
    ("rubis-s2pl", Engine rubis);
    ("sharded-2pc", Sharded sharded);
  ]

(* The fixed inputs each workload runs with; run.py checks them against
   spec.json so the recorded description cannot drift from the code. *)
let inputs = function
  | Engine w ->
      O
        (w.sizes
        @ [
            ("mode", S (Driver.mode_name w.mode));
            ("clients", I w.clients);
            ("sim_cores", I w.cores);
            ("warmup_sim_s", N w.warmup);
            ("window_sim_s", N w.duration);
            ("wal_flush_interval_s", if w.durable then N wal_flush_interval else S "none");
            ("replicas", I (if w.durable then 1 else 0));
          ])
  | Sharded s ->
      O
        [
          ("shards", I s.shards);
          ("keys", I s.keys);
          ("clients", I s.s_clients);
          ("ops_per_txn", I s.ops_per_txn);
          ("write_bias", N s.write_bias);
          ("op_cost_sim_s", N s.op_cost);
          ("wound_ttl_sim_s", N s.wound_ttl);
          ("warmup_sim_s", N s.s_warmup);
          ("window_sim_s", N s.s_duration);
          ("wal_flush_interval_s", S "none");
          ("replicas", I 0);
        ]

(* ---- Results ------------------------------------------------------------ *)

type outcome = {
  window : window;
  obs : Obs.t;
  probe : probe option;
  checks : (string * bool) list;
  layers : (string * float) list;  (** workload-specific per-layer counts *)
  digest : string;  (** of every registry metric when the load stops *)
}

let registry_digest obs =
  let b = Buffer.create 4096 in
  List.iter
    (fun (name, v) ->
      Buffer.add_string b name;
      (match v with
      | Obs.Counter_v c -> Buffer.add_string b (Printf.sprintf "=c%d" c)
      | Obs.Gauge_v g -> Buffer.add_string b (Printf.sprintf "=g%h" g)
      | Obs.Histogram_v h -> Buffer.add_string b (Printf.sprintf "=h%d,%h,%h" h.Obs.h_count h.h_mean h.h_max));
      Buffer.add_char b '\n')
    (Obs.dump obs);
  Digest.to_hex (Digest.string (Buffer.contents b))

let pick rng specs =
  let total = List.fold_left (fun acc s -> acc +. s.Driver.weight) 0. specs in
  let x = Rng.float rng total in
  let rec go acc = function
    | [] -> invalid_arg "perfbench: empty mix"
    | [ s ] -> s
    | s :: rest -> if acc +. s.Driver.weight > x then s else go (acc +. s.Driver.weight) rest
  in
  go 0. specs

let wait_all n done_q =
  while !n > 0 do
    Sim.wait done_q
  done

let run_engine ~traced ~seed ~started (w : engine_workload) =
  let win = new_window () in
  (* Calibrates the table load, which runs no transactions. *)
  for _ = 1 to 10 do
    slice win.cal
  done;
  let result = ref None in
  ignore
    (Sim.run (fun () ->
         let cpu = Sim.resource ~capacity:w.cores in
         let charging = ref false in
         let obs = Obs.create () in
         let probe = if traced then Some (make_probe obs) else None in
         let guarded f x = if !charging && x > 0. then f x in
         let charge_cpu, charge_io =
           match probe with
           | None -> (guarded (Sim.use cpu), guarded Sim.delay)
           | Some p ->
               ( guarded (fun x -> paused p (fun () -> Sim.use cpu x)),
                 guarded (fun x -> paused p (fun () -> Sim.delay x)) )
         in
         let base = match probe with None -> Sim.scheduler | Some p -> traced_scheduler p in
         (* The engine's only direct [charge] is the retry loop's backoff. *)
         let scheduler =
           {
             base with
             Waitq.charge =
               (fun x ->
                 if in_window win then win.backoff <- win.backoff +. x;
                 base.Waitq.charge x);
           }
         in
         let config =
           {
             E.default_config with
             (* The bench driver's SSI settings (read-only optimisations on). *)
             E.ssi =
               {
                 Ssi_core.Ssi.default_config with
                 max_committed_sxacts = Driver.default_bench.max_committed_sxacts;
               };
             costs = Driver.in_memory_costs;
             charge_cpu = Some charge_cpu;
             charge_io = Some charge_io;
           }
         in
         let db = E.create ~scheduler ~config ~obs () in
         let stream =
           if w.durable then begin
             E.attach_wal db (Wal.create ~flush_interval:wal_flush_interval ());
             let net = Net.create ~obs ~seed () in
             let p = Stream.make_primary net ~node:"p" ~epoch:1 db in
             let core = Replica.create ~obs ~name:"r1" () in
             ignore (Stream.subscribe net ~node:"r1" ~primary_node:"p" ~epoch:1 core);
             Some (p, core)
           end
           else None
         in
         w.setup db;
         charging := true;
         let wal_size () = match E.wal_log db with Some l -> Wal.durable_size l | None -> 0 in
         let wal0 = ref 0 and wal1 = ref 0 and lag = ref 0 in
         Sim.spawn (fun () ->
             Sim.delay w.warmup;
             wal0 := wal_size ();
             open_window win ~started obs probe);
         Sim.spawn (fun () ->
             Sim.delay (w.warmup +. w.duration);
             close_window win obs probe;
             wal1 := wal_size ();
             match stream with
             | Some (p, core) -> lag := Stream.last_cseq p - Replica.applied_cseq core
             | None -> ());
         let close_at = Sim.now () +. w.warmup +. w.duration in
         let iso = Driver.isolation_of_mode w.mode in
         let left = ref w.clients and done_q = Waitq.create () in
         for i = 1 to w.clients do
           let rng = Rng.make (Hashtbl.hash (seed, i)) in
           let backoff_rng = Rng.make (Hashtbl.hash (seed, i, "backoff")) in
           let client = new_client i in
           let with_probe f = match probe with Some p -> f p client | None -> () in
           let mark l = with_probe (fun p c -> mark p c l) in
           let policy =
             match probe with
             | None -> E.default_retry_policy
             | Some _ ->
                 let d = E.default_retry_policy in
                 { d with E.retryable = (fun e -> mark l_begin; d.E.retryable e) }
           in
           Sim.spawn (fun () ->
               while Sim.now () < close_at do
                 let spec = pick rng w.specs in
                 let t0 = Sim.now () in
                 let attempts = ref 0 in
                 let sp =
                   Obs.Span.start obs
                     ~attrs:
                       [
                         ("spec", Obs.S spec.Driver.name);
                         ("worker", Obs.I i);
                         ("read_only", Obs.B spec.read_only);
                       ]
                     "txn"
                 in
                 with_probe begin_txn;
                 let body txn =
                   incr attempts;
                   mark outside;
                   match spec.body rng txn with
                   | () -> ()
                   | exception e ->
                       mark l_abort;
                       raise e
                 in
                 let ok =
                   match
                     E.retry_with ~isolation:iso ~read_only:spec.read_only ~policy ~rng:backoff_rng
                       ~span:sp db body
                   with
                   | () -> true
                   | exception (E.Serialization_failure _ | E.Transient_fault _) -> false
                 in
                 with_probe end_txn;
                 Obs.Span.add sp "outcome" (Obs.S (if ok then "committed" else "gave_up"));
                 Obs.Span.finish obs sp;
                 record win ~started:t0 ~ok ~attempts:!attempts ~read_only:spec.read_only
               done;
               decr left;
               Waitq.wake_all done_q)
         done;
         (match probe with
         | Some p -> E.set_fault_injector db (Some (fun ~op -> mark p p.current (label_of_op op)))
         | None -> ());
         wait_all left done_q;
         let digest = registry_digest obs in
         charging := false;
         E.set_fault_injector db None;
         let replica_checks =
           match stream with
           | None -> []
           | Some (p, core) ->
               let rounds = ref 0 in
               while Replica.applied_cseq core < Stream.last_cseq p && !rounds < 10_000 do
                 incr rounds;
                 Sim.delay 1e-3
               done;
               let same_rows =
                 E.with_txn ~isolation:E.Repeatable_read db (fun t ->
                     let snap = Replica.begin_read core `Latest_applied in
                     List.for_all
                       (fun table ->
                         List.sort compare (E.seq_scan t ~table ())
                         = List.sort compare (Replica.scan snap ~table ()))
                       (E.table_names db))
               in
               [
                 ("replica.applied_cseq_matches_primary", Replica.applied_cseq core = Stream.last_cseq p);
                 ("replica.rows_match_primary", same_rows);
               ]
         in
         let checks = E.with_txn ~isolation:E.Repeatable_read db w.check @ replica_checks in
         let layers =
           [
             ("wal.bytes_per_txn", per_txn win (float_of_int (!wal1 - !wal0)));
             ("replica.lag_commits", float_of_int !lag);
           ]
         in
         result := Some { window = win; obs; probe; checks; layers; digest }));
  Option.get !result

let run_shard ~seed ~started (s : shard_workload) =
  let win = new_window () in
  (* Calibrates the table load, which runs no transactions. *)
  for _ = 1 to 10 do
    slice win.cal
  done;
  let result = ref None in
  let table = "kv" in
  ignore
    (Sim.run (fun () ->
         let obs = Obs.create () in
         let sys = Shard.create ~obs ~wound_ttl:s.wound_ttl ~shards:s.shards ~seed () in
         Shard.create_table sys ~name:table ~cols:[ "k"; "writer" ] ~key:"k";
         Shard.seed_rows sys ~table ~rows:(List.init s.keys (fun k -> [| vi k; vi 1 |]));
         (* One capacity-1 CPU per shard, as in the sharded bench preset:
            each data-plane op spends [op_cost] on its owning shard. *)
         let cpus = Array.init s.shards (fun _ -> Sim.resource ~capacity:1) in
         Sim.spawn (fun () ->
             Sim.delay s.s_warmup;
             open_window win ~started obs None);
         Sim.spawn (fun () ->
             Sim.delay (s.s_warmup +. s.s_duration);
             close_window win obs None);
         let close_at = Sim.now () +. s.s_warmup +. s.s_duration in
         let policy = E.default_retry_policy in
         let left = ref s.s_clients and done_q = Waitq.create () in
         for c = 0 to s.s_clients - 1 do
           let rng = Rng.make (Hashtbl.hash (seed, "shard", c)) in
           Sim.spawn (fun () ->
               while Sim.now () < close_at do
                 let t0 = Sim.now () in
                 (* Like the engine's retry loop re-running a transaction
                    body, every attempt draws its keys afresh. *)
                 let rec attempt n =
                   let ops =
                     List.init s.ops_per_txn (fun _ ->
                         let key = vi (Rng.int rng s.keys) in
                         (key, Rng.chance rng s.write_bias))
                   in
                   let g = Shard.begin_txn sys in
                   let gxid = Shard.gxid g in
                   match
                     List.iter
                       (fun (key, write) ->
                         Sim.use cpus.(Shard.shard_of_key sys key) s.op_cost;
                         if write then
                           ignore (Shard.update g ~table ~key ~f:(fun row -> [| row.(0); vi gxid |]))
                         else ignore (Shard.read g ~table ~key))
                       ops;
                     ignore (Shard.commit g)
                   with
                   | () -> (true, n, List.for_all (fun (_, write) -> not write) ops)
                   | exception e when policy.E.retryable e ->
                       Shard.abort g;
                       if n >= policy.max_attempts then (false, n, false) else attempt (n + 1)
                 in
                 let ok, attempts, read_only = attempt 1 in
                 record win ~started:t0 ~ok ~attempts ~read_only
               done;
               decr left;
               Waitq.wake_all done_q)
         done;
         wait_all left done_q;
         let digest = registry_digest obs in
         ignore (Shard.resolve_indoubt sys);
         let engines = Array.to_list (Shard.engines sys) in
         let no_prepared = List.for_all (fun e -> E.prepared_gids e = []) engines in
         let rows =
           List.fold_left
             (fun acc e -> acc + E.with_txn ~isolation:E.Repeatable_read e (fun t -> E.row_count t ~table))
             0 engines
         in
         let checks =
           [
             ("shard.no_indoubt_after_resolve", no_prepared);
             ("shard.table_holds_all_keys", rows = s.keys);
           ]
         in
         let layers =
           [
             ("wal.bytes_per_txn", 0.);
             ("replica.lag_commits", 0.);
           ]
         in
         result := Some { window = win; obs; probe = None; checks; layers; digest }));
  Option.get !result

(* Per-layer counts: registry deltas over the window, per committed
   transaction.  The same for every workload; a layer a workload does not
   load reads 0. *)
let registry_layers win obs =
  let snap = Option.get win.snap in
  let d name = float_of_int (Obs.delta_counter obs snap name) in
  let hist name = Obs.delta_hist obs snap name in
  let per_txn = per_txn win in
  let commit_paths = d "shard.twopc" +. d "shard.fastpath" +. d "shard.readonly" in
  let path_share x = if commit_paths > 0. then x /. commit_paths else 0. in
  List.map
    (fun op ->
      let calls =
        match op with
        | "begin" -> d "engine.begins"
        | "abort" -> float_of_int win.failed_attempts
        | _ -> float_of_int (Bhist.count (hist ("engine.latency." ^ op)))
      in
      (Printf.sprintf "engine.%s.calls_per_txn" op, per_txn calls))
    [ "begin"; "read"; "index_scan"; "insert"; "update"; "delete"; "commit"; "abort" ]
  @ [
      ("engine.commit.sim_us", finite (1e6 *. Bhist.mean (hist "engine.latency.commit")));
      ("engine.write_conflicts_per_txn", per_txn (d "engine.write_conflicts"));
      ("predlock.tuple_locks_per_txn", per_txn (d "predlock.locks.tuple"));
      ("predlock.page_locks_per_txn", per_txn (d "predlock.locks.page"));
      ("predlock.relation_locks_per_txn", per_txn (d "predlock.locks.relation"));
      ( "predlock.index_locks_per_txn",
        per_txn
          (d "predlock.locks.index_key" +. d "predlock.locks.index_page" +. d "predlock.locks.index_rel"
         +. d "predlock.locks.index_inf") );
      ("predlock.promotions_per_txn", per_txn (d "predlock.promotions"));
      ("ssi.conflicts_per_txn", per_txn (d "ssi.conflicts"));
      ("ssi.dooms_per_txn", per_txn (d "ssi.dooms"));
      ( "ssi.safe_snapshot_share",
        if win.ro_committed > 0 then d "ssi.safe_snapshots" /. float_of_int win.ro_committed else 0. );
      ("ssi.cleanups_per_txn", per_txn (d "ssi.cleanups"));
      ("lockmgr.waits_per_txn", per_txn (d "lockmgr.waits"));
      ("lockmgr.deadlocks_per_ktxn", 1e3 *. per_txn (d "lockmgr.deadlocks"));
      ("wal.appends_per_txn", per_txn (d "wal.appends"));
      ("wal.flushes_per_txn", per_txn (d "wal.flushes"));
      ("wal.group_commit_size", finite (Bhist.mean (hist "wal.group_commit_size")));
      ("stream.records_per_txn", per_txn (d "stream.wal_sent"));
      ("stream.retransmits", d "stream.retransmits");
      ("net.msgs_per_txn", per_txn (d "net.sent"));
      ("shard.twopc_share", path_share (d "shard.twopc"));
      ("shard.fastpath_share", path_share (d "shard.fastpath"));
      ("shard.readonly_share", path_share (d "shard.readonly"));
      ("shard.cross_aborts_per_ktxn", 1e3 *. per_txn (d "shard.cross_aborts"));
      ("shard.wounds_per_ktxn", 1e3 *. per_txn (d "shard.wounds"));
      ("shard.retransmits", d "shard.retransmits");
      ( "shard.decision_wait_sim_ms",
        finite (1e3 *. Bhist.percentile (hist "shard.decision_wait") 0.5) );
    ]

(* ---- Report --------------------------------------------------------------- *)

let report ~name ~seed ~traced (w : workload) o =
  let win = o.window in
  let gc0 = Option.get win.gc0 and gc1 = Option.get win.gc1 in
  let committed = float_of_int win.committed in
  let per_txn = per_txn win in
  let window_ns = win.cpu1 - win.cpu0 in
  let cpu_s = reference_seconds win.window_cal window_ns in
  let duration = match w with Engine e -> e.duration | Sharded s -> s.s_duration in
  let lat = Array.of_list win.latencies in
  let pct p = 1e3 *. Stats.percentile_nearest_of lat p in
  let attempts = float_of_int win.attempts in
  let failure_rate = if attempts > 0. then float_of_int win.failed_attempts /. attempts else 0. in
  let snap = Option.get o.window.snap in
  let dropped =
    List.fold_left
      (fun acc (metric, _) ->
        if String.starts_with ~prefix:"obs." metric && String.ends_with ~suffix:".dropped" metric
        then acc + Obs.delta_counter o.obs snap metric
        else acc)
      0 (Obs.dump o.obs)
  in
  (* Shard's engines run on Sim.scheduler itself, out of the probe's
     reach: its traced reps report these as 0. *)
  let timed =
    if not traced then []
    else
      let zero = Array.make (Array.length labels) 0 in
      let self_ns, words, calls, lock_wait, outside_share =
        match o.probe with
        | Some p ->
            let spans_ns = Array.fold_left ( + ) 0 p.self_ns in
            ( p.self_ns,
              p.words,
              p.calls,
              p.lock_wait_sim,
              1. -. (float_of_int spans_ns /. float_of_int (window_ns - win.window_cal.spent_ns)) )
        | None -> (zero, zero, zero, 0., 0.)
      in
      let speed = speed_factor win.window_cal in
      List.concat
        (List.init l_other (fun l ->
             let per_call a = float_of_int a.(l) /. float_of_int (max 1 calls.(l)) in
             [
               (Printf.sprintf "engine.%s.self_us" labels.(l), 1e-3 *. speed *. per_call self_ns);
               (Printf.sprintf "engine.%s.words" labels.(l), per_call words);
             ]))
      @ [
          ("lockmgr.wait_sim_ms_per_txn", per_txn (1e3 *. lock_wait));
          ("sim.outside_calls_share", outside_share);
        ]
  in
  let layers =
    registry_layers win o.obs @ o.layers @ timed
    @ [
        ("workload.attempts_per_commit", per_txn attempts);
        ("workload.failure_rate", failure_rate);
        ("workload.backoff_sim_ms_per_txn", per_txn (1e3 *. win.backoff));
        ("workload.giveups", float_of_int win.giveups);
        ("obs.spans_per_txn", per_txn (float_of_int (win.span1 - win.span0)));
        ("obs.dropped", float_of_int dropped);
        ( "gc.minor_collections_per_ktxn",
          1e3 *. per_txn (float_of_int (gc1.Gc.minor_collections - gc0.Gc.minor_collections)) );
        ("gc.major_collections", float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections));
        ("gc.promoted_words_per_txn", per_txn (gc1.Gc.promoted_words -. gc0.Gc.promoted_words));
      ]
  in
  (* Everything in [virtual] and [memory] repeats exactly at a seed;
     [virtual] must also be unchanged by tracing. *)
  let virtual_ =
    O
      [
        ("committed", I win.committed);
        ("attempts", I win.attempts);
        ("failed_attempts", I win.failed_attempts);
        ("giveups", I win.giveups);
        ("sim_tps", N (committed /. duration));
        ("sim_p50_ms", N (pct 0.5));
        ("sim_p99_ms", N (pct 0.99));
        ("p99_samples", I (Array.length lat));
        ("sim_mean_ms", N (1e3 *. Array.fold_left ( +. ) 0. lat /. float_of_int (max 1 (Array.length lat))));
        ("failure_rate", N failure_rate);
        ("registry", S o.digest);
      ]
  in
  let memory =
    O
      [
        ("alloc_words_per_txn", N (per_txn (gc1.Gc.minor_words -. gc0.Gc.minor_words)));
        ( "peak_heap_mb",
          N (float_of_int gc1.Gc.top_heap_words *. float_of_int (Sys.word_size / 8) *. 1e-6) );
      ]
  in
  let b = Buffer.create 4096 in
  json_to_buf b
    (O
       [
         ("workload", S name);
         ("seed", I seed);
         ("traced", B traced);
         ("inputs", inputs w);
         ("checks", O (List.map (fun (k, v) -> (k, B v)) o.checks));
         ("virtual", virtual_);
         ("memory", memory);
         ("cpu_s", N cpu_s);
         ("setup_s", N (reference_seconds win.setup_cal win.setup_ns));
         ("raw_cpu_s", N (float_of_int (window_ns - win.window_cal.spent_ns) *. 1e-9));
         ("raw_setup_s", N (float_of_int (win.setup_ns - win.setup_cal.spent_ns) *. 1e-9));
         ("speed", N (speed_factor win.window_cal));
         ("txn_per_cpu_s", N (committed /. cpu_s));
         ("layers", O (List.map (fun (k, v) -> (k, N v)) layers));
       ]);
  print_endline (Buffer.contents b)

let () =
  let started = cpu_ns () in
  let workload = ref "" and seed = ref 1 and traced = ref false and spans = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of the benchmark's workloads");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--trace", Arg.Set traced, " time the benchmark's calls into each layer");
      ("--spans", Arg.Set_string spans, "FILE with --trace, write the window's spans here as TSV");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N [--trace [--spans FILE]]";
  match List.assoc_opt !workload workloads with
  | None ->
      prerr_endline ("perfbench: unknown workload " ^ !workload);
      exit 2
  | Some w ->
      let o =
        match w with
        | Engine e -> run_engine ~traced:!traced ~seed:!seed ~started e
        | Sharded s -> run_shard ~seed:!seed ~started s
      in
      report ~name:!workload ~seed:!seed ~traced:!traced w o;
      match o.probe with Some p when !spans <> "" -> write_spans p !spans | _ -> ()
