open Ssi_util
open Ssi_storage
module Obs = Ssi_obs.Obs

type target = Locktab.target =
  | Relation of string
  | Page of string * int
  | Tuple of string * Value.t
  | Index_page of string * int
  | Index_key of string * Value.t
  | Index_inf of string
  | Index_rel of string

let pp_target = Locktab.pp_target

type mode = IS | IX | S | SIX | X

let pp_mode ppf m =
  Format.pp_print_string ppf
    (match m with IS -> "IS" | IX -> "IX" | S -> "S" | SIX -> "SIX" | X -> "X")

let compatible a b =
  match (a, b) with
  | IS, (IS | IX | S | SIX) | (IX | S | SIX), IS -> true
  | IX, IX -> true
  | IX, S | S, IX -> false
  | S, S -> true
  | SIX, (IX | S | SIX) | (IX | S), SIX -> false
  | X, _ | _, X -> false

let covers held requested =
  match (held, requested) with
  | X, _ -> true
  | SIX, (IS | IX | S | SIX) -> true
  | S, (IS | S) -> true
  | IX, (IS | IX) -> true
  | IS, IS -> true
  | (IS | IX | S | SIX), _ -> false

exception Deadlock of { victim : Heap.xid; cycle : Heap.xid list }

(* A mode travels through the lock table as its node's int value. *)
let int_of_mode = function IS -> 0 | IX -> 1 | S -> 2 | SIX -> 3 | X -> 4
let modes = [| IS; IX; S; SIX; X |]

type request = {
  req_owner : Heap.xid;
  req_mode : mode;
  mutable granted : bool;
  signal : Waitq.t;
}

(* A target's holders are the nodes on its slot, one per (owner, mode),
   newest first.  Its FIFO wait queue lives in [queues] only while it is
   non-empty; [waiting] counts the queued requests, so an uncontended
   grant skips [queues] whenever nothing waits anywhere. *)
type t = {
  table : Locktab.t;
  queues : (int, request Queue.t) Hashtbl.t;
  sched : Waitq.scheduler;
  obs : Obs.t;
  mutable waiting : int;
  m_waits : Obs.counter;
  m_deadlocks : Obs.counter;
}

let create ?(obs = Obs.create ()) sched =
  {
    table = Locktab.create ();
    queues = Hashtbl.create 16;
    sched;
    obs;
    waiting = 0;
    m_waits = Obs.counter obs "lockmgr.waits";
    m_deadlocks = Obs.counter obs "lockmgr.deadlocks";
  }

let mode_of tab n = modes.(Locktab.value tab n)

let rec held_from tab n ~owner ~mode =
  n >= 0
  && ((Locktab.holder tab n = owner && covers (mode_of tab n) mode)
     || held_from tab (Locktab.next_holder tab n) ~owner ~mode)

let rec conflicts_from tab n ~owner ~mode =
  n >= 0
  && ((Locktab.holder tab n <> owner && not (compatible (mode_of tab n) mode))
     || conflicts_from tab (Locktab.next_holder tab n) ~owner ~mode)

let holds_slot t slot ~owner ~mode =
  held_from t.table (Locktab.first_holder t.table slot) ~owner ~mode

let conflicts_with_holders t slot ~owner ~mode =
  conflicts_from t.table (Locktab.first_holder t.table slot) ~owner ~mode

let queued t slot = t.waiting > 0 && Hashtbl.mem t.queues slot

let holds t ~owner target mode =
  let slot = Locktab.find t.table target in
  slot >= 0 && holds_slot t slot ~owner ~mode

let holders_of t slot =
  let tab = t.table in
  let rec go n =
    if n < 0 then [] else (Locktab.holder tab n, mode_of tab n) :: go (Locktab.next_holder tab n)
  in
  go (Locktab.first_holder tab slot)

let held_by t target =
  let slot = Locktab.find t.table target in
  if slot < 0 then [] else holders_of t slot

let lock_count t = Locktab.holdings t.table
let waiting_count t = t.waiting

(* ---- Deadlock detection ------------------------------------------------ *)

(* An owner X waits for owner Y when X has a pending request on some target
   where Y either holds an incompatible mode or is queued ahead of X with an
   incompatible request (FIFO grant order makes the latter a real wait). *)

let blockers_of t slot waiters req =
  let from_holders =
    List.filter_map
      (fun (o, m) ->
        if o <> req.req_owner && not (compatible m req.req_mode) then Some o else None)
      (holders_of t slot)
  in
  let ahead = ref [] in
  (try
     Queue.iter
       (fun r ->
         if r == req then raise Exit
         else if
           (not r.granted)
           && r.req_owner <> req.req_owner
           && not (compatible r.req_mode req.req_mode)
         then ahead := r.req_owner :: !ahead)
       waiters
   with Exit -> ());
  from_holders @ !ahead

(* Map each waiting owner to the owners it waits for, by scanning all lock
   queues.  Deadlock check is rare (only on block), so recomputing is fine. *)
let waits_for_edges t =
  let edges = Hashtbl.create 16 in
  Hashtbl.iter
    (fun slot waiters ->
      Queue.iter
        (fun req ->
          if not req.granted then
            Hashtbl.replace edges req.req_owner
              (blockers_of t slot waiters req
              @ (match Hashtbl.find_opt edges req.req_owner with
                | Some l -> l
                | None -> [])))
        waiters)
    t.queues;
  edges

let find_cycle t start =
  let edges = waits_for_edges t in
  let rec dfs path visited node =
    if node = start && path <> [] then Some (List.rev path)
    else if List.mem node visited then None
    else
      match Hashtbl.find_opt edges node with
      | None -> None
      | Some succs ->
          List.fold_left
            (fun acc succ ->
              match acc with
              | Some _ -> acc
              | None -> dfs (succ :: path) (node :: visited) succ)
            None succs
  in
  dfs [] [] start

(* ---- Grant / wait ------------------------------------------------------ *)

let add_holder t slot owner mode =
  ignore (Locktab.add t.table ~slot ~owner:(Locktab.owner_record t.table owner) (int_of_mode mode))

let grant_waiters t slot =
  (* FIFO: grant from the front while requests are compatible with the
     current holders; stop at the first that is not, to avoid starving it. *)
  if queued t slot then begin
    let waiters = Hashtbl.find t.queues slot in
    let rec loop () =
      if not (Queue.is_empty waiters) then begin
        let req = Queue.peek waiters in
        if not (conflicts_with_holders t slot ~owner:req.req_owner ~mode:req.req_mode) then begin
          ignore (Queue.pop waiters);
          add_holder t slot req.req_owner req.req_mode;
          req.granted <- true;
          t.waiting <- t.waiting - 1;
          Waitq.wake_all req.signal;
          loop ()
        end
      end
    in
    loop ();
    if Queue.is_empty waiters then Hashtbl.remove t.queues slot
  end

let drop_if_idle t slot = if not (queued t slot) then Locktab.drop_if_idle t.table slot

(* Withdraw a request that will not be granted, letting the requests
   queued behind it through. *)
let withdraw t slot req =
  let waiters = Hashtbl.find t.queues slot in
  let keep = Queue.create () in
  Queue.iter (fun r -> if r != req then Queue.add r keep) waiters;
  Queue.clear waiters;
  Queue.transfer keep waiters;
  t.waiting <- t.waiting - 1;
  if Queue.is_empty waiters then Hashtbl.remove t.queues slot;
  grant_waiters t slot;
  drop_if_idle t slot

let uncontended t slot ~owner ~mode =
  (not (conflicts_with_holders t slot ~owner ~mode)) && not (queued t slot)

let acquire t ~owner target mode =
  let slot = Locktab.intern t.table target in
  if holds_slot t slot ~owner ~mode then ()
  else if uncontended t slot ~owner ~mode then add_holder t slot owner mode
  else begin
    let req = { req_owner = owner; req_mode = mode; granted = false; signal = Waitq.create () } in
    (match Hashtbl.find_opt t.queues slot with
    | Some waiters -> Queue.add req waiters
    | None ->
        let waiters = Queue.create () in
        Queue.add req waiters;
        Hashtbl.replace t.queues slot waiters);
    t.waiting <- t.waiting + 1;
    (* Maybe the queue was non-empty only with compatible requests. *)
    grant_waiters t slot;
    if not req.granted then begin
      Obs.incr t.m_waits;
      (* The wait interval is a child span of the owning transaction's span
         (owner rendezvous by xid), so blocking shows up in trace trees. *)
      let wsp =
        match Obs.owner_span t.obs owner with
        | Some parent ->
            Some
              (Obs.Span.start t.obs ~parent
                 ~attrs:
                   [
                     ("target", Obs.S (Format.asprintf "%a" pp_target target));
                     ("mode", Obs.S (Format.asprintf "%a" pp_mode mode));
                   ]
                 "lockmgr.wait")
        | None -> None
      in
      let close ?fate () =
        match wsp with
        | Some s ->
            (match fate with Some f -> Obs.Span.add s f (Obs.B true) | None -> ());
            Obs.Span.finish t.obs s
        | None -> ()
      in
      (match find_cycle t owner with
      | Some cycle ->
          withdraw t slot req;
          Obs.incr t.m_deadlocks;
          close ~fate:"deadlock" ();
          raise (Deadlock { victim = owner; cycle })
      | None -> ());
      (try t.sched.suspend req.signal
       with e ->
         if not req.granted then withdraw t slot req;
         close ~fate:"interrupted" ();
         raise e);
      assert req.granted;
      close ()
    end
  end

let try_acquire t ~owner target mode =
  let slot = Locktab.intern t.table target in
  if holds_slot t slot ~owner ~mode then true
  else if uncontended t slot ~owner ~mode then begin
    add_holder t slot owner mode;
    true
  end
  else false

(* Targets are released in reverse order of acquisition: the owner's
   chain is newest first, and each step drops every mode the owner holds
   on the head node's target before granting that target's waiters. *)
let release_all t ~owner =
  let tab = t.table in
  let o = Locktab.owner tab owner in
  if o >= 0 then begin
    let n = ref (Locktab.first_held tab o) in
    while !n >= 0 do
      let slot = Locktab.slot tab !n in
      let h = ref (Locktab.first_holder tab slot) in
      while !h >= 0 do
        let next = Locktab.next_holder tab !h in
        if Locktab.holder tab !h = owner then Locktab.remove tab !h;
        h := next
      done;
      grant_waiters t slot;
      drop_if_idle t slot;
      n := Locktab.first_held tab o
    done;
    Locktab.free_owner tab o
  end
