open Ssi_storage

type xid = Heap.xid
type cseq = int

let invalid_cseq = max_int

module Clog = struct
  type status = In_progress | Committed of cseq | Aborted

  (* One int per xid, indexed by xid: a commit cseq (>= 0) or one of the
     negative codes below.  Lookups allocate nothing, unlike a table of
     boxed [status] values. *)
  let unknown = -3
  let in_progress = -1
  let aborted = -2

  type t = { mutable codes : int array; mutable next_xid : xid; mutable next_cseq : cseq }

  let create () = { codes = Array.make 256 unknown; next_xid = 1; next_cseq = 1 }

  let set t xid code =
    let n = Array.length t.codes in
    if xid >= n then begin
      let codes = Array.make (max (2 * n) (xid + 1)) unknown in
      Array.blit t.codes 0 codes 0 n;
      t.codes <- codes
    end;
    t.codes.(xid) <- code

  let code t xid =
    let c = if xid >= 0 && xid < Array.length t.codes then t.codes.(xid) else unknown in
    if c = unknown then invalid_arg (Printf.sprintf "Clog.status: unknown xid %d" xid);
    c

  let new_xid t =
    let xid = t.next_xid in
    t.next_xid <- xid + 1;
    set t xid in_progress;
    xid

  let status t xid =
    let c = code t xid in
    if c = in_progress then In_progress else if c = aborted then Aborted else Committed c

  let resolve t xid ~what code' =
    if code t xid <> in_progress then
      invalid_arg ("Clog." ^ what ^ ": transaction already resolved");
    set t xid code'

  let commit t xid =
    let c = t.next_cseq in
    resolve t xid ~what:"commit" c;
    t.next_cseq <- c + 1;
    c

  let abort t xid = resolve t xid ~what:"abort" aborted
  let next_cseq t = t.next_cseq

  (* Recovery replay: reinstate a transaction under its ORIGINAL id (and,
     for commits, original cseq), keeping the allocators ahead of
     everything installed so post-recovery transactions never collide. *)
  let install t xid status =
    (match status with
    | In_progress -> set t xid in_progress
    | Aborted -> set t xid aborted
    | Committed c ->
        set t xid c;
        if c >= t.next_cseq then t.next_cseq <- c + 1);
    if xid >= t.next_xid then t.next_xid <- xid + 1

  let commit_cseq t xid =
    let c = code t xid in
    if c >= 0 then c else invalid_cseq

  let is_committed t xid = code t xid >= 0
  let is_in_progress t xid = code t xid = in_progress
  let is_aborted t xid = code t xid = aborted
end

module Snapshot = struct
  type t = { owner : xid; horizon : cseq }

  let take clog ~owner = { owner; horizon = Clog.next_cseq clog }

  let sees_xid clog t xid =
    xid = t.owner
    ||
    let c = Clog.code clog xid in
    c >= 0 && c < t.horizon
end

module Visibility = struct
  (* A write by [w] that the reader "reads around" creates a reader->w
     rw-antidependency, but only when [w] actually is (or may yet be) part
     of the committed history: in progress, or committed after the
     snapshot.  Aborted writers and the reader itself never conflict. *)
  let conflicts clog (snap : Snapshot.t) w =
    w <> Heap.invalid_xid
    && w <> snap.owner
    &&
    let c = Clog.code clog w in
    c = Clog.in_progress || (c >= 0 && c >= snap.horizon)

  (* The walk from the chain head towards older versions.  A version is
     visible when its creator is seen and its deleter is not (unset,
     in progress, aborted, or committed after the snapshot).  An invisible
     version whose creator conflicts was written around; every other
     invisible version (aborted creator, deleted by the reader or before
     the snapshot) is skipped silently.  Walking on past a version deleted
     before the snapshot is still correct: older versions are judged
     independently.  The result is the chain's own option cell, so the
     walk allocates nothing. *)
  let rec visible clog (snap : Snapshot.t) ~around (v : Heap.tuple option) =
    match v with
    | None -> None
    | Some t ->
        if Snapshot.sees_xid clog snap t.xmin then
          if t.xmax = Heap.invalid_xid || not (Snapshot.sees_xid clog snap t.xmax) then v
          else visible clog snap ~around t.prev
        else begin
          if conflicts clog snap t.xmin then around t.xmin;
          visible clog snap ~around t.prev
        end

  let deleter clog snap (t : Heap.tuple) =
    if conflicts clog snap t.xmax then t.xmax else Heap.invalid_xid
end
